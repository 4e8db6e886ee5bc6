import hashlib
import json
import time

import pytest

from stabkit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCodes:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "codes")
        assert code == 0
        for name in ("two_qubit", "shor_nine", "surface_d3"):
            assert name in out


class TestValidate:
    def test_four_cycle(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "four_cycle")
        assert code == 0
        assert "valid, k=0" in out

    def test_with_distance_check(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "shor_nine", "--check-distance", "3")
        assert code == 0 and "valid, k=1" in out

    def test_unknown_code(self, capsys):
        # The library raises KeyError, whose str() would quote the message.
        code, _, err = run_cli(capsys, "validate", "nonsense")
        assert code == 2
        assert err.startswith("ERR_CONFIG: unknown code name 'nonsense'")

    def test_distance_search_past_guard_fails_fast(self, capsys):
        # Weights 1-5 of surface_d5 are about 1.9e8 candidate Paulis.
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "validate", "surface_d5", "--check-distance", "5")
        assert code == 2 and err.startswith("ERR_CONFIG:") and err.count("\n") == 1
        assert time.perf_counter() - start < 30


class TestSyndromeTable:
    def test_three_qubit_bitflip_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "syndrome-table", "three_qubit_bitflip", "3", "--letters", "X"
        )
        assert code == 0
        rows = dict(line.split("\t") for line in out.strip().splitlines()[1:])
        assert len(rows) == 8
        assert rows["I"] == "00"
        assert rows["X1"] == "10"
        assert rows["X1 X2"] == "01"
        assert rows["X1 X2 X3"] == "00"

    def test_repeated_letters_print_each_row_once(self, capsys):
        argv = ("syndrome-table", "three_qubit_bitflip", "2", "--letters")
        once = run_cli(capsys, *argv, "X")
        assert run_cli(capsys, *argv, "X", "X") == once
        assert once[1].count("X1 X2\t") == 1

    def test_four_two_two_single_qubit(self, capsys):
        code, out, _ = run_cli(capsys, "syndrome-table", "four_two_two", "1")
        rows = dict(line.split("\t") for line in out.strip().splitlines()[1:])
        assert rows["X2"] == "10" and rows["Z3"] == "01" and rows["Y1"] == "11"
        assert len(rows) == 13  # identity + 12 single-qubit errors

    @pytest.mark.parametrize(
        "argv",
        [["shor_nine", "-1"], ["shor_nine", "10"], ["shor_nine", "1000000000"],
         ["surface_d5", "10"], ["surface_d3", "7"]],
        ids=["negative", "past-n", "far-past-n", "far-past-guard", "just-past-guard"],
    )
    def test_a_weight_out_of_range_or_past_the_guard_is_config_error(self, capsys, argv):
        # surface_d5 to weight 10 would list about 7.4e13 Paulis, surface_d3
        # to weight 7 5.4e6 (1.6e6 to weight 6): each fails before any row,
        # and a weight far past n is not counted up to.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "syndrome-table", *argv)
        assert code == 2 and out == ""
        assert err.startswith("ERR_CONFIG: max_weight must be in 0..") and err.count("\n") == 1
        assert time.perf_counter() - start < 5

    def test_streamed_rows_keep_their_bytes(self, capsys, tmp_path):
        # Rows are written as they are made, to stdout or to --out, with
        # the bytes the table had when it was joined into one string; an
        # --out path that cannot be opened is a runtime error.
        code, out, _ = run_cli(capsys, "syndrome-table", "shor_nine", "2")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f122700aa4674a6916fdff05ac7f6cad93b56e97116e77ad623f263dba29e82d"
        )
        path = tmp_path / "table.tsv"
        argv = ("syndrome-table", "surface_d3", "3", "--letters", "Z", "X", "--out")
        code, out, _ = run_cli(capsys, *argv, str(path))
        assert code == 0 and out == ""
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "768329f66ff5953b8bc7662de3d93b8012fb87879a7c2a6544b91d4bc98a9d0c"
        )
        code, out, err = run_cli(capsys, *argv, str(tmp_path / "missing" / "table.tsv"))
        assert code == 3 and out == "" and err.startswith("ERR_RUNTIME:")

    def test_a_table_within_the_guard_runs_at_every_weight_up_to_n(self, capsys):
        # shor_nine, X only: all 2^9 X errors, weights 0..9.
        code, out, _ = run_cli(capsys, "syndrome-table", "shor_nine", "9", "--letters", "X")
        assert code == 0 and len(out.splitlines()) == 1 + 2**9


class TestDistance:
    def test_shor(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "shor_nine", "--max-weight", "4")
        assert code == 0 and out.strip() == "distance 3"

    def test_detection_distance(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "two_qubit", "--letters", "X")
        assert code == 0 and out.strip() == "distance 2"

    def test_max_weight_zero_is_config_error(self, capsys):
        # 0 is a search depth that `distance` rejects, not "up to n".
        code, out, err = run_cli(capsys, "distance", "shor_nine", "--max-weight", "0")
        assert code == 2 and out == "" and err.startswith("ERR_CONFIG:")

    def test_search_past_guard_is_config_error(self, capsys):
        # surface_d7 passes the guard at weight 3, after about 3e4 candidates.
        code, _, err = run_cli(capsys, "distance", "surface_d7")
        assert code == 2 and err.startswith("ERR_CONFIG:")


class TestSimulate:
    def test_three_qubit_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--code", "three_qubit_bitflip", "--decoder", "lookup",
            "--noise", "iid_x", "--px", "0.1", "--trials", "20000", "--seed", "1",
            "--threads", "1",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "p,trials,failures,p_L,ci_low,ci_high"
        p_l = float(row.split(",")[3])
        assert abs(p_l - 0.028) < 0.006

    def test_steps_zero_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--code", "three_qubit_bitflip", "--px", "0.1",
            "--steps", "0", "--p-start", "0.1", "--p-end", "0.2",
        )
        assert code == 2 and "ERR_CONFIG" in err

    def test_mwpm_on_unsupported_code_rejected(self, capsys):
        # [[4,2,2]] has k = 2; MWPM decodes one logical qubit.
        code, _, err = run_cli(
            capsys,
            "simulate", "--code", "four_two_two", "--decoder", "mwpm", "--px", "0.1",
        )
        assert code == 2 and "ERR_CONFIG" in err

    def test_mwpm_on_shor(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--code", "shor_nine", "--decoder", "mwpm", "--px", "0.1",
            "--trials", "200", "--threads", "1",
        )
        assert code == 0 and out

    def test_lookup_table_guard_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--code", "surface_d5", "--decoder", "lookup", "--px", "0.1"
        )
        assert code == 2 and err.startswith("ERR_CONFIG:") and err.count("\n") == 1

    @pytest.mark.parametrize("decoder", ["mwpm", "none"])
    @pytest.mark.parametrize("max_weight", ["0", "1", "-1"])
    def test_max_weight_without_a_lookup_is_config_error(self, capsys, decoder, max_weight):
        code, out, err = run_cli(
            capsys,
            "simulate", "--code", "shor_nine", "--decoder", decoder, "--max-weight", max_weight,
            "--p", "0.05", "--trials", "100", "--threads", "1",
        )
        assert code == 2 and not out and err.startswith("ERR_CONFIG:") and "--max-weight" in err

    def test_max_weight_zero_is_a_valid_lookup_depth(self, capsys):
        # Depth 0 tables only the trivial syndrome: every detected error is
        # a decoder failure, and the run still succeeds.
        code, out, _ = run_cli(
            capsys,
            "simulate", "--code", "shor_nine", "--decoder", "lookup", "--max-weight", "0",
            "--p", "0.05", "--trials", "100", "--threads", "1",
        )
        assert code == 0 and out.startswith("p,trials,failures")

    @pytest.mark.parametrize("noise", ["iid_x", "iid_xz", "depolarizing"])
    def test_p_and_px_are_one_rate_for_every_channel(self, capsys, noise):
        common = ["simulate", "--code", "shor_nine", "--noise", noise, "--trials", "500",
                  "--seed", "3", "--threads", "1"]
        code_p, out_p, _ = run_cli(capsys, *common, "--p", "0.1")
        code_px, out_px, _ = run_cli(capsys, *common, "--px", "0.1")
        assert code_p == code_px == 0
        assert out_p == out_px and out_p.splitlines()[1].startswith("0.1,500,")

    def test_missing_rate_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--code", "shor_nine")
        assert code == 2 and "ERR_CONFIG" in err

    def test_post_selected_two_qubit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--code", "two_qubit", "--decoder", "none",
            "--noise", "iid_x", "--px", "0.1", "--trials", "50000", "--seed", "2",
            "--threads", "1",
        )
        assert code == 0
        p_l = float(out.strip().splitlines()[1].split(",")[3])
        assert abs(p_l - 0.0122) < 0.004

    def test_no_decoder_is_the_only_post_selection(self, capsys):
        # The report names no decoder for a run that decoded nothing.
        argv = ["simulate", "--code", "four_two_two", "--decoder", "none", "--px", "0.2",
                "--trials", "500", "--threads", "1", "--format", "json"]
        code, out, _ = run_cli(capsys, *argv)
        payload = json.loads(out)
        assert code == 0 and payload["decoder"] == "none"
        assert payload["points"][0]["discarded"] > 0
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--post-select"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --post-select" in capsys.readouterr().err

    def test_json_format_and_outfile(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--code", "three_qubit_bitflip", "--px", "0.05",
            "--trials", "1000", "--format", "json", "--out", str(out_path),
            "--threads", "1",
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["code"] == "three_qubit_bitflip"

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "simulate", "--code", "surface_d2", "--decoder", "mwpm",
            "--noise", "iid_xz", "--p-start", "0.05", "--p-end", "0.15",
            "--steps", "3", "--trials", "2000", "--seed", "9", "--threads", "1",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_log_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--code", "three_qubit_bitflip", "--p-start", "0.01",
            "--p-end", "0.1", "--steps", "3", "--log-grid", "--trials", "500",
            "--threads", "1",
        )
        assert code == 0
        ps = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert ps[0] == pytest.approx(0.01) and ps[2] == pytest.approx(0.1)
        assert ps[1] == pytest.approx(0.0316227766, rel=1e-6)

    def test_log_grid_needs_positive_ends(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--code", "three_qubit_bitflip", "--p-start", "0.01",
            "--p-end", "0", "--steps", "3", "--log-grid", "--threads", "1",
        )
        assert code == 2
        assert err == "ERR_CONFIG: --log-grid needs --p-start and --p-end > 0\n"

    @pytest.mark.parametrize(
        "grid",
        [
            "--p 0.1 --log-grid",
            "--p 0.1 --p-start 0.2 --p-end 0.3",
            "--p 0.5 --p-start 0.01 --p-end 0.02 --steps 2",
            "--px 0.1 --p-end 0.3",
            "--px 0.1 --p-start 0.2 --p-end 0.3 --steps 1",
        ],
    )
    def test_a_point_with_grid_flags_is_config_error(self, capsys, grid):
        # A point and a grid are two runs; neither may be dropped silently.
        code, out, err = run_cli(
            capsys, "simulate", "--code", "three_qubit_bitflip", *grid.split(),
            "--trials", "10", "--threads", "1",
        )
        assert code == 2 and out == ""
        assert err == "ERR_CONFIG: give --p/--px or --p-start/--p-end/--steps, not both\n"

    def test_one_step_runs_the_start_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--code", "three_qubit_bitflip", "--p-start", "0.05",
            "--p-end", "0.2", "--steps", "1", "--trials", "100", "--threads", "1",
        )
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["0.05"]

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("--p-start 0.2 --p-end 0.1", "--p-end must not be below --p-start"),
            ("--p-start 0 --p-end 0.1 --log-grid", "--log-grid needs --p-start and --p-end > 0"),
        ],
        ids=["end-below-start", "log-grid-at-zero"],
    )
    def test_one_step_grid_is_checked_like_any_grid(self, capsys, grid, message):
        # These ends are ERR_CONFIG at --steps 2, so they are at --steps 1.
        code, out, err = run_cli(
            capsys, "simulate", "--code", "three_qubit_bitflip", *grid.split(),
            "--steps", "1", "--trials", "10", "--threads", "1",
        )
        assert code == 2 and out == ""
        assert err == f"ERR_CONFIG: {message}\n"

    @pytest.mark.parametrize(
        "grid",
        [
            "--p-start 0 --p-end inf --steps 2",
            "--p-start 0.01 --p-end inf --steps 3 --log-grid",
            "--p-start=-inf --p-end 0.1 --steps 2",
            "--p-start nan --p-end 0.1 --steps 1",
        ],
        ids=["end-inf", "log-grid-end-inf", "start-minus-inf", "start-nan"],
    )
    def test_a_non_finite_end_is_config_error(self, capsys, grid):
        # inf * 0 made the first grid point nan, and the error named a
        # probability nan that was never given; the message names the flags.
        code, out, err = run_cli(
            capsys, "simulate", "--code", "shor_nine", *grid.split(), "--trials", "10",
            "--threads", "1",
        )
        assert code == 2 and out == ""
        assert err == "ERR_CONFIG: --p-start and --p-end must be finite\n"

    def test_one_step_with_equal_ends_runs_that_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--code", "three_qubit_bitflip", "--p-start", "0.05",
            "--p-end", "0.05", "--steps", "1", "--trials", "100", "--threads", "1",
        )
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["0.05"]

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_config_error(self, capsys, threads):
        code, out, err = run_cli(
            capsys,
            "simulate", "--code", "three_qubit_bitflip", "--px", "0.1",
            "--trials", "100", "--threads", threads,
        )
        assert code == 2 and out == ""
        assert err == "ERR_CONFIG: workers must be >= 1\n"


class TestThreshold:
    def test_tiny_scan(self, capsys):
        code, out, err = run_cli(
            capsys,
            "threshold", "--distances", "2,3", "--p-start", "0.04", "--p-end", "0.24",
            "--steps", "3", "--trials", "2000", "--seed", "4", "--threads", "1",
        )
        assert code == 0
        assert out.splitlines()[0] == "code,p,trials,failures,p_L,ci_low,ci_high"
        assert "p_th estimate" in err

    def test_missing_grid(self, capsys):
        code, _, err = run_cli(capsys, "threshold", "--distances", "2,3")
        assert code == 2 and "ERR_CONFIG" in err

    def test_single_distance_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "threshold", "--distances", "3", "--p-start", "0.05", "--p-end", "0.15",
            "--steps", "2",
        )
        assert code == 2 and "ERR_CONFIG" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--code", "three_qubit_bitflip", "--p-start", "0.2", "--p-end", "0.1",
         "--steps", "3"],
        ["simulate", "--code", "three_qubit_bitflip", "--p", "1.5"],
        ["simulate", "--code", "three_qubit_bitflip", "--p", "0.1", "--trials", "0"],
        ["threshold", "--distances", "3,3", "--p-start", "0.05", "--p-end", "0.15",
         "--steps", "2"],
        ["simulate", "--code", "shor_nine", "--p", "0.1", "--trials", "200",
         "--max-weight", "-1"],
    ],
    ids=["decreasing-grid", "rate-above-one", "zero-trials", "repeated-distance",
         "negative-lookup-depth"],
)
def test_library_input_errors_are_config_errors(capsys, argv):
    # The library, not the CLI, rejects these inputs with ValueError.
    code, _, err = run_cli(capsys, *argv, "--threads", "1")
    assert code == 2 and err.startswith("ERR_CONFIG:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [["simulate", "--code", "two_qubit"], ["threshold", "--distances", "2,3"]],
    ids=["simulate", "threshold"],
)
@pytest.mark.parametrize(
    "grid",
    ["", "--p-start 0.1 --p-end 0.2", "--p-start 0.1 --log-grid", "--steps 2"],
    ids=["none", "ends", "start-log-grid", "steps"],
)
def test_a_partial_grid_is_config_error(capsys, command, grid):
    code, out, err = run_cli(capsys, *command, *grid.split(), "--threads", "1")
    assert code == 2 and out == ""
    assert err.startswith("ERR_CONFIG: give --p-start, --p-end and --steps")
