import hashlib
import json
import math
import random
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from stabkit import code_library as library
from stabkit import montecarlo
from stabkit import statevector as sv
from stabkit.decoders import LookupDecoder, MwpmDecoder
from stabkit.montecarlo import (
    CrossingEstimate,
    RatePoint,
    SimulationReport,
    _pair_crossing,
    _run_trials,
    estimate_logical_rate,
    sweep,
    threshold_scan,
    wilson_interval,
)
from stabkit.noise import CHANNELS, derive_seed, iid_x, iid_xz, sample_batch
from stabkit.pauli import PauliOperator, multiply, parse


# Exhaustive enumeration of the eight bit-flip patterns against the decoder:
# double flips decode to the complementary single flip (logical failure) and
# the triple flip is silent, so p_L = 3 p^2 (1-p) + p^3.
def three_qubit_closed_form(p):
    return 3 * p**2 * (1 - p) + p**3


@pytest.fixture
def opened_pools(monkeypatch):
    """The `max_workers` of each process pool that `montecarlo` opens; its
    `tasks` attribute lists how many tasks each pool's `map` received."""

    class Opened(list):
        tasks: list[int]

    opened = Opened()
    opened.tasks = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            tasks = list(iterables[0])
            opened.tasks.append(len(tasks))
            return super().map(fn, tasks, *iterables[1:], **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    return opened


class TestWilson:
    def test_interval_contains_estimate(self):
        low, high = wilson_interval(3, 100)
        assert low < 0.03 < high

    def test_zero_failures(self):
        low, high = wilson_interval(0, 1000)
        assert low == 0.0 and 0 < high < 0.01

    def test_all_failures(self):
        low, high = wilson_interval(50, 50)
        assert high == 1.0 and low > 0.9


class TestCycle:
    def test_noiseless_always_succeeds(self):
        code = library.three_qubit_bitflip()
        args = (code, LookupDecoder(code), [(iid_x(0.0), 0, 0, 100)])
        # (failures, kept, discarded, decoder failures) of the one part
        assert _run_trials(args).tolist() == [[0, 100, 0, 0]]

    def test_uneven_parts_tally_per_part(self):
        # One batch of parts of 1 to 3,000 trials, with their own rates,
        # seeds and start offsets: each part's counts must be those of its
        # own trials, replayed stage by stage.
        code = library.shor_nine()
        decoder = LookupDecoder(code, max_weight=1)
        parts = [
            (iid_xz(0.05, 0.05), 11, 17, 18),
            (iid_xz(0.20, 0.20), 12, 0, 2047),
            (iid_xz(0.10, 0.10), 14, 300, 305),
            (iid_xz(0.15, 0.15), 15, 1000, 4000),
        ]
        counts = _run_trials((code, decoder, parts)).tolist()
        for (noise, seed, start, stop), row in zip(parts, counts):
            draws = sample_batch(code.n, [(noise, seed, start, stop)])
            syndromes, error_classes = code.parity_batch(*draws)
            classes, failed = decoder.decode_batch(syndromes)
            wrong = (error_classes != classes).any(axis=1) | failed
            assert row == [int(wrong.sum()), stop - start, 0, int(failed.sum())]
        assert counts[-1][3] > 0

    def test_three_qubit_double_flip_fails(self):
        code = library.three_qubit_bitflip()
        error = parse("XXI")
        syndrome = code.syndrome(error)
        assert str(syndrome) == "01"
        recovery = LookupDecoder(code).decode_value(syndrome.value)
        assert recovery == parse("IIX")
        residual = code.residual_class(multiply(recovery, error))
        assert not residual.success
        assert residual.logical_classes == ("X",)

    def test_shor_degenerate_success(self):
        code = library.shor_nine()
        error = parse("Z2", n=9)
        recovery = LookupDecoder(code).decode_value(code.syndrome_value(error))
        assert recovery == parse("Z1", n=9)
        assert code.residual_class(multiply(recovery, error)).success


class TestEstimate:
    def test_zero_noise_rate(self):
        code = library.three_qubit_bitflip()
        point = estimate_logical_rate(code, LookupDecoder(code), iid_x(0.0), 500, 3)
        assert point.failures == 0 and point.p_l == 0.0

    def test_three_qubit_matches_closed_form(self):
        code = library.three_qubit_bitflip()
        point = estimate_logical_rate(code, LookupDecoder(code), iid_x(0.1), 20000, 7)
        expected = three_qubit_closed_form(0.1)
        sigma = math.sqrt(expected * (1 - expected) / point.trials)
        assert abs(point.p_l - expected) < 4 * sigma
        assert point.ci_low < point.p_l < point.ci_high

    def test_counting_soundness(self):
        code = library.three_qubit_bitflip()
        point = estimate_logical_rate(code, LookupDecoder(code), iid_x(0.25), 4000, 11)
        assert 0 <= point.failures <= point.trials == 4000

    def test_post_selected_two_qubit(self):
        code = library.two_qubit()
        point = estimate_logical_rate(code, None, iid_x(0.1), 100_000, 13)
        expected = 0.01 / 0.82
        assert point.discarded > 0
        assert point.trials + point.discarded == 100_000
        sigma = math.sqrt(expected * (1 - expected) / point.trials)
        assert abs(point.p_l - expected) < 4 * sigma

    def test_no_decoder_post_selects(self):
        # A None decoder discards exactly the nonzero-syndrome draws, and a
        # kept draw fails where its error is a logical operator.
        code = library.four_two_two()
        point = estimate_logical_rate(code, None, iid_x(0.2), 500, 17)
        syndromes, classes = code.parity_batch(*sample_batch(code.n, [(iid_x(0.2), 17, 0, 500)]))
        kept = ~syndromes.any(axis=1)
        logical = classes.any(axis=1)
        assert (point.trials, point.discarded) == (kept.sum(), (~kept).sum())
        assert point.failures == (logical & kept).sum() > 0
        assert point.decoder_failures == 0

    def test_deterministic_and_worker_independent(self, opened_pools):
        # More trials than one batch, so workers 2 and 3 split the point over a pool.
        trials = 2101
        assert trials > montecarlo._SLICE_TRIALS
        code = library.surface_code(3)
        decoder = MwpmDecoder(code)
        detection = library.two_qubit()
        for workers in (1, 2, 3):
            decoded = estimate_logical_rate(
                code, decoder, iid_xz(0.08, 0.08), trials, 5, workers=workers
            )
            post_selected = estimate_logical_rate(
                detection, None, iid_x(0.2), trials, 5, workers=workers
            )
            if workers == 1:
                first = (decoded, post_selected)
                assert decoded.failures > 0 and post_selected.discarded > 0
            assert (decoded, post_selected) == first
        assert opened_pools == [2, 2, 3, 3]

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            estimate_logical_rate(library.two_qubit(), None, iid_x(0.1), 0, 0)


class TestSweep:
    @pytest.mark.parametrize(
        "name, decoder, noise, p_values, tally",
        [
            ("surface_d7", MwpmDecoder, "iid_xz", [0.08, 0.10, 0.12], "failures"),
            ("shor_nine", lambda code: LookupDecoder(code, 1), "depolarizing",
             [0.05, 0.10, 0.20], "decoder_failures"),
            ("four_two_two", lambda code: None, "iid_x", [0.05, 0.20, 0.30], "discarded"),
        ],
        ids=["mwpm", "truncated-lookup", "post-selected"],
    )
    def test_points_sharing_batches_match_points_run_alone(
        self, name, decoder, noise, p_values, tally
    ):
        # 3 x 700 trials run in-process as two batches: the first holds
        # all three points, and the last point spans both.
        assert 2 * 700 < montecarlo._SLICE_TRIALS < 3 * 700
        code = library.get_code(name)
        decoder = decoder(code)
        report = sweep(code, decoder, noise, p_values, 700, 41)
        alone = [
            estimate_logical_rate(code, decoder, CHANNELS[noise](p), 700, derive_seed(41, index))
            for index, p in enumerate(p_values)
        ]
        assert report.points == alone
        assert sum(getattr(pt, tally) for pt in alone) > 0  # what the case exercises

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        code = library.three_qubit_bitflip()
        with pytest.raises(ValueError, match="workers must be >= 1"):
            sweep(code, LookupDecoder(code), "iid_x", [0.1], 100, 0, workers=workers)

    def test_unknown_noise_kind_rejected(self):
        code = library.three_qubit_bitflip()
        with pytest.raises(ValueError, match="unknown noise kind"):
            sweep(code, LookupDecoder(code), "amplitude_damping", [0.1], 100, 0)

    def test_structure(self):
        code = library.three_qubit_bitflip()
        report = sweep(code, LookupDecoder(code), "iid_x", [0.01, 0.05, 0.1], 2000, 21)
        assert [pt.p for pt in report.points] == [0.01, 0.05, 0.1]
        assert report.code == "three_qubit_bitflip"
        assert report.decoder == "lookup"

    def test_monotone_rates_for_three_qubit(self):
        code = library.three_qubit_bitflip()
        report = sweep(code, LookupDecoder(code), "iid_x", [0.02, 0.1, 0.3], 20000, 23)
        rates = [pt.p_l for pt in report.points]
        slack = [3 * math.sqrt(max(r, 1e-4) / 20000) for r in rates]
        assert rates[0] <= rates[1] + slack[1]
        assert rates[1] <= rates[2] + slack[2]

    def test_empty_grid_rejected(self):
        code = library.three_qubit_bitflip()
        with pytest.raises(ValueError):
            sweep(code, LookupDecoder(code), "iid_x", [], 100, 0)

    def test_non_monotone_grid_rejected(self):
        code = library.three_qubit_bitflip()
        with pytest.raises(ValueError):
            sweep(code, LookupDecoder(code), "iid_x", [0.1, 0.05], 100, 0)

    def test_csv_and_json_shapes(self):
        code = library.three_qubit_bitflip()
        report = sweep(code, LookupDecoder(code), "iid_x", [0.1], 1000, 29)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "p,trials,failures,p_L,ci_low,ci_high"
        assert len(lines) == 2
        payload = json.loads(report.to_json())
        assert payload["code"] == "three_qubit_bitflip"
        assert payload["master_seed"] == 29
        assert len(payload["points"]) == 1
        assert payload["version"].startswith("stabkit-")

    def test_csv_byte_identical_reruns(self):
        code = library.surface_code(2)
        decoder = MwpmDecoder(code)
        a = sweep(code, decoder, "iid_xz", [0.05, 0.1], 2000, 31).to_csv()
        b = sweep(code, decoder, "iid_xz", [0.05, 0.1], 2000, 31).to_csv()
        assert a == b

    def test_an_int_grid_writes_the_csv_of_its_float_grid(self):
        # `p` is written with repr: the grid point 0 must write "0.0" too.
        ints = sweep(library.four_two_two(), None, "iid_x", [0, 0.1], 100, 1).to_csv()
        floats = sweep(library.four_two_two(), None, "iid_x", [0.0, 0.1], 100, 1).to_csv()
        assert ints == floats and ints.splitlines()[1].startswith("0.0,100,")

    @pytest.mark.parametrize(
        "lam, p_values, counts",
        [
            (5, [0.08, 0.10, 0.12], [(183, 0), (242, 0), (375, 0)]),
            (7, [0.06, 0.09], [(59, 0), (196, 0)]),
        ],
    )
    def test_mwpm_golden_counts(self, lam, p_values, counts):
        # Fixed-seed (failures, decoder give-ups): a decoder change that
        # moves an optimum or a tie-break changes them; MWPM never gives up.
        code = library.surface_code(lam)
        report = sweep(code, MwpmDecoder(code), "iid_xz", p_values, 1000, master_seed=2024)
        assert [(pt.failures, pt.decoder_failures) for pt in report.points] == counts

    @pytest.mark.parametrize(
        "max_weight, noise, counts",
        [(None, "depolarizing", [(54, 0), (188, 0)]), (1, "iid_xz", [(363, 262), (916, 698)])],
    )
    def test_lookup_golden_counts(self, max_weight, noise, counts):
        # Fixed-seed (failures, decoder give-ups) of Shor lookups; a full
        # table never gives up, and a truncated one gives up exactly on the
        # syndromes it misses (replayed here from the same draws).
        code = library.shor_nine()
        decoder = LookupDecoder(code, max_weight)
        report = sweep(code, decoder, noise, [0.05, 0.10], 2000, master_seed=2024)
        assert [(pt.failures, pt.decoder_failures) for pt in report.points] == counts
        for index, pt in enumerate(report.points):
            draws = sample_batch(code.n, [(CHANNELS[noise](pt.p), derive_seed(2024, index), 0, 2000)])
            syndromes = code.parity_batch(*draws)[0][:, 0]
            assert pt.decoder_failures == sum(int(v) not in decoder.table for v in syndromes)

    def test_post_selected_golden_counts(self):
        # Fixed-seed (failures, kept, discarded) of a detection code.
        code = library.four_two_two()
        report = sweep(code, None, "iid_x", [0.05, 0.20], 2000, 2024)
        counts = [(pt.failures, pt.trials, pt.discarded) for pt in report.points]
        assert counts == [(22, 1658, 342), (298, 1100, 900)]


def fixed_seed_outputs(workers):
    """Fixed-seed outputs as one string: sweep CSVs over MWPM, full and
    truncated lookup and post-selection, every noise kind and surface codes
    up to d11, then the benchmark scan's CSV, p_th and sigma."""
    grid = [0.01, 0.02, 0.03, 0.05, 0.07, 0.09, 0.12]
    surface, shor = library.surface_code, library.shor_nine()
    mwpm = [(surface(lam), "iid_xz", grid, 700, seed) for lam, seed in ((3, 14), (5, 16), (7, 18))]
    mwpm += [
        (surface(9), "iid_xz", [0.01, 0.02, 0.03], 400, 5),
        (surface(11), "depolarizing", [0.02, 0.05], 300, 6),
        (shor, "iid_xz", grid, 900, 7),
    ]
    runs = [(code, MwpmDecoder(code), *rest) for code, *rest in mwpm]
    full, low = LookupDecoder(shor), [0.01, 0.05, 0.1, 0.3]
    runs += [
        (shor, full, "depolarizing", low + [1.0], 1500, 8),
        (shor, full, "iid_x", low + [1.0], 1500, 8),
        (shor, full, "iid_xz", low + [0.5], 1500, 8),
        (shor, LookupDecoder(shor, 1), "depolarizing", [0.05, 0.1], 1500, 9),
        (library.four_two_two(), None, "iid_x", [0.0, 0.01, 0.1, 0.3], 2500, 10),
    ]
    text = "".join(sweep(*run, workers=workers).to_csv() for run in runs)
    scan = threshold_scan([3, 5, 7], [0.07, 0.08, 0.09, 0.10, 0.11, 0.12], 600, 123, workers)
    return text + scan.to_csv() + f"{scan.p_threshold!r},{scan.sigma!r}"


class TestFixedSeedOutputs:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_digest(self, workers):
        # Pins every fixed-seed count, rate and interval bit for bit, at one
        # and two workers: a change that keeps outputs identical keeps it.
        digest = hashlib.sha256(fixed_seed_outputs(workers).encode()).hexdigest()
        assert digest == "b7a126f9b5c700fc73002809295679b821c5b31b453a80c459a761228300e259"


class TestExactOracle:
    # Every one of the 2^13 X (or Z) errors of surface_d3 through MWPM:
    # A_w X errors and B_w Z errors of weight w fail.  Tie-breaks make the
    # two sectors' counts differ.
    A_W = [0, 0, 25, 154, 378, 657, 870, 832, 616, 358, 153, 46, 6, 1]
    B_W = [0, 0, 25, 163, 379, 639, 860, 840, 632, 360, 147, 45, 5, 1]
    P_GRID, TRIALS = [0.02, 0.05, 0.10, 0.15], 4000

    @staticmethod
    def failing_weights(code, decoder, sector):
        values = np.arange(1 << code.n)
        bits = (values[:, None] >> np.arange(code.n)) & 1 == 1
        none = np.zeros_like(bits)
        draws = (bits, none) if sector == "X" else (none, bits)
        syndromes, error_classes = code.parity_batch(*draws)
        classes, failed = decoder.decode_batch(syndromes)
        wrong = (classes != error_classes).any(axis=1) | failed
        return np.bincount(bits.sum(axis=1)[wrong], minlength=code.n + 1).tolist()

    @staticmethod
    def sector_rate(counts, p):
        """The exact failure rate of one sector under iid noise at p."""
        n = len(counts) - 1
        return sum(c * p**w * (1 - p) ** (n - w) for w, c in enumerate(counts))

    def assert_within_5_sigma(self, report, exact_rate):
        for pt in report.points:
            exact = exact_rate(pt.p)
            sigma = math.sqrt(exact * (1 - exact) / self.TRIALS)
            assert abs(pt.p_l - exact) < 5 * sigma, (pt.p, pt.p_l, exact)

    def test_surface_d3_iid_x_sweep_matches_the_exact_curve(self):
        # Under iid_x the exact rate is sum_w A_w p^w (1 - p)^(13 - w).
        code = library.surface_code(3)
        decoder = MwpmDecoder(code)
        assert self.failing_weights(code, decoder, "X") == self.A_W
        report = sweep(code, decoder, "iid_x", self.P_GRID, self.TRIALS, 31)
        self.assert_within_5_sigma(report, lambda p: self.sector_rate(self.A_W, p))

    def test_surface_d3_iid_xz_sweep_matches_the_exact_curve(self):
        # The sectors fail independently under iid_xz, so the exact rate is
        # 1 - (1 - sum_w A_w p^w (1-p)^(13-w)) (1 - sum_w B_w p^w (1-p)^(13-w)).
        code = library.surface_code(3)
        decoder = MwpmDecoder(code)
        assert self.failing_weights(code, decoder, "Z") == self.B_W
        report = sweep(code, decoder, "iid_xz", self.P_GRID, self.TRIALS, 31)
        self.assert_within_5_sigma(
            report,
            lambda p: 1 - (1 - self.sector_rate(self.A_W, p)) * (1 - self.sector_rate(self.B_W, p)),
        )


def _pauli_of_row(x_row, z_row) -> PauliOperator:
    """The Pauli of one row of bool X and Z arrays."""
    x, z = (sum(1 << int(q) for q in np.flatnonzero(row)) for row in (x_row, z_row))
    return PauliOperator(len(x_row), x, z)


class TestCrossOracle:
    def test_commutation_cycle_matches_statevector_replay(self):
        # Replays the batch stages of `_run_trials` (sample, parities,
        # decode, classify) on a dense logical state, trial by trial: the
        # recovery of `decode_value` must restore the state exactly where
        # the batch's class verdict says the trial succeeds.
        rng = random.Random(20260809)
        cases = [
            (library.three_qubit_bitflip(), LookupDecoder(library.three_qubit_bitflip())),
            (library.four_two_two(), LookupDecoder(library.four_two_two())),
            (library.shor_nine(), LookupDecoder(library.shor_nine())),
            (library.surface_code(3), MwpmDecoder(library.surface_code(3))),
        ]
        trials = 100 // len(cases) + 1
        for seed, (code, decoder) in enumerate(cases):
            zero_l = sv.encode_by_projection(code)
            basis = [zero_l]
            for xbar, _ in code.logicals:
                basis = [state for state in basis] + [
                    sv.apply_pauli(state, xbar) for state in basis
                ]
            # generic logical superposition
            coeffs = [rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in basis]
            amps = sum(c * b.amplitudes for c, b in zip(coeffs, basis))
            amps /= np.linalg.norm(amps)
            logical = sv.StateVector(code.n, amps)
            x, z = sample_batch(code.n, [(iid_xz(0.15, 0.15), seed, 0, trials)])
            syndromes, error_classes = code.parity_batch(x, z)
            classes, failed = decoder.decode_batch(syndromes)
            success = (error_classes == classes).all(axis=1) & ~failed
            assert success.any() and not success.all()
            for row in range(trials):
                corrupted = sv.apply_pauli(logical, _pauli_of_row(x[row], z[row]))
                syndrome, post = sv.extract_syndrome(code, corrupted)
                assert syndrome.value == int.from_bytes(syndromes[row].tobytes(), "little")
                recovered = sv.apply_pauli(post, decoder.decode_value(syndrome.value))
                restored = sv.fidelity(recovered, logical) > 1 - 1e-9
                assert restored == success[row]


class TestThresholdScan:
    def test_small_scan_structure(self):
        scan = threshold_scan([2, 3], [0.02, 0.08, 0.16, 0.24], 3000, 17)
        assert set(scan.reports) == {2, 3}
        assert scan.crossings and isinstance(scan.crossings[0], CrossingEstimate)
        assert 0.02 < scan.p_threshold < 0.24
        lines = scan.to_csv().strip().splitlines()
        assert lines[0] == "code,p,trials,failures,p_L,ci_low,ci_high"
        assert len(lines) == 1 + 2 * 4

    def test_ordering_below_threshold(self):
        scan = threshold_scan([2, 3], [0.02, 0.08, 0.16, 0.24], 3000, 17)
        low_2 = scan.reports[2].points[0].p_l
        low_3 = scan.reports[3].points[0].p_l
        assert low_3 < low_2

    def test_no_crossing_reported(self):
        with pytest.raises(ValueError, match="no crossing"):
            threshold_scan([3, 5], [0.01, 0.02], 500, 3)

    def test_floored_ties_are_not_crossings(self):
        def report(failures):
            points = [
                RatePoint(p, 500, f, f / 500, 0.0, 1.0, 0)
                for p, f in zip((0.01, 0.02, 0.03), failures)
            ]
            return SimulationReport("c", "mwpm", "iid_xz", 0, points)

        # Both curves at zero failures: a tie on the floor, at p0 or at p1.
        assert _pair_crossing(report([0, 5, 9]), report([0, 1, 2]), 3, 5) is None
        assert _pair_crossing(report([3, 5, 0]), report([1, 1, 0]), 3, 5) is None
        # A real reversal across a skipped floored tie is still found.
        cross = _pair_crossing(report([1, 0, 9]), report([3, 0, 4]), 3, 5)
        assert cross is not None and 0.01 < cross.p_cross < 0.03

    def test_benchmark_scan_golden(self):
        # The mwpm_threshold benchmark workload's scan at seed 123: a fixed
        # estimate and CSV, equal at one and two workers.
        grid = [0.07, 0.08, 0.09, 0.10, 0.11, 0.12]
        scans = [threshold_scan([3, 5, 7], grid, 600, 123, workers=w) for w in (1, 2)]
        for scan in scans:
            assert (scan.p_threshold, scan.sigma) == (0.09881742632234007, 0.0022504096601146783)
        assert scans[0].to_csv() == scans[1].to_csv()

    def test_report_json_bytes(self):
        # The JSON of a hand-built scan and of one report, byte for byte.  A
        # scan keys its reports by distance as text, so "11" sorts first.
        def report(lam):
            points = [
                RatePoint(p, 1000, f, f / 1000, *wilson_interval(f, 1000), lam + i, i, 2 * i)
                for i, (p, f) in enumerate(((0.05, 40), (0.1 + 0.2, 130)))
            ]
            return SimulationReport(f"surface_d{lam}", "mwpm", "iid_xz", lam, points, 1.25, "stabkit-x")

        reports = {lam: report(lam) for lam in (3, 5, 11)}
        crossings = [CrossingEstimate(3, 5, 0.097, 0.004), CrossingEstimate(5, 11, 0.1, 1e-3 / 3)]
        scan = montecarlo.ThresholdScan(reports, crossings, 0.0985, 0.003)
        assert list(json.loads(scan.to_json())["reports"]) == ["11", "3", "5"]
        text = scan.to_json() + reports[11].to_json()
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "749c94a5f0c093de13e07ad3b29861e2885e6e11ce58b4186216b4c417e959d8"

    def test_needs_two_distances(self):
        with pytest.raises(ValueError):
            threshold_scan([3], [0.05, 0.1], 100, 0)

    @pytest.mark.parametrize("distances", [[3, 3], [3, 5, 3]])
    def test_distances_must_be_distinct(self, distances):
        # A curve "crosses" itself anywhere, so [3, 3] used to report p_th = 0.05.
        with pytest.raises(ValueError, match="distinct"):
            threshold_scan(distances, [0.05, 0.08, 0.1], 200, 1)


def _pooled_calls(workers):
    code = library.surface_code(3)
    rep = sweep(code, MwpmDecoder(code), "iid_xz", [0.05, 0.08, 0.11], 700, 9, workers=workers)
    scan = threshold_scan([3, 5], [0.06, 0.09, 0.12, 0.15], 300, 9, workers=workers)
    return rep, scan


class TestPooledCalls:
    def test_multi_point_calls_are_worker_independent(self):
        def outputs(workers):
            rep, scan = _pooled_calls(workers)
            scan_points = [pt for r in scan.reports.values() for pt in r.points]
            return (
                rep.to_csv(),
                [pt.decoder_failures for pt in rep.points],
                scan.to_csv(),
                [pt.decoder_failures for pt in scan_points],
                scan.crossings,
                scan.p_threshold,
                scan.sigma,
            )

        first = outputs(1)
        for workers in (2, 3):
            assert outputs(workers) == first

    def test_one_pool_per_public_call(self, opened_pools):
        _pooled_calls(1)
        assert opened_pools == []
        _pooled_calls(2)
        # One pool for the sweep and one for the whole scan, two processes each.
        assert opened_pools == [2, 2]
        # 150 trials fit in one batch, so they run in-process.
        code = library.surface_code(7)
        small = [
            sweep(code, MwpmDecoder(code), "iid_xz", [0.01, 0.02, 0.03], 50, 4, workers=workers)
            for workers in (1, 2)
        ]
        assert opened_pools == [2, 2]
        assert small[0].to_csv() == small[1].to_csv()
        assert small[0].points == small[1].points

    def test_a_pool_shares_batches_between_points(self, opened_pools):
        # 6 x 700 trials on 2 workers are 4 batches of at most 1,050 rows,
        # not one task per point, and each point's counts are its own.
        code = library.surface_code(3)
        decoder = MwpmDecoder(code)
        p_values = [0.02, 0.04, 0.06, 0.08, 0.10, 0.12]
        pooled = sweep(code, decoder, "iid_xz", p_values, 700, 41, workers=2)
        assert (opened_pools, opened_pools.tasks) == ([2], [4])
        assert pooled.points == sweep(code, decoder, "iid_xz", p_values, 700, 41).points
        alone = [
            estimate_logical_rate(code, decoder, iid_xz(p, p), 700, derive_seed(41, index))
            for index, p in enumerate(p_values)
        ]
        assert pooled.points == alone
        assert opened_pools == [2]

    def test_one_batch_of_a_large_code_opens_a_pool(self, opened_pools):
        code = library.surface_code(13)
        decoder = MwpmDecoder(code)
        most = montecarlo._IN_PROCESS_QUBIT_TRIALS // code.n
        assert most < montecarlo._SLICE_TRIALS
        for trials in (most, most + 1):
            pooled = sweep(code, decoder, "iid_xz", [0.01], trials, 6, workers=2)
            assert pooled.points == sweep(code, decoder, "iid_xz", [0.01], trials, 6).points
        assert opened_pools == [2]
