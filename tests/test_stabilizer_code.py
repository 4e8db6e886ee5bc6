import dataclasses
import hashlib
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import code_library as library
from stabkit import stabilizer_code
from stabkit.pauli import PauliOperator, commutes, from_support, identity, multiply, parse
from stabkit.stabilizer_code import (
    StabilizerCode,
    Syndrome,
    correctable_weight,
    distance,
)

from conftest import xz_rows

ALL_CODES = [
    library.two_qubit(),
    library.three_qubit_bitflip(),
    library.three_qubit_phaseflip(),
    library.four_two_two(),
    library.shor_nine(),
    library.four_cycle(),
    library.surface_code(2),
    library.surface_code(3),
]


def random_pauli(n, rng):
    return parse("".join(rng.choice("IXYZ") for _ in range(n)))


class TestValidate:
    def test_three_qubit_minimal_set_passes(self):
        assert library.three_qubit_bitflip().validate().ok

    def test_dependent_set_rejected(self):
        bad = StabilizerCode(
            name="dependent",
            n=3,
            k=0,
            generators=(parse("ZZI"), parse("IZZ"), parse("Z1 Z3", n=3)),
            logicals=(),
        )
        report = bad.validate()
        assert not report.ok
        assert any("product of earlier generators" in p for p in report.problems)

    def test_four_two_two_logicals_pass(self):
        assert library.four_two_two().validate().ok

    def test_anticommuting_generators_flagged(self):
        bad = StabilizerCode("bad", 2, 0, (parse("XI"), parse("ZI")), ())
        report = bad.validate()
        assert any("anti-commute" in p for p in report.problems)

    def test_logical_inside_span_flagged(self):
        bad = StabilizerCode(
            "bad", 2, 1, (parse("ZZ"),), ((parse("XX"), parse("ZZ")),)
        )
        report = bad.validate()
        assert any("stabilizer span" in p for p in report.problems)

    @pytest.mark.parametrize(
        "generators, logical, problem",
        [
            (("ZZI", "ZZZZ"), ("XXX", "ZII"), "generator 2 acts on 4 qubits, code has 3"),
            (("ZZI", "IZZ"), ("XXXX", "ZII"), "logical X1 acts on 4 qubits, code has 3"),
        ],
        ids=["generator", "logical"],
    )
    def test_an_operator_of_the_wrong_size_is_a_problem(self, generators, logical, problem):
        # Used to raise from `commutes` before the size problem was reported.
        logicals = (tuple(map(parse, logical)),)
        bad = StabilizerCode("bad", 3, 1, tuple(map(parse, generators)), logicals)
        report = bad.validate()
        assert not report.ok
        assert problem in report.problems

    def test_an_operator_past_the_code_s_last_word_is_a_problem(self):
        # X on qubit 33 is bit 64 of its check row, past a 32-qubit code's
        # one 64-bit word: the code must still build, so that this is reported.
        logicals = ((parse("X1", n=32), parse("Z1", n=32)),)
        bad = StabilizerCode("bad", 32, 31, (parse("X33", n=33),), logicals)
        assert "generator 1 acts on 33 qubits, code has 32" in bad.validate().problems

    def test_only_a_logical_pair_may_anti_commute(self):
        # X̄_i and Z̄_i must anti-commute; any other pair of generators and
        # logicals must commute.
        good = (parse("XXX"), parse("ZII"))
        cases = [
            (((parse("XXX"), parse("ZIZ")),), "logical X1 and logical Z1 commute"),
            (((parse("XII"), parse("ZII")),), "generator 1 and logical X1 anti-commute"),
            ((good, (parse("XXX"), parse("IIZ"))), "logical X1 and logical Z2 anti-commute"),
        ]
        for logicals, problem in cases:
            bad = StabilizerCode("bad", 3, len(logicals), (parse("ZZI"), parse("IZZ")), logicals)
            assert problem in bad.validate().problems

    def test_declared_distance_cross_check(self):
        code = library.three_qubit_bitflip()
        assert code.validate(distance_max_weight=3).ok
        wrong = StabilizerCode(
            code.name, code.n, code.k, code.generators, code.logicals, declared_distance=3
        )
        report = wrong.validate(distance_max_weight=3)
        assert any("declared distance" in p for p in report.problems)


class TestSyndrome:
    def test_three_qubit_x2(self):
        code = library.three_qubit_bitflip()
        assert str(code.syndrome(parse("IXI"))) == "11"

    def test_identity_error(self):
        for code in ALL_CODES:
            assert code.syndrome(identity(code.n)).is_zero

    def test_shor_z2(self):
        assert str(library.shor_nine().syndrome(parse("Z2", n=9))) == "00000010"

    def test_four_two_two_y3(self):
        assert str(library.four_two_two().syndrome(parse("Y3", n=4))) == "11"

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            library.two_qubit().syndrome(identity(3))

    def test_linearity(self):
        rng = random.Random(5)
        for code in ALL_CODES:
            for _ in range(200):
                e1 = random_pauli(code.n, rng)
                e2 = random_pauli(code.n, rng)
                combined = code.syndrome_value(multiply(e1, e2))
                assert combined == code.syndrome_value(e1) ^ code.syndrome_value(e2)

    def test_syndrome_roundtrip_forms(self):
        s = Syndrome.from_string("0110")
        assert s.value == 0b0110 >> 0 and str(s) == "0110"
        assert Syndrome.from_int(s.value, 4) == s

    @pytest.mark.parametrize("value, m", [(5, 2), (4, 2), (-1, 3), (1, 0)])
    def test_from_int_rejects_a_value_past_m_bits(self, value, m):
        # 5 in 2 bits used to come back as "10", whose value is 1.
        with pytest.raises(ValueError, match="not in"):
            Syndrome.from_int(value, m)
        assert str(Syndrome.from_int(3, 2)) == "11" and Syndrome.from_int(0, 0).bits == ()


class TestMembership:
    def test_shor_z1z2(self):
        assert library.shor_nine().in_stabilizer_group(parse("Z1 Z2", n=9))

    def test_identity_always_member(self):
        for code in ALL_CODES:
            assert code.in_stabilizer_group(identity(code.n))

    def test_three_qubit_logical_not_member(self):
        assert not library.three_qubit_bitflip().in_stabilizer_group(parse("XXX"))

    def test_stabilizer_elements_have_zero_syndrome(self):
        rng = random.Random(9)
        for code in ALL_CODES:
            for _ in range(50):
                element = identity(code.n)
                for g in code.generators:
                    if rng.random() < 0.5:
                        element = multiply(element, g)
                assert code.syndrome(element).is_zero
                assert code.in_stabilizer_group(element)


class TestResidualClass:
    def test_shor_degenerate_success(self):
        # decoder answers Z1 for the Z2 error; the residual is a stabilizer
        code = library.shor_nine()
        residual = multiply(parse("Z1", n=9), parse("Z2", n=9))
        rc = code.residual_class(residual)
        assert rc.success and rc.verdict == "Success"

    def test_three_qubit_logical_failure(self):
        code = library.three_qubit_bitflip()
        rc = code.residual_class(parse("XXX"))
        assert not rc.success
        assert rc.verdict == "LogicalFailure"
        assert rc.logical_classes == ("X",)

    def test_identity_residual(self):
        for code in ALL_CODES:
            assert code.residual_class(identity(code.n)).success

    def test_nonzero_syndrome_rejected(self):
        with pytest.raises(ValueError):
            library.three_qubit_bitflip().residual_class(parse("XII"))

    def test_classes_are_the_commutation_rule(self):
        # Qubit i's letter gets X where the residual anti-commutes with Z̄_i
        # and Z where it anti-commutes with X̄_i; four_two_two pins the order
        # of its two qubits.
        rng = random.Random(23)
        for code in ALL_CODES:
            for _ in range(20):
                residual = random_member(code, rng)
                for pair in code.logicals:
                    for p in pair:
                        if rng.random() < 0.5:
                            residual = multiply(residual, p)
                expect = tuple(
                    "IXZY"[(not commutes(residual, zbar)) + 2 * (not commutes(residual, xbar))]
                    for xbar, zbar in code.logicals
                )
                assert code.residual_class(residual).logical_classes == expect

    def test_invariant_under_stabilizer_multiplication(self):
        rng = random.Random(17)
        for code in ALL_CODES:
            if not code.logicals:
                continue
            xbar, zbar = code.logicals[0]
            for logical in (xbar, zbar, multiply(xbar, zbar)):
                base = code.residual_class(logical)
                for g in code.generators:
                    shifted = code.residual_class(multiply(logical, g))
                    assert shifted.logical_classes == base.logical_classes
                    assert shifted.success == base.success


def random_member(code, rng):
    op = identity(code.n)
    for g in code.generators:
        if rng.random() < 0.5:
            op = multiply(op, g)
    return op


class TestBatch:
    # Shor's checks have widths 2 and 6, four_cycle has no logicals (k = 0),
    # and surface d15's 7-word syndromes come from checks of width 2-4 and
    # logicals of width 15.
    @pytest.mark.parametrize(
        "code",
        ALL_CODES + [library.surface_code(5), library.surface_code(7), library.surface_code(15)],
        ids=lambda code: code.name,
    )
    def test_batch_syndrome_and_classify_match_scalar(self, code):
        rng = random.Random(43)
        ops = []
        for _ in range(40):
            member = random_member(code, rng)
            ops += [member, random_pauli(code.n, rng)]
            # Zero syndrome but a logical class: only the logical parities see it.
            ops += [multiply(member, rng.choice(pair)) for pair in code.logicals]
        syndromes, classes = code.parity_batch(*xz_rows(code.n, ops))
        assert syndromes.shape == (len(ops), -(-code.m // 64)) and syndromes.dtype == "<u8"
        for op, row in zip(ops, syndromes):
            assert int.from_bytes(row.tobytes(), "little") == code.syndrome_value(op)
        logicals = [p for pair in code.logicals for p in pair]
        for op, row in zip(ops, classes):
            assert list(row) == [not commutes(op, logical) for logical in logicals]
        # Zero syndrome and no logical bit set is stabilizer-group membership.
        success = ~syndromes.any(axis=1) & ~classes.any(axis=1)
        assert list(success) == [code.in_stabilizer_group(op) for op in ops]
        assert success.any() and not success.all()

    @pytest.mark.parametrize("columns", [0, 1, 7, 63, 64, 65, 130])
    @pytest.mark.parametrize("rows", [0, 1, 5])
    def test_pack_bits_matches_a_per_row_reference(self, columns, rows):
        bits = np.random.default_rng(columns * 10 + rows).random((rows, columns)) < 0.5
        bits[:, -1:] = True  # the last column lands on its word's top or first bit
        need = -(-columns // 64)
        for words in (need, need + 1):
            packed = stabilizer_code._pack_bits(words, bits)
            assert packed.shape == (rows, words) and packed.dtype == np.dtype("<u8")
            for row, out in zip(bits, packed):
                expect = sum(int(b) << j for j, b in enumerate(row))
                assert sum(int(w) << 64 * i for i, w in enumerate(out)) == expect


# Every registered code (four_cycle has k = 0, four_two_two k = 2) and the
# surface codes up to d9.
CHECK_MATRIX_NAMES = library.registered_names() + [f"surface_d{d}" for d in range(4, 10)]


def walked_supports(code):
    """`_supports` as the walk over each check row's set bits that built
    them lazily before they were built with the code: the oracle."""
    tables = []
    for rows in (code._check_rows[: code.m], code._check_rows[code.m :]):
        width = max((row.bit_count() for row in rows), default=0)
        table = [[2 * code.n] * width for _ in rows]
        for support, row in zip(table, rows):
            for j in range(row.bit_count() - 1, -1, -1):
                support[j] = row.bit_length() - 1
                row ^= 1 << support[j]
        tables.append(np.array(table, dtype=np.intp).reshape(len(rows), width))
    return tables


def generator_rule(code, op):
    """Syndrome of one operator, generator by generator, from the operators'
    own bits: the rule `syndrome_value` used before it read the check rows."""
    v = 0
    for i, g in enumerate(code.generators):
        if (g.x_bits & op.z_bits).bit_count() + (g.z_bits & op.x_bits).bit_count() & 1:
            v |= 1 << i
    return v


class TestCheckMatrix:
    @pytest.mark.parametrize("name", CHECK_MATRIX_NAMES)
    def test_built_with_the_code_and_kept_by_a_pickle(self, name):
        code = library.get_code(name)
        tables = ("_check_rows", "_supports")
        assert all(t in vars(code) for t in tables)
        clone = pickle.loads(pickle.dumps(code))
        assert all(t in vars(clone) for t in tables)
        assert clone._check_rows == code._check_rows
        assert all(np.array_equal(a, b) for a, b in zip(clone._supports, code._supports))
        # Not fields: equality, repr and asdict read only the definition.
        assert clone == code and "_supports" not in repr(code)
        assert [f.name for f in dataclasses.fields(code)] == list(dataclasses.asdict(code)) == [
            "name", "n", "k", "generators", "logicals", "declared_distance",
        ]

    @pytest.mark.parametrize("name", CHECK_MATRIX_NAMES)
    def test_parity_batch_matches_the_walked_supports(self, name):
        code = library.get_code(name)
        walked = pickle.loads(pickle.dumps(code))
        walked._supports = walked_supports(code)
        for mine, oracle in zip(code._supports, walked._supports):
            assert mine.shape == oracle.shape
            assert np.array_equal(np.sort(mine, axis=1), np.sort(oracle, axis=1))
        rng = np.random.default_rng(len(name))
        x, z = rng.random((2, 300, code.n)) < rng.random((2, 300, 1))
        for got, expect in zip(code.parity_batch(x, z), walked.parity_batch(x, z)):
            assert np.array_equal(got, expect)

    def test_set_bits_are_the_set_bits_row_major(self):
        # Rows of 1-4 words, zero words and all-zero rows included: (row,
        # rank in its row, column) of every set bit, rows ascending, columns
        # ascending within a row.
        rng = random.Random(9)
        for words in (1, 2, 4):
            values = [0, (1 << 64 * words) - 1] + [
                sum(1 << j for j in rng.sample(range(64 * words), rng.randint(0, 9))) for _ in range(60)
            ]
            expect = [
                (r, rank, c)
                for r, v in enumerate(values)
                for rank, c in enumerate(j for j in range(64 * words) if v >> j & 1)
            ]
            found = stabilizer_code._set_bits(stabilizer_code._pack_ints(values, words))
            assert list(zip(*(a.tolist() for a in found))) == expect

    def test_the_build_stays_small_at_d30(self):
        # The supports come from the set bits alone: building a d30 code
        # (1,741 qubits) traced a 8.3 MB peak when every check row was
        # unpacked to a byte per bit, for about 1 MB kept.
        base = library.surface_code(30)
        tracemalloc.start()
        try:
            StabilizerCode(base.name, base.n, base.k, base.generators, base.logicals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    @pytest.mark.parametrize("name", library.registered_names() + ["surface_d5"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_syndrome_value_is_the_generator_rule_and_the_batch_syndrome(self, name, data):
        code = library.get_code(name)
        bits = st.integers(min_value=0, max_value=(1 << code.n) - 1)
        ops = [PauliOperator(code.n, data.draw(bits), data.draw(bits)) for _ in range(4)]
        syndromes, _ = code.parity_batch(*xz_rows(code.n, ops))
        for op, row in zip(ops, syndromes):
            value = int.from_bytes(row.tobytes(), "little")
            assert code.syndrome_value(op) == generator_rule(code, op) == value


class TestPureErrors:
    @pytest.mark.parametrize(
        "code",
        ALL_CODES + [library.surface_code(4), library.surface_code(5)],
        ids=lambda code: code.name,
    )
    def test_each_flips_its_generator_alone_and_commutes_with_logicals(self, code):
        assert len(code.pure_errors) == code.m
        logicals = [p for pair in code.logicals for p in pair]
        for i, error in enumerate(code.pure_errors):
            assert code.syndrome_value(error) == 1 << i
            assert all(commutes(error, logical) for logical in logicals)

    def test_digest(self):
        # The pure errors are the unique right inverse on the pivot columns,
        # so any correct elimination gives exactly these operators.
        names = library.registered_names() + ["surface_d4", "surface_d5", "surface_d7"]
        text = "".join(
            f"{name} {i} {p}\n"
            for name in names
            for i, p in enumerate(library.get_code(name).pure_errors)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "dfef75408c307acdba0f293c12d0216339db73dce618120436ef41a324348c24"
        )

    def test_duplicated_generator_rejected(self):
        code = library.three_qubit_bitflip()
        duplicated = StabilizerCode(
            name="duplicated",
            n=3,
            k=1,
            generators=code.generators + code.generators[:1],
            logicals=code.logicals,
        )
        with pytest.raises(ValueError):
            duplicated.pure_errors


class TestDistance:
    def test_four_two_two(self):
        assert distance(library.four_two_two(), 4) == 2

    def test_three_qubit_bitflip(self):
        assert distance(library.three_qubit_bitflip(), 3) == 1

    def test_surface_d3(self):
        assert distance(library.surface_code(3), 3) == 3

    def test_shor(self):
        assert distance(library.shor_nine(), 4) == 3

    def test_two_qubit_quantum_vs_detection(self):
        # The weight-1 logical Z makes the unrestricted search return 1; the
        # bit-flip detection distance is 2.
        code = library.two_qubit()
        assert distance(code, 2) == 1
        assert distance(code, 2, letters=("X",)) == 2

    def test_greater_than_max_weight(self):
        assert distance(library.shor_nine(), 2) is None

    def test_four_cycle_has_no_logicals(self):
        assert distance(library.four_cycle(), 2) is None

    def test_declared_distances_match_search(self):
        for code in ALL_CODES:
            if code.declared_distance is not None:
                assert distance(code, code.n) == code.declared_distance

    def test_guard_counts_candidates_through_each_weight(self, monkeypatch):
        # Shor weights 1-3: 9*3 + 36*9 + 84*27 = 2,619 candidate Paulis.
        monkeypatch.setattr(stabilizer_code, "DISTANCE_SEARCH_GUARD", 2619)
        assert distance(library.shor_nine(), 9) == 3
        monkeypatch.setattr(stabilizer_code, "DISTANCE_SEARCH_GUARD", 2618)
        with pytest.raises(ValueError, match="weight 3 tries 2,619 Paulis"):
            distance(library.shor_nine(), 9)
        # Letters restrict the count: X-only weights 1-3 are 9 + 36 + 84.
        monkeypatch.setattr(stabilizer_code, "DISTANCE_SEARCH_GUARD", 129)
        assert distance(library.shor_nine(), 3, letters=("X",)) == 3

    def test_default_guard(self):
        # surface_d7 passes 2e6 candidates at weight 3 (2,699,175 in all).
        assert stabilizer_code.DISTANCE_SEARCH_GUARD == 2_000_000
        with pytest.raises(ValueError, match="weight 3 tries 2,699,175 Paulis"):
            distance(library.surface_code(7), 3)


class TestCorrectableWeight:
    def test_d3(self):
        assert correctable_weight(3) == 1

    def test_d1(self):
        assert correctable_weight(1) == 0

    def test_d5(self):
        assert correctable_weight(5) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            correctable_weight(0)
