import itertools

import pytest

from stabkit import code_library as library
from stabkit.code_library import get_code, registered_names, surface_code
from stabkit.pauli import format_sparse, parse
from stabkit.stabilizer_code import distance

BUILTINS = [
    library.two_qubit(),
    library.three_qubit_bitflip(),
    library.three_qubit_phaseflip(),
    library.four_two_two(),
    library.shor_nine(),
    library.four_cycle(),
    surface_code(2),
    surface_code(3),
]


def checks(lam):
    """(kind, support bit mask) of each surface-code generator, in order."""
    return [("Z" if g.z_bits else "X", g.x_bits | g.z_bits) for g in surface_code(lam).generators]


class TestConstructors:
    def test_every_builtin_validates(self):
        for code in BUILTINS:
            report = code.validate()
            assert report.ok, (code.name, report.problems)

    def test_two_qubit_golden(self):
        code = library.two_qubit()
        assert [format_sparse(g) for g in code.generators] == ["Z1 Z2"]
        assert format_sparse(code.logicals[0][0]) == "X1 X2"
        assert format_sparse(code.logicals[0][1]) == "Z1"
        assert str(code.syndrome(parse("XI"))) == "1"
        assert str(code.syndrome(parse("XX"))) == "0"

    def test_three_qubit_syndrome_table(self):
        code = library.three_qubit_bitflip()
        table = {
            "III": "00", "XII": "10", "IXI": "11", "IIX": "01",
            "XXI": "01", "IXX": "10", "XIX": "11", "XXX": "00",
        }
        for text, expected in table.items():
            assert str(code.syndrome(parse(text))) == expected

    def test_phaseflip_is_hadamard_conjugate(self):
        code = library.three_qubit_phaseflip()
        assert [format_sparse(g) for g in code.generators] == ["X1 X2", "X2 X3"]
        assert str(code.syndrome(parse("Z2", n=3))) == "11"

    def test_four_two_two_table_order(self):
        code = library.four_two_two()
        assert str(code.syndrome(parse("X1", n=4))) == "10"
        assert str(code.syndrome(parse("Z4", n=4))) == "01"
        assert distance(code, 4) == 2

    def test_four_cycle(self):
        code = library.four_cycle()
        assert code.k == 0 and code.logicals == ()
        assert code.validate().ok
        assert str(code.syndrome(parse("XI"))) == "01"
        assert str(code.syndrome(parse("II"))) == "00"


class TestShorConcatenation:
    def test_generators_match_published_list(self):
        gens = [format_sparse(g) for g in library.shor_nine().generators]
        assert gens == [
            "Z1 Z2", "Z2 Z3", "Z4 Z5", "Z5 Z6", "Z7 Z8", "Z8 Z9",
            "X1 X2 X3 X4 X5 X6", "X4 X5 X6 X7 X8 X9",
        ]

    def test_syndrome_x5(self):
        assert str(library.shor_nine().syndrome(parse("X5", n=9))) == "00110000"

    def test_degenerate_z_block(self):
        code = library.shor_nine()
        assert str(code.syndrome(parse("Z7", n=9))) == "00000001"
        assert str(code.syndrome(parse("Z8", n=9))) == "00000001"

    def test_logical_weights(self):
        xbar, zbar = library.shor_nine().logicals[0]
        assert {format_sparse(xbar), format_sparse(zbar)} == {"Z1 Z4 Z7", "X1 X2 X3"}


class TestSurfaceCode:
    def test_d2_generators_match_published_list(self):
        gens = [format_sparse(g) for g in surface_code(2).generators]
        assert gens == ["X1 X2 X3", "Z1 Z3 Z4", "Z2 Z3 Z5", "X3 X4 X5"]

    def test_d2_logicals(self):
        xbar, zbar = surface_code(2).logicals[0]
        assert format_sparse(xbar) == "X1 X4"
        assert format_sparse(zbar) == "Z1 Z2"

    def test_d3_parameters_and_logicals(self):
        code = surface_code(3)
        assert code.n == 13 and code.k == 1
        xbar, zbar = code.logicals[0]
        assert format_sparse(xbar) == "X1 X6 X11"
        assert format_sparse(zbar) == "Z1 Z2 Z3"

    def test_d5_qubit_count(self):
        assert surface_code(5).n == 41

    def test_parameter_family(self):
        for lam in (2, 3, 4, 5):
            code = surface_code(lam)
            assert code.n == lam**2 + (lam - 1) ** 2
            assert code.m == 2 * lam * (lam - 1)
            assert code.k == 1

    def test_lambda_below_two_rejected(self):
        with pytest.raises(ValueError):
            surface_code(1)

    def test_check_weights(self):
        for lam in (2, 3, 4):
            weights = {support.bit_count() for _, support in checks(lam)}
            if lam == 2:
                assert weights <= {2, 3}
            assert weights <= {2, 3, 4}

    def test_check_overlaps_even(self):
        for lam in (2, 3):
            for (ka, a), (kb, b) in itertools.combinations(checks(lam), 2):
                if ka != kb:
                    assert (a & b).bit_count() % 2 == 0

    def test_adjacent_check_overlap_zero_or_two(self):
        for lam in (2, 3):
            for (ka, a), (kb, b) in itertools.combinations(checks(lam), 2):
                shared = (a & b).bit_count()
                assert shared in (0, 1, 2)
                if ka != kb:
                    assert shared in (0, 2)

    def test_data_numbering_row_major(self):
        # Data qubits and checks both run row-major over the 5 x 5 grid.
        gens = [format_sparse(g) for g in surface_code(3).generators]
        assert gens == [
            "X1 X2 X4", "X2 X3 X5", "Z1 Z4 Z6", "Z2 Z4 Z5 Z7", "Z3 Z5 Z8",
            "X4 X6 X7 X9", "X5 X7 X8 X10", "Z6 Z9 Z11", "Z7 Z9 Z10 Z12", "Z8 Z10 Z13",
            "X9 X11 X12", "X10 X12 X13",
        ]

    def test_distance_by_search(self):
        assert distance(surface_code(2), 2) == 2
        assert distance(surface_code(3), 3) == 3


class TestRegistry:
    def test_names(self):
        names = registered_names()
        for expected in (
            "two_qubit",
            "three_qubit_bitflip",
            "three_qubit_phaseflip",
            "four_two_two",
            "shor_nine",
            "four_cycle",
            "surface_d2",
            "surface_d3",
        ):
            assert expected in names

    def test_get_code_dynamic_surface(self):
        assert get_code("surface_d4").n == 25

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_code("steane")
