import math
import random

import numpy as np
import pytest

from stabkit import code_library as library
from stabkit import statevector as sv
from stabkit.pauli import decompose_unitary, from_support, parse
from stabkit.statevector import (
    BlochAngles,
    apply_cnot,
    apply_controlled_pauli,
    apply_hadamard,
    apply_pauli,
    basis_state,
    bloch_rotation,
    coherent_error_collapse,
    encode_by_projection,
    extract_syndrome,
    fidelity,
    from_bloch,
    measure_qubit,
)

SMALL_CODES = [
    library.two_qubit(),
    library.three_qubit_bitflip(),
    library.three_qubit_phaseflip(),
    library.four_two_two(),
    library.shor_nine(),
    library.four_cycle(),
    library.surface_code(2),
]


class TestStates:
    def test_basis_state_ordering(self):
        state = basis_state(2, "01")
        assert np.allclose(state.amplitudes, [0, 1, 0, 0])

    def test_from_bloch_poles(self):
        assert np.allclose(from_bloch(BlochAngles(0.0, 1.3)).amplitudes, [1, 0])
        assert np.allclose(from_bloch(BlochAngles(math.pi, 0.0)).amplitudes, [0, 1], atol=1e-12)

    def test_from_bloch_general(self):
        theta, phi = 1.1, 0.7
        state = from_bloch(BlochAngles(theta, phi))
        assert np.isclose(state.amplitudes[0], math.cos(theta / 2))
        assert np.isclose(state.amplitudes[1], np.exp(1j * phi) * math.sin(theta / 2))
        assert np.isclose(state.norm(), 1.0)

    def test_bloch_rotation_shifts_angles(self):
        theta, dtheta, dphi = 0.9, 0.4, 1.2
        moved = sv.apply_matrix(from_bloch(BlochAngles(theta, 0.0)), bloch_rotation(dtheta, dphi), 1)
        target = from_bloch(BlochAngles(theta + dtheta, dphi))
        assert fidelity(moved, target) > 1 - 1e-12

    def test_bad_bitstring(self):
        with pytest.raises(ValueError):
            basis_state(2, "012")


class TestGates:
    def test_hadamard_on_zero(self):
        state = apply_hadamard(basis_state(1, "0"), 1)
        assert np.allclose(state.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_x1z1_on_general_state(self):
        alpha, beta = 0.6, 0.8
        state = sv.StateVector(1, np.array([alpha, beta], dtype=complex))
        state = apply_pauli(state, parse("Z"))
        state = apply_pauli(state, parse("X"))
        assert np.allclose(state.amplitudes, [-beta, alpha])

    def test_cnot_truth_table(self):
        state = apply_cnot(basis_state(2, "10"), 1, 2)
        assert np.allclose(state.amplitudes, basis_state(2, "11").amplitudes)
        state = apply_cnot(basis_state(2, "01"), 1, 2)
        assert np.allclose(state.amplitudes, basis_state(2, "01").amplitudes)

    def test_controlled_pauli(self):
        # control |1>: X applied to the data qubit
        state = basis_state(2, "10")
        state = apply_controlled_pauli(state, 1, parse("X"), targets=[2])
        assert np.allclose(state.amplitudes, basis_state(2, "11").amplitudes)

    def test_pauli_matches_dense_matrix(self):
        from conftest import dense_matrix

        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 5)
            p = parse("".join(rng.choice("IXYZ") for _ in range(n)))
            amps = np.array([rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(1 << n)])
            amps /= np.linalg.norm(amps)
            got = apply_pauli(sv.StateVector(n, amps), p).amplitudes
            want = dense_matrix(p) @ amps
            assert np.allclose(got, want, atol=1e-12)

    def test_unitarity_random_circuits(self):
        rng = random.Random(4)
        for n in (2, 5, 8):
            state = basis_state(n, "0" * n)
            for _ in range(50):
                kind = rng.choice(("H", "P", "CNOT"))
                if kind == "H":
                    state = apply_hadamard(state, rng.randint(1, n))
                elif kind == "P":
                    q = rng.randint(1, n)
                    state = apply_pauli(state, from_support(n, [(q, rng.choice("XYZ"))]))
                else:
                    c, t = rng.sample(range(1, n + 1), 2)
                    state = apply_cnot(state, c, t)
            assert abs(state.norm() - 1.0) < 1e-10


class TestMeasurement:
    def test_plus_state_probabilities(self):
        state = apply_hadamard(basis_state(1, "0"), 1)
        counts = [0, 0]
        for seed in range(200):
            outcome, _, prob = measure_qubit(state, 1, rng=random.Random(seed))
            counts[outcome] += 1
            assert np.isclose(prob, 0.5)
        assert 60 < counts[1] < 140

    def test_deterministic_one(self):
        outcome, post, prob = measure_qubit(basis_state(1, "1"), 1)
        assert outcome == 1 and prob == pytest.approx(1.0)
        assert np.allclose(post.amplitudes, [0, 1])

    def test_forcing_impossible_outcome(self):
        with pytest.raises(ValueError):
            measure_qubit(basis_state(1, "0"), 1, forced=1)

    def test_nondeterministic_without_rng(self):
        state = apply_hadamard(basis_state(1, "0"), 1)
        with pytest.raises(ValueError):
            measure_qubit(state, 1)

    def test_collapse_renormalizes(self):
        state = apply_hadamard(basis_state(2, "00"), 1)
        outcome, post, prob = measure_qubit(state, 1, forced=1)
        assert outcome == 1 and np.isclose(prob, 0.5)
        assert np.isclose(post.norm(), 1.0)


class TestEncodeByProjection:
    def test_four_two_two_codeword(self):
        state = encode_by_projection(library.four_two_two())
        expected = np.zeros(16, dtype=complex)
        expected[0b0000] = expected[0b1111] = 1 / math.sqrt(2)
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-10

    def test_two_qubit_codeword(self):
        state = encode_by_projection(library.two_qubit())
        assert fidelity(state, basis_state(2, "00")) > 1 - 1e-12

    def test_shor_codeword(self):
        state = encode_by_projection(library.shor_nine())
        expected = np.zeros(512, dtype=complex)
        for b1 in (0, 7):
            for b2 in (0, 7):
                for b3 in (0, 7):
                    expected[(b1 << 6) | (b2 << 3) | b3] = 1 / math.sqrt(8)
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-10

    def test_stabilizer_fixed_point(self):
        for code in SMALL_CODES:
            state = encode_by_projection(code)
            for g in code.generators:
                assert fidelity(apply_pauli(state, g), state) > 1 - 1e-10
            for xbar, zbar in code.logicals:
                assert fidelity(apply_pauli(state, zbar), state) > 1 - 1e-10

    def test_output_independent_of_measurement_record(self):
        for code in (library.four_two_two(), library.shor_nine(), library.surface_code(2)):
            reference = encode_by_projection(code)
            for seed in range(5):
                again = encode_by_projection(code, rng=random.Random(seed))
                assert fidelity(reference, again) > 1 - 1e-10


class TestExtractSyndrome:
    def test_two_qubit_deterministic_flag(self):
        code = library.two_qubit()
        alpha, beta = 0.6, 0.8j
        zero_l = encode_by_projection(code)
        one_l = apply_pauli(zero_l, code.logicals[0][0])
        logical = sv.StateVector(2, alpha * zero_l.amplitudes + beta * one_l.amplitudes)
        corrupted = apply_pauli(logical, parse("XI"))
        syndrome, post = extract_syndrome(code, corrupted)
        assert str(syndrome) == "1"
        assert fidelity(post, corrupted) > 1 - 1e-10  # alpha, beta undisturbed

    def test_uncorrupted_state_unchanged(self):
        for code in SMALL_CODES:
            state = encode_by_projection(code)
            syndrome, post = extract_syndrome(code, state)
            assert syndrome.is_zero
            assert fidelity(post, state) > 1 - 1e-10

    def test_matches_commutation_syndromes_weight_one(self):
        for code in SMALL_CODES:
            state = encode_by_projection(code)
            for q in range(1, code.n + 1):
                for letter in "XYZ":
                    error = from_support(code.n, [(q, letter)])
                    corrupted = apply_pauli(state, error)
                    syndrome, _ = extract_syndrome(code, corrupted)
                    assert syndrome == code.syndrome(error)

    def test_forced_outcomes(self):
        code = library.four_two_two()
        plus = basis_state(4, "0000")
        syndrome, _ = extract_syndrome(code, plus, forced=[0, 0])
        assert syndrome.is_zero


class TestCoherentCollapse:
    def test_zero_rate(self):
        keep, discard, p_l = coherent_error_collapse(library.two_qubit(), 0.0)
        assert p_l == pytest.approx(0.0, abs=1e-12)
        assert keep == pytest.approx(1.0)

    def test_closed_form_at_p01(self):
        keep, discard, p_l = coherent_error_collapse(library.two_qubit(), 0.1)
        assert p_l == pytest.approx(0.01 / 0.82, abs=1e-9)
        assert keep == pytest.approx(0.82, abs=1e-9)
        assert discard == pytest.approx(0.18, abs=1e-9)

    def test_small_p_quadratic_suppression(self):
        ratios = []
        for p in (1e-2, 1e-3, 1e-4):
            _, _, p_l = coherent_error_collapse(library.two_qubit(), p)
            ratios.append(p_l / p**2)
        assert abs(ratios[-1] - 1.0) < 1e-3
        assert abs(ratios[0] - 1.0) > abs(ratios[-1] - 1.0)  # converges as p -> 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            coherent_error_collapse(library.two_qubit(), 1.5)

    @pytest.mark.parametrize("p", [0.01, 0.1, 0.3])
    @pytest.mark.parametrize("code", SMALL_CODES, ids=lambda code: code.name)
    def test_every_code_stays_normalised(self, code, p):
        # The error is a rotation, so the state stays on the unit sphere even
        # where |0>_L has X-type stabilizers (four_two_two, shor_nine, surface_d2).
        keep, discard, p_l = coherent_error_collapse(code, p)
        assert 0.0 < keep <= 1.0 and keep + discard == pytest.approx(1.0)
        assert 0.0 <= p_l <= 1.0

    def test_an_impossible_zero_syndrome_keeps_nothing(self):
        # At p_x = 1 every qubit of surface_d2 is flipped, and its weight-3
        # Z-checks read 1.  At p_x = .5 the four-cycle's state |Φ+> becomes
        # (I - iX1 - iX2 - X1 X2)|Φ+>/2 = -iX1|Φ+>, on which Z1 Z2 reads 1.
        assert coherent_error_collapse(library.surface_code(2), 1.0) == (0.0, 1.0, 0.0)
        assert coherent_error_collapse(library.four_cycle(), 0.5) == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize("p", [0.01, 0.1, 0.3])
    def test_four_two_two_closed_form(self, p):
        # |0>_L = (|0000> + |1111>)/√2, and a weight-w X term carries
        # (-i)^w sin^w θ cos^(4-w) θ.  Weight 4 is the stabilizer XXXX, so it
        # adds to weight 0: amplitude (1-p)² + p².  The six weight-2 terms
        # pair into three logical classes of amplitude -2p(1-p) each; odd
        # weights flip ZZZZ and are discarded.
        good, bad = ((1 - p) ** 2 + p**2) ** 2, 3 * (2 * p * (1 - p)) ** 2
        keep, _, p_l = coherent_error_collapse(library.four_two_two(), p)
        assert keep == pytest.approx(good + bad, abs=1e-12)
        assert p_l == pytest.approx(bad / (good + bad), abs=1e-12)


class TestFidelityAndDump:
    def test_trivials(self):
        zero = basis_state(1, "0")
        one = basis_state(1, "1")
        plus = apply_hadamard(zero, 1)
        assert fidelity(zero, zero) == pytest.approx(1.0)
        assert fidelity(zero, one) == pytest.approx(0.0)
        assert fidelity(plus, zero) == pytest.approx(0.5)


class TestDigitisationDemo:
    def test_rotation_decomposes_into_pauli_sum(self):
        u = bloch_rotation(0.3, 0.9)
        c = decompose_unitary(u)
        assert np.max(np.abs(c.reconstruct() - u)) < 1e-12
        assert abs(c.alpha_xz - 1j * c.alpha_y) < 1e-15
