"""Dense-amplitude circuit oracle, independent of the symplectic machinery.

Basis ordering follows the left-to-right qubit labelling: qubit 1 is the
most significant bit of the amplitude index, so ``basis_state(2, "01")``
puts amplitude 1 at index 0b01.  All qubit arguments are 1-based.

Syndrome extraction is the phase-kickback circuit: adjoin an ancilla in
|0>, H on the ancilla, generator controlled on the ancilla, H again,
measure, discard.  The two measurement branches are exactly the (1 ± P)/2
projections of the data register, so a single reused ancilla bounds memory
at 2^(n+1) amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pauli import PauliOperator
from .stabilizer_code import StabilizerCode, Syndrome

MAX_QUBITS = 16
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_PHASES = (1, 1j, -1, -1j)
_X = PauliOperator(1, 1, 0)


@dataclass
class StateVector:
    """n qubits, 2^n complex amplitudes; treat as immutable."""

    n: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class BlochAngles:
    theta: float
    phi: float


def _check_n(n: int):
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")


def _pos(n: int, q: int) -> int:
    """Index-bit position of 1-based qubit q (qubit 1 = most significant)."""
    if not 1 <= q <= n:
        raise ValueError(f"qubit index {q} out of range 1..{n}")
    return n - q


def basis_state(n: int, bits: str) -> StateVector:
    _check_n(n)
    if len(bits) != n or any(c not in "01" for c in bits):
        raise ValueError(f"need {n} bits, got {bits!r}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(n, amps)


def from_bloch(angles: BlochAngles) -> StateVector:
    """Single-qubit state cos(θ/2)|0> + e^{iφ} sin(θ/2)|1>."""
    amps = np.array(
        [math.cos(angles.theta / 2), np.exp(1j * angles.phi) * math.sin(angles.theta / 2)],
        dtype=complex,
    )
    return StateVector(1, amps)


def bloch_rotation(delta_theta: float, delta_phi: float) -> np.ndarray:
    """2x2 unitary shifting (θ, 0) to (θ + δθ, δφ) on the Bloch sphere.

    A polar rotation followed by a phase rotation; a single fixed unitary
    shifting both angles of *every* input state does not exist in general,
    so this is the explicit-rotation reading of coherent control errors.
    """
    ry = np.array(
        [
            [math.cos(delta_theta / 2), -math.sin(delta_theta / 2)],
            [math.sin(delta_theta / 2), math.cos(delta_theta / 2)],
        ],
        dtype=complex,
    )
    rz = np.array([[1, 0], [0, np.exp(1j * delta_phi)]], dtype=complex)
    return rz @ ry


def apply_matrix(state: StateVector, matrix: np.ndarray, q: int) -> StateVector:
    """Apply a single-qubit 2x2 matrix at qubit q."""
    pos = _pos(state.n, q)
    left = 1 << (state.n - 1 - pos)
    right = 1 << pos
    v = state.amplitudes.reshape(left, 2, right)
    out = np.empty_like(v)
    out[:, 0, :] = matrix[0, 0] * v[:, 0, :] + matrix[0, 1] * v[:, 1, :]
    out[:, 1, :] = matrix[1, 0] * v[:, 0, :] + matrix[1, 1] * v[:, 1, :]
    return StateVector(state.n, out.reshape(-1))


def apply_hadamard(state: StateVector, q: int) -> StateVector:
    return apply_matrix(state, _H, q)


def _apply_pauli(
    state: StateVector, p: PauliOperator, targets: Sequence[int], control: int | None = None
) -> StateVector:
    """The one Pauli kernel: p on the 1-based register qubits `targets`,
    only on the branch where qubit `control` is 1 if one is given."""
    if len(targets) != p.n:
        raise ValueError("target list length must equal the operator's qubit count")
    xm = zm = 0
    for q0, q in enumerate(targets):
        bit = 1 << _pos(state.n, q)
        xm |= bit * ((p.x_bits >> q0) & 1)
        zm |= bit * ((p.z_bits >> q0) & 1)
    src = np.arange(state.amplitudes.size, dtype=np.int64)
    if control is not None:
        src = src[(src >> _pos(state.n, control)) & 1 == 1]
    signs = 1.0 - 2.0 * (np.bitwise_count(src & zm) & 1)
    phase = _PHASES[(p.phase_exp + (p.x_bits & p.z_bits).bit_count()) % 4]
    out = state.amplitudes.copy()
    out[src ^ xm] = state.amplitudes[src] * signs * phase
    return StateVector(state.n, out)


def apply_pauli(
    state: StateVector, p: PauliOperator, targets: Sequence[int] | None = None
) -> StateVector:
    """Apply a Pauli operator; targets maps its qubits into the register
    (defaults to qubits 1..p.n)."""
    if targets is None:
        if p.n != state.n:
            raise ValueError(f"operator acts on {p.n} qubits, state has {state.n}")
        targets = range(1, p.n + 1)
    return _apply_pauli(state, p, list(targets))


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    if control == target:
        raise ValueError("control and target must differ")
    return _apply_pauli(state, _X, [target], control)


def apply_controlled_pauli(
    state: StateVector,
    control: int,
    p: PauliOperator,
    targets: Sequence[int] | None = None,
) -> StateVector:
    """Apply p to the target qubits on the control-1 branch."""
    targets = list(range(1, p.n + 1) if targets is None else targets)
    if control in targets:
        raise ValueError("control qubit cannot be a target")
    return _apply_pauli(state, p, targets, control)


def measure_qubit(
    state: StateVector, q: int, rng=None, forced: int | None = None
) -> tuple[int, StateVector, float]:
    """Computational-basis measurement of qubit q.

    Returns (outcome, collapsed state, probability of that outcome).  With
    neither rng nor forced outcome the measurement must be deterministic to
    within 1e-9.  Forcing an outcome of probability < 1e-12 is an error.
    """
    pos = _pos(state.n, q)
    idx = np.arange(state.amplitudes.size, dtype=np.int64)
    one = ((idx >> pos) & 1) == 1
    p1 = float(np.sum(np.abs(state.amplitudes[one]) ** 2))
    probs = (1.0 - p1, p1)
    if forced is not None:
        if forced not in (0, 1):
            raise ValueError("forced outcome must be 0 or 1")
        if probs[forced] < 1e-12:
            raise ValueError(f"forced outcome {forced} has probability {probs[forced]:.3e}")
        outcome = forced
    elif rng is not None:
        outcome = 1 if rng.random() < p1 else 0
    else:
        if min(probs) > 1e-9:
            raise ValueError("measurement is not deterministic; supply rng or forced outcome")
        outcome = 1 if p1 > 0.5 else 0
    keep = one if outcome else ~one
    amps = np.zeros_like(state.amplitudes)
    amps[keep] = state.amplitudes[keep] / math.sqrt(probs[outcome])
    return outcome, StateVector(state.n, amps), probs[outcome]


def fidelity(a: StateVector, b: StateVector) -> float:
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} != {b.n}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


# --- ancilla-mediated syndrome extraction -----------------------------------


def _extract_one(
    state: StateVector, generator: PauliOperator, rng=None, forced: int | None = None
) -> tuple[int, StateVector, float]:
    """Measure one stabilizer via an adjoined ancilla; returns the data state."""
    n = state.n
    _check_n(n + 1)
    work = np.zeros(state.amplitudes.size * 2, dtype=complex)
    work[0::2] = state.amplitudes  # ancilla adjoined as qubit n+1 (|0>)
    sv = StateVector(n + 1, work)
    ancilla = n + 1
    sv = apply_hadamard(sv, ancilla)
    sv = apply_controlled_pauli(sv, ancilla, generator, targets=range(1, n + 1))
    sv = apply_hadamard(sv, ancilla)
    outcome, sv, prob = measure_qubit(sv, ancilla, rng=rng, forced=forced)
    data = sv.amplitudes[outcome::2].copy()
    return outcome, StateVector(n, data), prob


def extract_syndrome(
    code: StabilizerCode,
    state: StateVector,
    rng=None,
    forced: Sequence[int] | None = None,
) -> tuple[Syndrome, StateVector]:
    """Measure every generator in order with a single reused ancilla."""
    if state.n != code.n:
        raise ValueError(f"state has {state.n} qubits, code needs {code.n}")
    bits = []
    for i, g in enumerate(code.generators):
        f = forced[i] if forced is not None else None
        outcome, state, _ = _extract_one(state, g, rng=rng, forced=f)
        bits.append(outcome)
    return Syndrome(tuple(bits)), state


def encode_by_projection(code: StabilizerCode, rng=None) -> StateVector:
    """Prepare the logical |0...0> state by projective stabilizer measurement.

    Runs the extraction circuit for each generator on |0>^n; a '1' outcome
    is repaired by the code's pure error for that generator, which
    anti-commutes with it alone and so keeps every earlier outcome.  The
    logical Z̄ operators are then measured the same way (repaired with the
    paired X̄) so the result is the codeword fixed by every generator and every Z̄, independent of
    the measurement record (the default rng only decides which corrections
    fire, never the final state).
    """
    import random

    if rng is None:
        rng = random.Random(0)
    _check_n(code.n + 1)
    state = basis_state(code.n, "0" * code.n)
    for i, g in enumerate(code.generators):
        outcome, state, _ = _extract_one(state, g, rng=rng)
        if outcome == 1:
            state = apply_pauli(state, code.pure_errors[i])
    for xbar, zbar in code.logicals:
        outcome, state, _ = _extract_one(state, zbar, rng=rng)
        if outcome == 1:
            state = apply_pauli(state, xbar)
    if abs(state.amplitudes[0]) < 1e-12:
        raise ValueError("projection produced no overlap with |0...0>; invalid code")
    return state


def coherent_error_collapse(code: StabilizerCode, p_x: float):
    """Collapse of the product coherent error (cos θ·I − i sin θ·X)^⊗n,
    sin²θ = p_x, on the encoded |0>_L, post-selected on the all-zero
    syndrome.

    Returns (keep probability, discard probability, logical error rate).
    The 0 branch of each generator's extraction is its projection
    (ψ + gψ)/2, so the kept state is their product on ψ and the keep
    probability its squared norm; below 1e-12 nothing is kept and the
    result is (0, 1, 0).  The rate is the weight of the kept state outside
    |0>_L, the chance of any logical error: for k = 1 its fidelity with
    X̄|0>_L, for k = 0 zero.  On the two-qubit code this evaluates the
    closed form p_L = p_x² / ((1-p_x)² + p_x²).
    """
    if not 0.0 <= p_x <= 1.0:
        raise ValueError(f"p_x must be in [0, 1], got {p_x}")
    zero_l = encode_by_projection(code).amplitudes
    cos, sin = math.sqrt(1.0 - p_x), math.sqrt(p_x)
    rotation = np.array([[cos, -1j * sin], [-1j * sin, cos]], dtype=complex)
    state = StateVector(code.n, zero_l)
    for q in range(1, code.n + 1):
        state = apply_matrix(state, rotation, q)

    for g in code.generators:
        state = StateVector(code.n, (state.amplitudes + apply_pauli(state, g).amplitudes) / 2)
    keep_prob = state.norm() ** 2
    if keep_prob < 1e-12:
        return 0.0, 1.0, 0.0
    kept = state.amplitudes / math.sqrt(keep_prob)
    # The norm of the part orthogonal to |0>_L, not 1 - fidelity: no cancellation.
    outside = kept - np.vdot(zero_l, kept) * zero_l
    return keep_prob, 1.0 - keep_prob, float(np.vdot(outside, outside).real)
