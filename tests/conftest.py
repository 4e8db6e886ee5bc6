"""Shared oracles: dense-matrix Pauli arithmetic built independently of the
symplectic implementation, used to cross-check phases and commutators."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from stabkit.pauli import PauliOperator

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
MATRICES = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def dense_matrix(op: PauliOperator) -> np.ndarray:
    """Kronecker-product matrix of an operator, qubit 1 leftmost."""
    out = np.array([[1.0 + 0.0j]])
    for q in range(1, op.n + 1):
        out = np.kron(out, MATRICES[op.letter(q)])
    return (1j**op.phase_exp) * out


def dense_from_letters(letters: str, phase_exp: int = 0) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for ch in letters:
        out = np.kron(out, MATRICES[ch])
    return (1j**phase_exp) * out


def xz_rows(n: int, ops) -> tuple[np.ndarray, np.ndarray]:
    """(len(ops), n) bool X and Z arrays of operators on n qubits (phases
    dropped): the batch form `StabilizerCode.parity_batch` takes."""
    ops = list(ops)
    x = np.array([[op.x_bits >> q & 1 for q in range(n)] for op in ops], dtype=bool)
    z = np.array([[op.z_bits >> q & 1 for q in range(n)] for op in ops], dtype=bool)
    return x.reshape(len(ops), n), z.reshape(len(ops), n)


def pauli_operators(max_n: int = 6, with_phase: bool = True):
    """Hypothesis strategy for random operators."""

    def build(n, x, z, phase):
        mask = (1 << n) - 1
        return PauliOperator(n, x & mask, z & mask, phase if with_phase else 0)

    return st.builds(
        build,
        st.integers(min_value=1, max_value=max_n),
        st.integers(min_value=0),
        st.integers(min_value=0),
        st.integers(min_value=0, max_value=3),
    )


def pauli_pairs(max_n: int = 6, with_phase: bool = True):
    """Pairs of operators on the same register."""

    def build(n, x1, z1, p1, x2, z2, p2):
        mask = (1 << n) - 1
        a = PauliOperator(n, x1 & mask, z1 & mask, p1 if with_phase else 0)
        b = PauliOperator(n, x2 & mask, z2 & mask, p2 if with_phase else 0)
        return a, b

    return st.builds(
        build,
        st.integers(min_value=1, max_value=max_n),
        st.integers(min_value=0),
        st.integers(min_value=0),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0),
        st.integers(min_value=0),
        st.integers(min_value=0, max_value=3),
    )
