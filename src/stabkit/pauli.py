"""Exact n-qubit Pauli algebra in symplectic binary form.

Encoding convention
-------------------
An operator is stored as a pair of bit vectors plus a phase exponent:

    value = i**phase_exp * (P_1 ⊗ P_2 ⊗ ... ⊗ P_n)

where the letter on qubit q is read from bit q-1 of ``x_bits`` and
``z_bits``:

    (x, z) = (0, 0) -> I,  (1, 0) -> X,  (0, 1) -> Z,  (1, 1) -> Y.

Qubits are numbered 1..n externally (as in every syndrome table this
package reproduces); bit q-1 of either mask belongs to qubit q.  The
letter Y is the honest Pauli matrix [[0, -i], [i, 0]]; the identity
Y = i·X·Z is only used internally by `multiply` so that products come out
with the true matrix phase.  Phases are powers of i, tracked mod 4.

Bit vectors live in plain Python ints, so multiplication and commutation
are a handful of word-wide XOR/AND/popcount operations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

import numpy as np

LETTERS = ("I", "X", "Z", "Y")  # indexed by x + 2*z

_PHASE_TOKENS = {"": 0, "+": 0, "+i": 1, "-": 2, "-i": 3}
_PHASE_PREFIX = {0: "", 1: "+i", 2: "-", 3: "-i"}

_DENSE_RE = re.compile(r"^(\+i|-i|\+|-)?([IXYZ]+)$")
_SPARSE_TERM_RE = re.compile(r"^([XYZ])(\d+)$")


@dataclass(frozen=True)
class PauliOperator:
    """Immutable n-qubit Pauli; see module docstring for the encoding."""

    n: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        full = (1 << self.n) - 1
        if not (0 <= self.x_bits <= full and 0 <= self.z_bits <= full):
            raise ValueError("bit vector exceeds qubit count")
        if self.phase_exp not in (0, 1, 2, 3):
            raise ValueError(f"phase exponent must be in 0..3, got {self.phase_exp}")

    def letter(self, q: int) -> str:
        """Letter on qubit q (1-based)."""
        if not 1 <= q <= self.n:
            raise ValueError(f"qubit index {q} out of range 1..{self.n}")
        x = (self.x_bits >> (q - 1)) & 1
        z = (self.z_bits >> (q - 1)) & 1
        return LETTERS[x + 2 * z]

    def __str__(self) -> str:
        return format_dense(self)


def identity(n: int) -> PauliOperator:
    return PauliOperator(n, 0, 0, 0)


def from_support(n: int, terms: Iterable[tuple[int, str]]) -> PauliOperator:
    """Build an operator from 1-based (qubit, letter) pairs, phase +1."""
    x = z = 0
    seen = set()
    for q, letter in terms:
        if not 1 <= q <= n:
            raise ValueError(f"qubit index {q} out of range 1..{n}")
        if q in seen:
            raise ValueError(f"duplicate qubit index {q}")
        seen.add(q)
        bit = 1 << (q - 1)
        if letter == "X":
            x |= bit
        elif letter == "Z":
            z |= bit
        elif letter == "Y":
            x |= bit
            z |= bit
        else:
            raise ValueError(f"unknown Pauli letter {letter!r}")
    return PauliOperator(n, x, z, 0)


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Matrix product a·b, exact including the global phase.

    Each side is rewritten in X-then-Z normal form (Y = i·X·Z), the Z·X
    swaps crossing between the factors contribute (-1) each, and the
    result is folded back to letter form.
    """
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} != {b.n}")
    x = a.x_bits ^ b.x_bits
    z = a.z_bits ^ b.z_bits
    phase = (
        a.phase_exp
        + b.phase_exp
        + (a.x_bits & a.z_bits).bit_count()
        + (b.x_bits & b.z_bits).bit_count()
        + 2 * (a.z_bits & b.x_bits).bit_count()
        - (x & z).bit_count()
    ) % 4
    return PauliOperator(a.n, x, z, phase)


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """Symplectic inner product test; global phases are irrelevant."""
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} != {b.n}")
    return (a.x_bits & b.z_bits).bit_count() + (a.z_bits & b.x_bits).bit_count() & 1 == 0


def weight(p: PauliOperator) -> int:
    return (p.x_bits | p.z_bits).bit_count()


def support(p: PauliOperator) -> list[tuple[int, str]]:
    """Non-identity sites as 1-based (qubit, letter), ascending."""
    out = []
    occupied = p.x_bits | p.z_bits
    q = 1
    while occupied:
        if occupied & 1:
            out.append((q, p.letter(q)))
        occupied >>= 1
        q += 1
    return out


def parse(text: str, n: int | None = None) -> PauliOperator:
    """Parse dense ("XIZZY", optional +/-/+i/-i prefix) or sparse ("X1 Z3") text.

    Sparse form requires an explicit qubit count n.
    """
    text = text.strip()
    if not any(ch.isdigit() for ch in text) and len(text.split()) == 1:
        m = _DENSE_RE.match(text)
        if not m:
            raise ValueError(f"cannot parse dense Pauli text {text!r}")
        phase = _PHASE_TOKENS[m.group(1) or ""]
        letters = m.group(2)
        if letters == "I" and n is not None:
            return PauliOperator(n, 0, 0, phase)  # sparse-style bare identity
        if n is not None and n != len(letters):
            raise ValueError(f"dense text has {len(letters)} letters, expected n={n}")
        op = from_support(len(letters), [(q, c) for q, c in enumerate(letters, 1) if c != "I"])
        return PauliOperator(op.n, op.x_bits, op.z_bits, phase)
    # Sparse form.
    tokens = text.split()
    phase = 0
    if tokens and tokens[0] in _PHASE_TOKENS:
        phase = _PHASE_TOKENS[tokens[0]]
        tokens = tokens[1:]
    if n is None:
        raise ValueError("sparse Pauli text requires an explicit qubit count n")
    if tokens == ["I"]:
        tokens = []
    terms = []
    for tok in tokens:
        m = _SPARSE_TERM_RE.match(tok)
        if not m:
            raise ValueError(f"cannot parse sparse Pauli term {tok!r}")
        terms.append((int(m.group(2)), m.group(1)))
    op = from_support(n, terms)
    return PauliOperator(op.n, op.x_bits, op.z_bits, phase)


def format_dense(p: PauliOperator) -> str:
    body = "".join(p.letter(q) for q in range(1, p.n + 1))
    return _PHASE_PREFIX[p.phase_exp] + body


def format_sparse(p: PauliOperator) -> str:
    terms = support(p)
    body = " ".join(f"{letter}{q}" for q, letter in terms) if terms else "I"
    prefix = _PHASE_PREFIX[p.phase_exp]
    return f"{prefix} {body}".strip() if prefix else body


def enumerate_paulis(
    n: int, w: int, letters: Sequence[str] = ("X", "Y", "Z")
) -> Iterator[PauliOperator]:
    """All weight-w operators, supports in lexicographic order, then letter
    assignments with the given letter order (X < Y < Z by default)."""
    if w == 0:
        yield identity(n)
        return
    for qubits in combinations(range(1, n + 1), w):
        for assignment in product(letters, repeat=w):
            yield from_support(n, list(zip(qubits, assignment)))


# --- 2x2 decomposition ------------------------------------------------------

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliCoefficients:
    """Expansion coefficients of a 2x2 matrix in the {I, X, Y, Z} basis."""

    alpha_i: complex
    alpha_x: complex
    alpha_y: complex
    alpha_z: complex

    @property
    def alpha_xz(self) -> complex:
        # Coefficient when the basis uses XZ in place of Y (Y = i·X·Z).
        return 1j * self.alpha_y

    def reconstruct(self) -> np.ndarray:
        return (
            self.alpha_i * PAULI_MATRICES["I"]
            + self.alpha_x * PAULI_MATRICES["X"]
            + self.alpha_y * PAULI_MATRICES["Y"]
            + self.alpha_z * PAULI_MATRICES["Z"]
        )


def decompose_unitary(u: np.ndarray) -> PauliCoefficients:
    """Expansion coefficients alpha_P = tr(P† u) / 2 of any 2x2 matrix."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    coeff = {name: np.trace(mat.conj().T @ u) / 2 for name, mat in PAULI_MATRICES.items()}
    return PauliCoefficients(coeff["I"], coeff["X"], coeff["Y"], coeff["Z"])
