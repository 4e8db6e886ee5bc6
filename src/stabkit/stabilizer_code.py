"""[[n,k,d]] stabilizer codes: validation, syndromes, group membership,
residual classification and brute-force distance search.

A code is a named list of m = n-k commuting, independent generators plus k
logical (X̄_i, Z̄_i) pairs.  Syndrome bit i is the measurement outcome of
``generators[i]``: 0 when the generator commutes with the error, 1 when it
anti-commutes.  Generator order is part of the code definition — it fixes
the syndrome bit order, and the built-in codes list generators exactly in
the order their published syndrome tables assume.

Stabilizer-group membership is span membership in one symplectic generator
basis, which `validate` also reads; phases are ignored (projective stabilizers).

A batch of errors is the sampler's (trials, n) bool X and Z arrays.
`parity_batch` XORs their X|Z columns on each check row's support (both
built with the code: `_check_rows`, `_supports`), gathered by index, so a
trial costs the supports' weight, not n × m; only the syndromes are packed,
for the decoders.  For a valid code, a recovery with the error's syndrome
succeeds (the product is a stabilizer) iff both have the same class: 2k
parities, not a span reduction.

Pure errors turn a syndrome into an operator: `pure_errors[i]`, entry i of
the check rows' right inverse (`_gf2.right_inverse`), flips syndrome bit i
alone and commutes with every logical.  Their product over the set bits of
a syndrome has that syndrome; any other operator with it differs from that
product by a stabilizer times a logical.  No trial reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

import numpy as np

from ._gf2 import RowBasis, right_inverse
from .pauli import LETTERS, PauliOperator, commutes, enumerate_paulis

# Exponential searches fail fast: a lookup table holds at most
# 2^LOOKUP_SYNDROME_GUARD rows, `distance` tries at most DISTANCE_SEARCH_GUARD Paulis.
LOOKUP_SYNDROME_GUARD = 20
DISTANCE_SEARCH_GUARD = 2_000_000


@dataclass(frozen=True)
class Syndrome:
    """Measurement outcomes, bit i for generator i; str() reads bit 0 first."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("syndrome bits must be 0 or 1")

    @classmethod
    def from_int(cls, value: int, m: int) -> "Syndrome":
        if not 0 <= value < 1 << m:
            raise ValueError(f"syndrome value {value} is not in [0, 2^{m})")
        return cls(tuple((value >> i) & 1 for i in range(m)))

    @classmethod
    def from_string(cls, text: str) -> "Syndrome":
        return cls(tuple(int(c) for c in text))

    @property
    def value(self) -> int:
        """Packed form; bit i of the int is syndrome bit i."""
        v = 0
        for i, b in enumerate(self.bits):
            v |= b << i
        return v

    @property
    def is_zero(self) -> bool:
        return not any(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class ResidualClass:
    """Outcome of a recovery: Success, or the per-logical-qubit Pauli class."""

    success: bool
    logical_classes: tuple[str, ...]

    @property
    def verdict(self) -> str:
        return "Success" if self.success else "LogicalFailure"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]


@dataclass(eq=True)
class StabilizerCode:
    """Treat instances as immutable once built.  The check rows and supports,
    which every parity reads, are built with the code (attributes, not
    fields: ==, repr and asdict ignore them, a pickle keeps them).
    `_stab_basis` and `pure_errors` are built on first use: no trial reads
    them, and a dependent code has no pure errors."""

    name: str
    n: int
    k: int
    generators: tuple[PauliOperator, ...]
    logicals: tuple[tuple[PauliOperator, PauliOperator], ...]
    declared_distance: int | None = None

    def __post_init__(self):
        self.generators = tuple(self.generators)
        self.logicals = tuple((x, z) for x, z in self.logicals)
        ops = list(self.generators) + [p for pair in self.logicals for p in pair]
        # Generators, then X̄_1, Z̄_1, X̄_2, ..., with x and z swapped: the
        # parity of (symplectic vector & row) is their symplectic product.
        self._check_rows = [p.z_bits | p.x_bits << self.n for p in ops]
        # Set bits as columns of [x | z | 0], padded with 2n (the zero column);
        # words fit the widest row, even of an operator of the wrong size.
        self._supports = []
        for rows in (self._check_rows[: self.m], self._check_rows[self.m :]):
            words = -(-max(rows, default=0).bit_length() // 64)
            found, ranks, columns = _set_bits(_pack_ints(rows, words))
            self._supports.append(np.full((len(rows), ranks.max(initial=-1) + 1), 2 * self.n))
            self._supports[-1][found, ranks] = columns

    @property
    def m(self) -> int:
        return len(self.generators)

    # -- symplectic machinery ------------------------------------------

    @cached_property
    def _stab_basis(self) -> RowBasis:
        return RowBasis([self._symplectic(g) for g in self.generators])

    def _symplectic(self, p: PauliOperator) -> int:
        return p.x_bits | (p.z_bits << self.n)

    @cached_property
    def pure_errors(self) -> tuple[PauliOperator, ...]:
        """Entry i anti-commutes with generator i alone and commutes with
        every logical; ValueError if generators and logicals are dependent."""
        mask = (1 << self.n) - 1
        return tuple(
            PauliOperator(self.n, v & mask, v >> self.n)
            for v in right_inverse(self._check_rows)[: self.m]
        )

    # -- operations ------------------------------------------------------

    def syndrome_value(self, error: PauliOperator) -> int:
        """Packed syndrome of one operator: bit i is its parity with `_check_rows[i]`."""
        if error.n != self.n:
            raise ValueError(f"error acts on {error.n} qubits, code has {self.n}")
        e, rows, v = self._symplectic(error), self._check_rows, 0
        for i in range(self.m):
            if (rows[i] & e).bit_count() & 1:
                v |= 1 << i
        return v

    def syndrome(self, error: PauliOperator) -> Syndrome:
        return Syndrome.from_int(self.syndrome_value(error), self.m)

    def parity_batch(self, x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Syndromes, packed (ceil(m/64) uint64 words a row, bit i for generator
        i), and (trials, 2k) bool classes (column 2i (2i+1): anti-commutes
        with X̄_i (Z̄_i)) of the errors in (trials, n) bool X and Z arrays."""
        xz = np.concatenate((x, z, np.zeros((len(x), 1), dtype=bool)), axis=1)
        syndromes, classes = (np.bitwise_xor.reduce(xz[:, t], axis=2) for t in self._supports)
        return _pack_bits(-(-self.m // 64), syndromes), classes

    def in_stabilizer_group(self, p: PauliOperator) -> bool:
        if p.n != self.n:
            raise ValueError(f"operator acts on {p.n} qubits, code has {self.n}")
        return self._stab_basis.contains(self._symplectic(p))

    def residual_class(self, residual: PauliOperator) -> ResidualClass:
        """Classify a zero-syndrome residual (Eq.-style success/failure split).

        The class on logical qubit i picks up an X component when the
        residual anti-commutes with Z̄_i and a Z component when it
        anti-commutes with X̄_i.
        """
        if self.syndrome_value(residual) != 0:
            raise ValueError("residual has nonzero syndrome; not a codespace operator")
        v = self._symplectic(residual)
        bits = [(row & v).bit_count() & 1 for row in self._check_rows[self.m :]]
        classes = tuple(LETTERS[zbar + 2 * xbar] for xbar, zbar in zip(bits[::2], bits[1::2]))
        return ResidualClass(self.in_stabilizer_group(residual), classes)

    def validate(self, distance_max_weight: int | None = None) -> ValidationReport:
        """Check every structural invariant; optionally cross-check the
        declared distance by exhaustive search up to distance_max_weight."""
        problems: list[str] = []
        if self.m != self.n - self.k:
            problems.append(f"generator count {self.m} != n-k = {self.n - self.k}")
        ops = list(self.generators) + [p for pair in self.logicals for p in pair]
        names = [f"generator {i}" for i in range(1, self.m + 1)]
        names += [f"logical {a}{i}" for i in range(1, len(self.logicals) + 1) for a in "XZ"]
        for name, p in zip(names, ops):
            if p.n != self.n:
                problems.append(f"{name} acts on {p.n} qubits, code has {self.n}")
        if any(p.n != self.n for p in ops):
            return ValidationReport(False, tuple(problems))  # the rest needs n qubits
        for i, g in enumerate(self.generators, 1):
            if g.phase_exp != 0:
                problems.append(f"generator {i} has nontrivial phase")
        # Two operators must anti-commute exactly when they are X̄_i and Z̄_i.
        for a, b in combinations(range(len(ops)), 2):
            pair = a >= self.m and (a - self.m) % 2 == 0 and b == a + 1
            if commutes(ops[a], ops[b]) == pair:
                problems.append(f"{names[a]} and {names[b]} {'' if pair else 'anti-'}commute")
        for i in self._stab_basis.dependent:
            problems.append(f"generator {i + 1} is a product of earlier generators")
        if len(self.logicals) != self.k:
            problems.append(f"expected {self.k} logical pairs, got {len(self.logicals)}")
        for name, p in zip(names[self.m :], ops[self.m :]):
            if self.in_stabilizer_group(p):
                problems.append(f"{name} lies in the stabilizer span")
        if distance_max_weight is not None and self.declared_distance is not None:
            found = distance(self, distance_max_weight)
            if found != self.declared_distance:
                problems.append(
                    f"declared distance {self.declared_distance} but search found {found}"
                )
        return ValidationReport(not problems, tuple(problems))


def and_popcount(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(len(a), len(rows)) exact popcounts of a[i] & rows[j] over the words
    of `a`, one word at a time so temporaries stay (len(a), len(rows)).
    They are summed in the smallest unsigned type that holds 64 bits per
    word: uint8 up to 3 words, uint16 up to 1,023."""
    acc = np.zeros((len(a), len(rows)), dtype=np.min_scalar_type(64 * a.shape[1]))
    for w in range(a.shape[1]):
        acc += np.bitwise_count(a[:, w, None] & rows[None, :, w])
    return acc


def _pack_ints(values: Sequence[int], words: int) -> np.ndarray:
    """Non-negative ints -> (len(values), words) uint64 words, little-endian
    (`words` may be 0)."""
    data = b"".join(v.to_bytes(8 * words, "little") for v in values)
    return np.frombuffer(data, dtype="<u8").reshape(len(values), words)


def _set_bits(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major (row, rank in its row, column) of each set bit of uint64 rows.
    Only the nonzero bytes are unpacked, so no temporary holds a byte per bit."""
    data = packed.view(np.uint8)
    at = np.flatnonzero(data)
    hit = np.flatnonzero(np.unpackbits(data.reshape(-1)[at], bitorder="little"))
    rows, columns = np.divmod(at[hit >> 3] * 8 + (hit & 7), 8 * data.shape[1])
    return rows, np.arange(len(rows)) - np.searchsorted(rows, rows), columns


def _pack_bits(words: int, bits: np.ndarray) -> np.ndarray:
    """(rows, columns) bools -> (rows, words) uint64 words: column j at bit
    j % 64 of word j // 64, then zeros.  Padded rows are 64 * words bits, so
    one flat packbits gives the row-by-row bytes."""
    padded = np.zeros((len(bits), 64 * words), dtype=bool)
    padded[:, : bits.shape[1]] = bits
    return np.packbits(padded, bitorder="little").view("<u8").reshape(len(padded), words)


def distance(
    code: StabilizerCode,
    max_weight: int,
    letters: Sequence[str] = ("X", "Y", "Z"),
) -> int | None:
    """Smallest w <= max_weight with an undetected non-stabilizer weight-w
    Pauli (letters restrictable, e.g. ("X",) for the bit-flip-only distance
    of a detection code).  None means: greater than max_weight.  ValueError
    before a weight that would take the Paulis tried past the guard.
    """
    if not 1 <= max_weight <= code.n:
        raise ValueError(f"max_weight must be in 1..{code.n}")
    candidates = 0
    for w in range(1, max_weight + 1):
        candidates += math.comb(code.n, w) * len(letters) ** w
        if candidates > DISTANCE_SEARCH_GUARD:
            raise ValueError(f"distance search to weight {w} tries {candidates:,} Paulis")
        for p in enumerate_paulis(code.n, w, letters):
            if code.syndrome_value(p) == 0 and not code.in_stabilizer_group(p):
                return w
    return None


def correctable_weight(d: int) -> int:
    """Errors correctable at distance d: t = floor((d-1)/2) from d = 2t+1."""
    if d < 1:
        raise ValueError(f"distance must be >= 1, got {d}")
    return (d - 1) // 2
