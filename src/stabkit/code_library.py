"""Constructors for the built-in stabilizer codes.

Surface-code lattice conventions
--------------------------------
A distance-λ planar patch lives on a (2λ-1) x (2λ-1) grid of sites (r, c).
Data qubits sit on sites with r+c even and are numbered row-major, so the
rows alternate between λ data qubits and λ-1 data qubits.  Checks sit on
sites with r+c odd: X-checks in even rows, Z-checks in odd rows, each
acting on its (2 to 4) orthogonal data-qubit neighbours.  The checks are
listed row-major: that order is the generator order, and so the syndrome
bit order.  The top and bottom rows are the X-type boundaries, the left and
right columns the Z-type boundaries; the logical X̄ is the X-chain down
the left column, the logical Z̄ the Z-chain across the top row.
"""

from __future__ import annotations

import re

from .pauli import PauliOperator, from_support
from .stabilizer_code import StabilizerCode


def _chain(n: int, letter: str, qubits: list[int]) -> PauliOperator:
    return from_support(n, [(q, letter) for q in qubits])


def two_qubit() -> StabilizerCode:
    """Bit-flip detection code of the Z1Z2 stabilizer measurement.

    Z̄ is taken as the weight-1 operator Z1; any single Z works, they differ
    by the stabilizer.  No quantum distance is declared: the weight-1 Z̄
    makes the undetected-error search return 1, while the code's purpose is
    bit-flip detection at distance 2 (see `distance` with letters=("X",)).
    """
    n = 2
    return StabilizerCode(
        name="two_qubit",
        n=n,
        k=1,
        generators=(_chain(n, "Z", [1, 2]),),
        logicals=((_chain(n, "X", [1, 2]), _chain(n, "Z", [1])),),
        declared_distance=None,
    )


def three_qubit_bitflip() -> StabilizerCode:
    n = 3
    return StabilizerCode(
        name="three_qubit_bitflip",
        n=n,
        k=1,
        generators=(_chain(n, "Z", [1, 2]), _chain(n, "Z", [2, 3])),
        logicals=((_chain(n, "X", [1, 2, 3]), _chain(n, "Z", [1])),),
        declared_distance=1,
    )


def three_qubit_phaseflip() -> StabilizerCode:
    """Hadamard conjugate of the bit-flip code (X and Z exchanged)."""
    n = 3
    return StabilizerCode(
        name="three_qubit_phaseflip",
        n=n,
        k=1,
        generators=(_chain(n, "X", [1, 2]), _chain(n, "X", [2, 3])),
        logicals=((_chain(n, "Z", [1, 2, 3]), _chain(n, "X", [1])),),
        declared_distance=1,
    )


def four_two_two() -> StabilizerCode:
    """[[4,2,2]] detection code.

    The Z-type generator is listed first so that syndrome bit 1 is the
    Z1Z2Z3Z4 outcome: single-qubit X-errors then read "10" and Z-errors
    "01", reproducing the published single-qubit syndrome table bit for
    bit.
    """
    n = 4
    return StabilizerCode(
        name="four_two_two",
        n=n,
        k=2,
        generators=(_chain(n, "Z", [1, 2, 3, 4]), _chain(n, "X", [1, 2, 3, 4])),
        logicals=(
            (_chain(n, "X", [1, 3]), _chain(n, "Z", [1, 4])),
            (_chain(n, "X", [2, 3]), _chain(n, "Z", [2, 4])),
        ),
        declared_distance=2,
    )


def shor_nine() -> StabilizerCode:
    """Nine-qubit code: the three-qubit phase-flip code (outer) concatenated
    with the three-qubit bit-flip code (inner).

    Each outer qubit becomes an inner block of three; an outer X maps to
    the inner X̄ (X over the whole block) and an outer Z to the inner Z̄ (a
    single Z).  The generators are the inner Z-pair checks block by block,
    then the lifted outer checks X1..X6 and X4..X9; X̄ = Z1 Z4 Z7 and
    Z̄ = X1 X2 X3.
    """
    n = 9
    generators = [_chain(n, "Z", [q, q + 1]) for b in (0, 3, 6) for q in (b + 1, b + 2)]
    generators += [_chain(n, "X", [1, 2, 3, 4, 5, 6]), _chain(n, "X", [4, 5, 6, 7, 8, 9])]
    return StabilizerCode(
        name="shor_nine",
        n=n,
        k=1,
        generators=tuple(generators),
        logicals=((_chain(n, "Z", [1, 4, 7]), _chain(n, "X", [1, 2, 3])),),
        declared_distance=3,
    )


def four_cycle() -> StabilizerCode:
    """The k=0 building block: two data qubits, one X-check and one Z-check."""
    n = 2
    return StabilizerCode(
        name="four_cycle",
        n=n,
        k=0,
        generators=(_chain(n, "X", [1, 2]), _chain(n, "Z", [1, 2])),
        logicals=(),
        declared_distance=None,
    )


def surface_code(lam: int) -> StabilizerCode:
    """Distance-λ planar surface code, [[λ² + (λ-1)², 1, λ]]."""
    if lam < 2:
        raise ValueError(f"surface code needs lambda >= 2, got {lam}")
    side = 2 * lam - 1
    data_index: dict[tuple[int, int], int] = {}
    for r in range(side):
        for c in range(side):
            if (r + c) % 2 == 0:
                data_index[(r, c)] = len(data_index) + 1
    n = len(data_index)

    generators = []
    for r in range(side):
        for c in range(side):
            if (r + c) % 2 == 1:
                kind = "X" if r % 2 == 0 else "Z"
                neighbours = [
                    data_index[(rr, cc)]
                    for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                    if (rr, cc) in data_index
                ]
                generators.append(from_support(n, [(q, kind) for q in sorted(neighbours)]))

    xbar = _chain(n, "X", [data_index[(r, 0)] for r in range(0, side, 2)])
    zbar = _chain(n, "Z", [data_index[(0, c)] for c in range(0, side, 2)])
    return StabilizerCode(
        name=f"surface_d{lam}",
        n=n,
        k=1,
        generators=tuple(generators),
        logicals=((xbar, zbar),),
        declared_distance=lam,
    )


_FIXED_CODES = {
    "two_qubit": two_qubit,
    "three_qubit_bitflip": three_qubit_bitflip,
    "three_qubit_phaseflip": three_qubit_phaseflip,
    "four_two_two": four_two_two,
    "shor_nine": shor_nine,
    "four_cycle": four_cycle,
}

_SURFACE_RE = re.compile(r"^surface_d(\d+)$")


def registered_names() -> list[str]:
    return list(_FIXED_CODES) + ["surface_d2", "surface_d3"]


def get_code(name: str) -> StabilizerCode:
    """Look up a code by registered name; surface_d<λ> works for any λ >= 2."""
    if name in _FIXED_CODES:
        return _FIXED_CODES[name]()
    m = _SURFACE_RE.match(name)
    if m:
        return surface_code(int(m.group(1)))
    raise KeyError(f"unknown code name {name!r}; known: {', '.join(registered_names())}")
