"""Constructors for the built-in stabilizer codes.

Surface-code lattice conventions
--------------------------------
A distance-λ planar patch lives on a (2λ-1) x (2λ-1) grid of sites (r, c).
Data qubits sit on sites with r+c even and are numbered row-major, so the
rows alternate between λ data qubits and λ-1 data qubits.  Checks sit on
sites with r+c odd: X-checks in even rows, Z-checks in odd rows, each
acting on its (2 to 4) orthogonal data-qubit neighbours.  Check ancillas
are also numbered row-major (A1, A2, ...), which fixes the syndrome bit
order.  The top and bottom rows are the X-type boundaries, the left and
right columns the Z-type boundaries; the logical X̄ is the X-chain down
the left column, the logical Z̄ the Z-chain across the top row.
"""

from __future__ import annotations

import re

from .pauli import PauliOperator, from_support, multiply
from .stabilizer_code import AncillaRecord, Coord, StabilizerCode, SurfaceLayout


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


def concatenate_rep(outer: StabilizerCode, inner: StabilizerCode) -> StabilizerCode:
    """Concatenate the three-qubit phase-flip code (outer) with the
    three-qubit bit-flip code (inner) into the nine-qubit code.

    Each outer qubit becomes an inner block; an X on outer qubit b maps to
    the inner logical X̄ on block b (X over the whole block) and an outer Z
    to the inner Z̄ (a single Z).  Only the fixed pair from the paper-scale
    construction is supported.
    """
    if outer.name != "three_qubit_phaseflip" or inner.name != "three_qubit_bitflip":
        raise ValueError(
            "only concatenation of three_qubit_phaseflip over three_qubit_bitflip is supported"
        )
    n = outer.n * inner.n

    def lift(op: PauliOperator) -> PauliOperator:
        out = PauliOperator(n, 0, 0)
        inner_x, inner_z = inner.logicals[0]
        for block in range(outer.n):
            bit = 1 << block
            shift = block * inner.n
            if op.x_bits & bit:
                out = multiply(out, PauliOperator(n, inner_x.x_bits << shift, inner_x.z_bits << shift))
            if op.z_bits & bit:
                out = multiply(out, PauliOperator(n, inner_z.x_bits << shift, inner_z.z_bits << shift))
        return out

    generators = []
    for block in range(outer.n):
        shift = block * inner.n
        for g in inner.generators:
            generators.append(PauliOperator(n, g.x_bits << shift, g.z_bits << shift))
    generators.extend(lift(g) for g in outer.generators)
    outer_xbar, outer_zbar = outer.logicals[0]
    return StabilizerCode(
        name="shor_nine",
        n=n,
        k=1,
        generators=tuple(generators),
        logicals=((lift(outer_xbar), lift(outer_zbar)),),
        declared_distance=3,
    )


def shor_nine() -> StabilizerCode:
    return concatenate_rep(three_qubit_phaseflip(), three_qubit_bitflip())


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
    data_index: dict[Coord, int] = {}
    for r in range(side):
        for c in range(side):
            if (r + c) % 2 == 0:
                data_index[(r, c)] = len(data_index) + 1
    n = len(data_index)

    generators = []
    records = []
    for r in range(side):
        for c in range(side):
            if (r + c) % 2 == 1:
                kind = "X" if r % 2 == 0 else "Z"
                neighbours = [
                    data_index[(rr, cc)]
                    for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                    if (rr, cc) in data_index
                ]
                neighbours.sort()
                generators.append(from_support(n, [(q, kind) for q in neighbours]))
                records.append(
                    AncillaRecord(f"A{len(records) + 1}", kind, (r, c), tuple(neighbours))
                )

    xbar = _chain(n, "X", [data_index[(r, 0)] for r in range(0, side, 2)])
    zbar = _chain(n, "Z", [data_index[(0, c)] for c in range(0, side, 2)])
    layout = SurfaceLayout(
        lam=lam,
        data_coords={i: coord for coord, i in data_index.items()},
        ancilla_records=tuple(records),
    )
    return StabilizerCode(
        name=f"surface_d{lam}",
        n=n,
        k=1,
        generators=tuple(generators),
        logicals=((xbar, zbar),),
        declared_distance=lam,
        layout=layout,
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
