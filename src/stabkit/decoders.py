"""Syndrome decoding: exhaustive minimum-weight lookup tables and exact
minimum-weight perfect matching on surface-code lattices.

Tie-breaking is the same everywhere: minimum weight first, then the
enumeration order of `pauli.enumerate_paulis` (ascending support, letters
X < Y < Z), so decoded recoveries are reproducible golden values.

Matching model: flagged Z-checks are the defects of the X-error sector and
may match each other or the top/bottom (X-type) boundaries; flagged
X-checks are the Z-sector defects and match each other or the left/right
boundaries.  Edge weights count the data qubits on a shortest lattice path.
Unused virtual boundary nodes pair among themselves at zero cost, which
the solver realises by letting every defect take its boundary option
independently.  The matching is exact.  An edge that cannot beat two
boundary matches is pruned; that rule depends only on the layout, so each
sector builds its pruning graph once.  Cost and flip parity add over the
components of the pruned graph, so every entry point splits the defects
with `_components` (the only code that applies `DEFAULT_DEFECT_CAP`: a
component over it raises InstanceTooLargeError) and solves each with one
bitmask DP (`_optimum`), lowest defect first.  The DP's picks in a
component do not depend on the rest, so the split equals the unsplit DP,
tie-breaks included.  The DP skips, unsolved, a partner that an
admissible bound shows cannot be strictly cheaper than its current pick
(each defect pays its boundary cost or half a kept edge, so twice an
optimum is at least the sum of those minima); only a strictly cheaper
partner replaces a pick, so every memo entry is the unbounded DP's.
`decode_batch` first resolves isolated defects (the boundary is the only
option) and isolated pairs (the kept edge beats two boundary matches; a
pair path never flips) with packed AND+popcount arithmetic; both optima
are unique, so the DP would pick them too, and it runs on the rest with
one memo per row.  It uses no float matmul: BLAS threads oversubscribe
the CPUs that `montecarlo`'s worker pool fills.

Recovery: the matching only picks each sector's logical class.  A boundary
match toward coordinate 0 (top for X-errors, left for Z-errors) crosses the
conjugate logical once and a pair path never does.  `decode_value` returns
the product of `StabilizerCode.pure_errors` over the flagged checks, times
X̄ (Z̄) where the X (Z) sector makes an odd number of such matches: the
matched chains up to a stabilizer, but not minimum weight.

Decoder protocol: a `name`; `decode_value(int) -> PauliOperator` for one
syndrome value (bit i = generator i), which may raise `DecoderError`; and
`decode_batch(packed syndromes) -> (classes, failed)`: the
`StabilizerCode.logical_batch` row of each `decode_value`, and the rows it
gave up on.  Every recovery has its input syndrome, and pure errors commute
with every logical, so a trial succeeds iff its error has that class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .pauli import PauliOperator, enumerate_paulis, format_sparse, identity
from .stabilizer_code import LOOKUP_SYNDROME_GUARD, StabilizerCode, SurfaceLayout, Syndrome
from .stabilizer_code import _pack_bits, and_popcount

DEFAULT_DEFECT_CAP = 16


class DecoderError(Exception):
    pass


class InstanceTooLargeError(DecoderError):
    """Defect count above the exact solver's cap."""


# --- lookup decoding ---------------------------------------------------------


@dataclass
class LookupTable:
    """Syndrome -> minimum-weight recovery, built by exhaustive enumeration."""

    code: StabilizerCode
    max_weight: int
    table: dict[int, PauliOperator]

    def to_json(self) -> str:
        rows = {
            str(Syndrome.from_int(value, self.code.m)): format_sparse(op)
            for value, op in sorted(self.table.items())
        }
        return json.dumps(
            {"code": self.code.name, "max_weight": self.max_weight, "recoveries": rows},
            indent=2,
        )


def build_lookup(code: StabilizerCode, max_weight: int | None = None) -> LookupTable:
    """Enumerate errors by ascending weight; the first error seen per
    syndrome is stored.  With max_weight None, enumeration continues until
    every possible syndrome has an entry (or weight n is exhausted).
    """
    if code.m > LOOKUP_SYNDROME_GUARD:
        raise DecoderError(
            f"{code.m}-bit syndromes need a 2^{code.m} table; guard is 2^{LOOKUP_SYNDROME_GUARD}"
        )
    fill_all = max_weight is None
    limit = code.n if fill_all else max_weight
    table: dict[int, PauliOperator] = {0: identity(code.n)}
    total = 1 << code.m
    for w in range(1, limit + 1):
        for p in enumerate_paulis(code.n, w):
            table.setdefault(code.syndrome_value(p), p)
        if fill_all and len(table) == total:
            break
    return LookupTable(code=code, max_weight=limit, table=table)


class LookupDecoder:
    name = "lookup"

    def __init__(self, code: StabilizerCode, max_weight: int | None = None):
        self.table = build_lookup(code, max_weight)
        self.code = code

    def decode_value(self, value: int) -> PauliOperator:
        """Stored recovery for a syndrome value; a miss is the identity."""
        return self.table.table.get(value, identity(self.code.n))

    @cached_property
    def _class_table(self) -> np.ndarray:
        """Per syndrome value: the `logical_batch` row of `decode_value`,
        then a miss column (set where the table has no entry)."""
        hits = np.fromiter(self.table.table, dtype=np.intp)
        table = np.zeros((1 << self.code.m, 2 * self.code.k + 1), dtype=bool)
        table[:, -1] = True
        table[hits, :-1] = self.code.logical_batch(self.code.pack(self.table.table.values()))
        table[hits, -1] = False
        return table

    def decode_batch(self, syndromes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Recovery classes of packed syndromes; a syndrome missing from a
        truncated table is a failure.  `np.take` gathers twice as fast as []."""
        rows = np.take(self._class_table, syndromes[:, 0], axis=0)
        return rows[:, :-1], rows[:, -1]


# --- exact minimum-weight matching ------------------------------------------


def minimum_weight_matching(
    dist: Sequence[Sequence[int]], boundary: Sequence[int]
) -> tuple[int, list[tuple[int, int | None]]]:
    """Exact minimum-cost matching of defects to each other or the boundary.

    dist[i][j] = dist[j][i] is the pair cost, boundary[i] the cost of
    sending defect i to its boundary.  Returns (total cost, pairs) with None
    marking a boundary match.  Solves one component at a time; raises
    InstanceTooLargeError if one has more than DEFAULT_DEFECT_CAP defects.
    """
    k = len(boundary)
    neighbours, rings = _neighbours(dist, boundary)
    memo, flips, cost, pairs = {0: _NOTHING}, [False] * k, 0, []
    for mask in _components((1 << k) - 1, neighbours):
        half, bound = _half_costs(mask, rings)
        cost += _optimum(mask, memo, (neighbours, boundary, dist, flips, half), bound)[0]
        while mask:
            low = mask & -mask
            partner = memo[mask][2]
            pairs.append((low.bit_length() - 1, None if partner < 0 else partner))
            mask ^= low if partner < 0 else low | 1 << partner
    return cost, pairs


def _neighbours(dist, boundary) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """Per defect i, a bitmask of the pair edges that beat two boundary
    matches (dropping the rest, ties too, keeps the optimal cost and splits
    the defect graph into small components), and those edges as rings for
    `_half_costs`: (w, mask of the edges of cost w) for each w below
    2 boundary[i], ascending, then (2 boundary[i], -1 = every defect)."""
    masks, rings = [], []
    for i, b in enumerate(boundary):
        kept, ring = 0, {2 * b: -1}
        for j, w in enumerate(dist[i]):
            if j != i and w < b + boundary[j]:
                kept |= 1 << j
                if w < 2 * b:
                    ring[w] = ring.get(w, 0) | 1 << j
        masks.append(kept)
        rings.append(sorted(ring.items()))
    return masks, rings


# Memo entry of the empty defect set: (cost, flip parity, partner).
_NOTHING = (0, False, -1)


def _half_costs(mask: int, rings) -> tuple[dict[int, int], int]:
    """`_optimum`'s h_i for each defect i of `mask` (the first ring of i
    that meets `mask`), and their sum."""
    half, todo = {}, mask
    while todo:
        i = (todo & -todo).bit_length() - 1
        todo &= todo - 1
        for w, ring in rings[i]:
            if ring & mask:
                break
        half[i] = w
    return half, sum(half.values())


def _optimum(mask: int, memo: dict, graph, bound: int) -> tuple[int, bool, int]:
    """Memo entry (cost, flip parity of the boundary matches, partner) of
    the exact optimum on the defects of `mask`, which is non-empty and not
    yet in `memo` (callers try `memo.get(mask) or _optimum(mask, ...)`).
    The lowest defect i takes its boundary (partner -1) unless a kept edge
    to a neighbour j, tried in ascending order, is strictly cheaper.  An
    entry depends on `mask` alone, so one memo serves many calls on one table.

    `graph` is (neighbours, boundary, dist, flips, half), with half[i] =
    h_i = min(2 boundary[i], dist[i][j] over kept edges i-j in a superset
    of `mask`); `bound` is the sum of h over `mask`.  With dist symmetric a
    defect pays its boundary or half an edge, so 2 opt(S) >= sum of h over
    S (admissible).  j is skipped unsolved when 2 dist[i][j] + bound(rest
    - j) >= 2 cost: it cannot be strictly cheaper, so no entry changes."""
    neighbours, boundary, dist, flips, half = graph
    low = mask & -mask
    i = low.bit_length() - 1
    rest = mask ^ low
    bound -= half[i]
    cost, flip, _ = memo.get(rest) or _optimum(rest, memo, graph, bound)
    cost += boundary[i]
    flip ^= flips[i]
    partner = -1
    others, row = neighbours[i] & rest, dist[i]
    while others:
        bit = others & -others
        others ^= bit
        j = bit.bit_length() - 1
        if 2 * (row[j] - cost) + bound < half[j]:
            sub = rest ^ bit
            c, f, _ = memo.get(sub) or _optimum(sub, memo, graph, bound - half[j])
            if c + row[j] < cost:
                cost, flip, partner = c + row[j], f, j
    hit = memo[mask] = (cost, flip, partner)
    return hit


def _components(mask: int, neighbours: list[int]) -> list[int]:
    """Connected components of the defects in `mask`, as bitmasks.  The
    only place that applies the cap: raises InstanceTooLargeError if a
    component has more than DEFAULT_DEFECT_CAP defects."""
    components = []
    while mask:
        component = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            grown = neighbours[low.bit_length() - 1] & mask & ~component
            component |= grown
            frontier = (frontier ^ low) | grown
        if component.bit_count() > DEFAULT_DEFECT_CAP:
            raise InstanceTooLargeError(
                f"instance too large: a {component.bit_count()}-defect component"
                f" exceeds cap {DEFAULT_DEFECT_CAP}"
            )
        components.append(component)
        mask ^= component
    return components


# --- surface-code MWPM -------------------------------------------------------


@dataclass(frozen=True)
class MatchingProblem:
    """One sector's matching instance, exposed for inspection and tests."""

    sector: str  # "X": X-errors / flagged Z-checks; "Z": Z-errors / flagged X-checks
    defects: tuple[tuple[str, tuple[int, int]], ...]  # (check id, coordinate)
    boundary_costs: tuple[int, ...]
    pair_costs: tuple[tuple[int, ...], ...]


class _Sector:
    """Precomputed geometry for one check species of a surface layout."""

    def __init__(self, layout: SurfaceLayout, check_kind: str):
        side = 2 * layout.lam - 1
        self.sector = "X" if check_kind == "Z" else "Z"  # error species decoded
        self.coords, self.ids, self._local = [], [], {}
        for gi, rec in enumerate(layout.ancilla_records):
            if rec.kind == check_kind:
                self._local[gi] = len(self.coords)  # generator -> defect index
                self.coords.append(rec.coord)
                self.ids.append(rec.ancilla_id)
        self.sector_mask = sum(1 << gi for gi in self._local)
        # Z-checks pair through vertical steps to the top/bottom boundary;
        # X-checks through horizontal steps to the left/right boundary.
        axis = 0 if check_kind == "Z" else 1
        self.pair_cost = [
            [(abs(a[0] - b[0]) + abs(a[1] - b[1])) // 2 for b in self.coords]
            for a in self.coords
        ]
        # Chain lengths exiting toward coordinate 0 and toward the far side.
        near = [(coord[axis] + 1) // 2 for coord in self.coords]
        far = [(side - coord[axis]) // 2 for coord in self.coords]
        self.boundary_cost = list(map(min, near, far))
        # A chain to the coordinate-0 side crosses the conjugate logical
        # (Z̄ on the top row, X̄ on the left column: `conjugate`) once; pair
        # chains never reach it.  Ties go to the far side.
        self.boundary_flips = [a < b for a, b in zip(near, far)]
        self.conjugate = sum(1 << (q - 1) for q, c in layout.data_coords.items() if c[axis] == 0)
        # The pruning graph depends only on the layout, so it is built once,
        # as int bitmasks and cost rings for the DP and packed words for the
        # batch pass.
        self.neighbours, self.rings = _neighbours(self.pair_cost, self.boundary_cost)
        self.generators = np.array(list(self._local), dtype=np.intp)
        k, self.words = len(self.coords), -(-len(self.coords) // 64)
        adjacency = np.array([[m >> j & 1 for j in range(k)] for m in self.neighbours], dtype=bool)
        self.neighbour_words = _pack_bits(adjacency, self.words)
        self.flip_words = _pack_bits(np.array([self.boundary_flips]), self.words)

    def defects_of(self, syndrome_value: int) -> list[int]:
        """Flagged checks of this sector, in ascending generator order (the
        matching's tie-breaks depend on that order)."""
        defects = []
        v = syndrome_value & self.sector_mask
        while v:
            low = v & -v
            defects.append(self._local[low.bit_length() - 1])
            v ^= low
        return defects

    def problem(self, defects: list[int]) -> MatchingProblem:
        return MatchingProblem(
            sector=self.sector,
            defects=tuple((self.ids[i], self.coords[i]) for i in defects),
            boundary_costs=tuple(self.boundary_cost[i] for i in defects),
            pair_costs=tuple(
                tuple(self.pair_cost[i][j] for j in defects) for i in defects
            ),
        )

    def logical_flip(self, syndrome_value: int) -> bool:
        """Parity of the defects the matching sends to a flipping boundary,
        solved one component at a time: the reference for `shortcut`."""
        mask = sum(1 << i for i in self.defects_of(syndrome_value))
        return self.flip(_components(mask, self.neighbours))

    def flip(self, components: list[int]) -> bool:
        """Flip parity of the optimum on disjoint `components` (one memo)."""
        memo, flip = {0: _NOTHING}, False
        for mask in components:
            half, bound = _half_costs(mask, self.rings)
            graph = (self.neighbours, self.boundary_cost, self.pair_cost, self.boundary_flips, half)
            flip ^= _optimum(mask, memo, graph, bound)[1]
        return flip

    def shortcut(self, present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Numpy pass over the rows of `present` (flagged checks in sector
        order): the boundary flips of isolated defects (isolated pairs add
        nothing), and the packed rest, the components of three or more that
        `flip` must solve.  Degrees count in uint8, so a row with more than
        255 defects skips the pass and is left whole."""
        words, small = self.words, present
        if present.shape[1] > 255:  # else no row can have 256 defects
            small = present & (present.sum(axis=1, keepdims=True) <= 255)
        degree = and_popcount(_pack_bits(present, words), self.neighbour_words)
        isolated = small & (degree == 0)
        single = small & (degree == 1)
        paired = single & (and_popcount(_pack_bits(single, words), self.neighbour_words) == 1)
        flips = (and_popcount(_pack_bits(isolated, words), self.flip_words)[:, 0] & 1).astype(bool)
        return flips, _pack_bits(present & ~isolated & ~paired, words)


class MwpmDecoder:
    """Exact MWPM decoder for codes carrying a SurfaceLayout."""

    name = "mwpm"

    def __init__(self, code: StabilizerCode):
        if code.layout is None:
            raise DecoderError(f"code {code.name!r} has no lattice layout; MWPM needs one")
        self.code = code
        self._z_checks = _Sector(code.layout, "Z")  # X-error sector
        self._x_checks = _Sector(code.layout, "X")  # Z-error sector
        # Symplectic vectors, built here so that a pickled decoder carries
        # them to every worker.
        self._pure = [code._symplectic(p) for p in code.pure_errors]
        self._xbar, self._zbar = (code._symplectic(p) for p in code.logicals[0])
        conjugates = (self._x_checks.conjugate, self._z_checks.conjugate << code.n)
        if (self._xbar, self._zbar) != conjugates:
            raise DecoderError("MWPM needs X̄ down the left column and Z̄ across the top row")

    def matching_problems(self, s: Syndrome) -> dict[str, MatchingProblem]:
        sectors = (self._z_checks, self._x_checks)
        return {sector.sector: sector.problem(sector.defects_of(s.value)) for sector in sectors}

    def decode_value(self, value: int) -> PauliOperator:
        """Recovery for a syndrome value (bit i = generator i), built as the
        module docstring says.  Each sector is split by component with no
        numpy pass, so this is the reference whose class `decode_batch`
        must equal."""
        v = 0
        if self._z_checks.logical_flip(value):
            v = self._xbar
        if self._x_checks.logical_flip(value):
            v ^= self._zbar
        while value:
            low = value & -value
            v ^= self._pure[low.bit_length() - 1]
            value ^= low
        n = self.code.n
        return PauliOperator(n, v & ((1 << n) - 1), v >> n)

    def decode_batch(self, syndromes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Class of `decode_value` of each row.  `_Sector.shortcut` resolves
        isolated defects and pairs; a row with defects left takes the
        components of both sectors before any DP, so a row that gives up (a
        component over the cap: flagged, its class moot) runs no DP."""
        bits = np.unpackbits(syndromes.view(np.uint8), axis=1, bitorder="little").view(bool)
        sectors = (self._z_checks, self._x_checks)
        flips, rests = zip(*(sector.shortcut(bits[:, sector.generators]) for sector in sectors))
        failed = np.zeros(len(syndromes), dtype=bool)
        for row in np.flatnonzero(rests[0].any(axis=1) | rests[1].any(axis=1)):
            try:
                split = [
                    _components(int.from_bytes(rest[row].tobytes(), "little"), sector.neighbours)
                    for sector, rest in zip(sectors, rests)
                ]
            except InstanceTooLargeError:
                failed[row] = True
                continue
            for sector, flip, components in zip(sectors, flips, split):
                if components:
                    flip[row] ^= sector.flip(components)
        # X̄ (the X sector's flip) anti-commutes with Z̄, and Z̄ with X̄.
        return np.stack(flips[::-1], axis=1), failed
