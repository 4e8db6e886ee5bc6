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
independently.  The matching itself is solved exactly: edges that cannot
beat two boundary matches are pruned, the defect graph splits into
connected components, and each component is solved by bitmask dynamic
programming.

Recovery: the matching only picks each sector's logical class.  A boundary
match toward coordinate 0 (top for X-errors, left for Z-errors) crosses the
conjugate logical once and a pair path never does.  The recovery is the
product of `StabilizerCode.pure_errors` over the flagged checks, times X̄
(Z̄) where the X (Z) sector makes an odd number of such matches: the matched
chains up to a stabilizer, so the same verdicts, but not minimum weight.

Decoder protocol: a `name`; `decode_value(int) -> PauliOperator` for one
syndrome value (bit i = generator i), which may raise `DecoderError`; and
`decode_batch(packed) -> (recoveries, failed)` on the packed syndromes of
`StabilizerCode.syndrome_batch`, returning packed recoveries
(`StabilizerCode.pack` rows) and a mask of the rows it gave up on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .pauli import PauliOperator, enumerate_paulis, format_sparse, identity
from .stabilizer_code import StabilizerCode, SurfaceLayout, Syndrome

LOOKUP_SYNDROME_GUARD = 20
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
        self._identity = identity(code.n)

    def decode_value(self, value: int) -> PauliOperator:
        """Stored recovery for a syndrome value; a miss is the identity."""
        return self.table.table.get(value, self._identity)

    @cached_property
    def _packed_table(self) -> np.ndarray:
        """Packed recovery per syndrome value; a miss stays the identity."""
        packed = np.zeros((1 << self.code.m, self.code.words), dtype=np.uint64)
        packed[list(self.table.table)] = self.code.pack(self.table.table.values())
        return packed

    def decode_batch(self, syndromes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Packed recoveries for packed syndromes; a lookup never gives up."""
        return self._packed_table[syndromes[:, 0]], np.zeros(len(syndromes), dtype=bool)


# --- exact minimum-weight matching ------------------------------------------


def minimum_weight_matching(
    dist: Sequence[Sequence[int]], boundary: Sequence[int]
) -> tuple[int, list[tuple[int, int | None]]]:
    """Exact minimum-cost matching of defects to each other or the boundary.

    dist[i][j] is the pair cost, boundary[i] the cost of sending defect i
    to its boundary.  Returns (total cost, pairs) with None marking a
    boundary match.  Raises InstanceTooLargeError above DEFAULT_DEFECT_CAP
    defects.
    """
    k = len(boundary)
    if k > DEFAULT_DEFECT_CAP:
        raise InstanceTooLargeError(f"instance too large: {k} defects exceed cap {DEFAULT_DEFECT_CAP}")
    if k == 0:
        return 0, []

    # An edge can only help if it beats two boundary matches; dropping ties
    # keeps the optimal cost and splits the graph into small components.
    adjacency = [[] for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if dist[i][j] < boundary[i] + boundary[j]:
                adjacency[i].append(j)
                adjacency[j].append(i)

    seen = [False] * k
    total = 0
    pairs: list[tuple[int, int | None]] = []
    for start in range(k):
        if seen[start]:
            continue
        component = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            component.append(v)
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        component.sort()
        cost, local_pairs = _match_component(component, dist, boundary, adjacency)
        total += cost
        pairs.extend(local_pairs)
    return total, pairs


def _match_component(
    nodes: list[int], dist, boundary, adjacency
) -> tuple[int, list[tuple[int, int | None]]]:
    """Memoized DP over one connected component, always resolving the lowest
    unmatched defect.  Pair options are restricted to surviving edges: a
    dropped edge costs at least as much as two boundary matches, so some
    optimal solution never uses one.
    """
    local = {node: i for i, node in enumerate(nodes)}
    adj = [
        [(local[w], dist[v][w]) for w in adjacency[v] if w in local] for v in nodes
    ]
    bnd = [boundary[v] for v in nodes]
    full = (1 << len(nodes)) - 1
    memo: dict[int, tuple[int, tuple[int, int]]] = {0: (0, (0, -1))}

    def solve(mask: int) -> int:
        hit = memo.get(mask)
        if hit is not None:
            return hit[0]
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        cost = bnd[low] + solve(rest)
        pick = (low, -1)
        for other, w in adj[low]:
            bit = 1 << other
            if rest & bit:
                trial = w + solve(rest ^ bit)
                if trial < cost:
                    cost = trial
                    pick = (low, other)
        memo[mask] = (cost, pick)
        return cost

    best = solve(full)
    pairs = []
    mask = full
    while mask:
        low, other = memo[mask][1]
        if other < 0:
            pairs.append((nodes[low], None))
            mask ^= 1 << low
        else:
            pairs.append((nodes[low], nodes[other]))
            mask ^= (1 << low) | (1 << other)
    return best, pairs


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
        """Parity of the defects the matching sends to a flipping boundary."""
        defects = self.defects_of(syndrome_value)
        dist = [[self.pair_cost[i][j] for j in defects] for i in defects]
        boundary = [self.boundary_cost[i] for i in defects]
        _, pairs = minimum_weight_matching(dist, boundary)
        return sum(self.boundary_flips[defects[a]] for a, b in pairs if b is None) % 2 == 1


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
        """Recovery for a syndrome value (bit i = generator i): the pure
        errors of the set bits, times X̄ and Z̄ where the matching picks the
        other logical class.  It equals the matching chains up to a
        stabilizer, but is not itself of minimum weight."""
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
        """`decode_value` row by row; rows that raise DecoderError are
        flagged in the returned mask and keep the identity recovery."""
        recoveries = np.zeros((len(syndromes), self.code.words), dtype=np.uint64)
        failed = np.zeros(len(syndromes), dtype=bool)
        rows, ops = [], []
        # A zero syndrome has no defects, so its recovery is the identity.
        for row in np.flatnonzero(syndromes.any(axis=1)):
            value = int.from_bytes(syndromes[row].tobytes(), "little")
            try:
                ops.append(self.decode_value(value))
                rows.append(row)
            except DecoderError:
                failed[row] = True
        recoveries[rows] = self.code.pack(ops)
        return recoveries, failed
