"""Syndrome decoding: an exhaustive minimum-weight lookup table
(`LookupDecoder`, which builds and holds it) and exact minimum-weight
perfect matching on the check graphs of CSS codes (`MwpmDecoder`).

Tie-breaking is the same everywhere: minimum weight first, then the
enumeration order of `pauli.enumerate_paulis` (ascending support, letters
X < Y < Z), so decoded recoveries are reproducible golden values.

Matching model (Dennis et al., quant-ph/0110143) on a graph built from the
check matrix, as PyMatching builds it (arXiv:2105.13082): flagged Z-checks
are the defects of the X-error sector, flagged X-checks those of the
Z-error sector.  A data qubit is an edge between the two checks of the
sector's type that hold it, or to the boundary if only one does.  A pair
cost counts the qubits on a shortest path between two checks, a boundary
cost those on a shortest path that ends in a boundary edge.  Every defect
may take its boundary independently (unused virtual boundary nodes pair
at zero cost), and the matching is exact.  Edges that cannot beat two
boundary matches are pruned, once per sector: a `_Sector` holds one
instance's costs and its pruning graph (`minimum_weight_matching` builds
one too).  Cost and flip parity add over the components of the pruned
graph, and the picks in one do not depend on the rest, so every entry
point goes through one loop, `_Sector.flips`: over a list of defect sets,
one BFS splits each set into components and bounds them, and each is
solved alone, at any size: a one-sided one by parity, a mixed one by an
exact iterative-deepening search whose ties go, at each step, to the
first option (boundary, then partners ascending) that reaches the
optimum.  Only a component of more than `_SEARCH_DEFECTS` raises
(DecoderError): its search could pass Python's recursion limit.
`decode_batch` runs one `_Sector.decode` per sector, in two stages: the
sector's own cost table settles each row of 1 to `_SLOTS` defects by its
first optimal matching in option order (`settle`), and one `flips` call
solves the rows of more.  That first matching is the search's pick: it
pairs no pruned edge (two boundary matches cost no more and come first),
and on kept edges option order compares each component's picks in their
own order; isolated defects and isolated pairs are rows like any other.
No float matmul: BLAS threads oversubscribe `montecarlo`'s worker pool.

Recovery: the matching only picks each sector's logical class.  An edge
flips if its qubit is on the logical that the sector's errors can
anti-commute with (for X-errors, the Z-type one of X̄ and Z̄); no pair edge
does, and a boundary tie goes to no flip.  MWPM's `decode_value` reads its
class row from `decode_batch` (the tests keep the reference: `flips` on
each sector's whole defect set) and returns the product of `pure_errors`
over the flagged checks, times Z̄ (X̄) where column 0 (1) is set: the
matched chains up to a stabilizer, but not minimum weight.

Decoder protocol: a `name`; `decode_batch(packed syndromes) -> (classes,
failed)`: each row's class, as `StabilizerCode.parity_batch` gives an
error's (column 2i (2i+1) set where it anti-commutes with X̄_i (Z̄_i)), and
the rows it gave up on (a truncated lookup table's misses; MWPM has none);
`decode_value(int) -> PauliOperator`, a recovery of that class for one
syndrome value in [0, 2^m) (bit i = generator i), else ValueError.  Either
may raise `DecoderError`.  Every recovery has its input syndrome, and pure
errors commute with every logical, so a trial succeeds iff its error has
that class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pauli import PauliOperator, enumerate_paulis, identity
from .stabilizer_code import LOOKUP_SYNDROME_GUARD, StabilizerCode, Syndrome
from .stabilizer_code import _checked_value, _pack_bits, _pack_ints, _set_bits

# The search recurses once per pick, so at most once per defect: past this
# many, with the caller's frames, it could pass Python's default limit of
# 1,000 frames.
_SEARCH_DEFECTS = 512


class DecoderError(Exception):
    pass


# --- lookup decoding ---------------------------------------------------------


class LookupDecoder:
    """Syndrome -> minimum-weight recovery, built by exhaustive enumeration:
    errors by ascending weight up to max_weight (None: n), the first seen
    per syndrome stored.  Enumeration stops once every possible syndrome
    has an entry.  The constructor also builds `decode_batch`'s class
    table: per syndrome value, the class of `decode_value` (see the
    protocol), then a miss column (set where the table has no entry).  A
    class row holds the parities of the recovery against the code's logical
    check rows, the rows `parity_batch` gathers for an error's class."""

    name = "lookup"

    def __init__(self, code: StabilizerCode, max_weight: int | None = None):
        if code.m > LOOKUP_SYNDROME_GUARD:
            raise DecoderError(
                f"{code.m}-bit syndromes need a 2^{code.m} table; guard is 2^{LOOKUP_SYNDROME_GUARD}"
            )
        self.code = code
        max_weight = code.n if max_weight is None else max_weight
        if max_weight < 0:
            raise ValueError("max_weight must be >= 0")
        self.table: dict[int, PauliOperator] = {0: identity(code.n)}
        for w in range(1, max_weight + 1):
            for p in enumerate_paulis(code.n, w):
                self.table.setdefault(code.syndrome_value(p), p)
            if len(self.table) == 1 << code.m:
                break
        self._class_table = np.zeros((1 << code.m, 2 * code.k + 1), dtype=bool)
        self._class_table[:, -1] = True
        self._class_table[np.fromiter(self.table, dtype=np.intp)] = [
            [(row & v).bit_count() & 1 for row in code._check_rows[code.m :]] + [0]
            for v in map(code._symplectic, self.table.values())
        ]

    def decode_value(self, value: int) -> PauliOperator:
        """Stored recovery for a syndrome value in [0, 2^m); a miss is the identity."""
        return self.table.get(_checked_value(value, self.code.m), identity(self.code.n))

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
    sending defect i to its boundary.  Returns (total cost, pairs), None
    marking a boundary match, from `_Sector.flips`' per-component record.
    """
    k = len(boundary)
    record = []
    _Sector(None, range(k), dist, boundary, [False] * k).flips([(1 << k) - 1], record)
    return sum(cost for _, cost, _ in record), [pair for *_, pairs in record for pair in pairs]


def _matchings(slots: list[int]) -> list[dict[int, int]]:
    """Every matching of `slots` as a partner map (i: i for a boundary), in
    the search's option order: the lowest slot's boundary, then its partners ascending."""
    if not slots:
        return [{}]
    low, *rest = slots
    return [{low: j, j: low, **m} for j in slots for m in _matchings([s for s in rest if s != j])]


# `_Sector.settle` costs all T(6) = 76 matchings of up to 6 defects (8 slots, 764 matchings,
# made d3 batches slower); _PARTNER[i, m]: slot i's partner in m, _PAIRS[i, m]: flat (i, partner).
_SLOTS = 6
_PARTNER = np.array([[m[i] for i in range(_SLOTS)] for m in _matchings(list(range(_SLOTS)))]).T
_PAIRS = _PARTNER + _SLOTS * np.arange(_SLOTS)[:, None]


# --- MWPM on a CSS code's check graph ----------------------------------------


@dataclass(frozen=True)
class MatchingProblem:
    """One sector's matching instance, exposed for inspection and tests."""

    sector: str  # "X": X-errors / flagged Z-checks; "Z": Z-errors / flagged X-checks
    defects: tuple[tuple[int], ...]  # (generator index,) of each flagged check
    boundary_costs: tuple[int, ...]
    pair_costs: tuple[tuple[int, ...], ...]


class _Sector:
    """One sector's matching instance, on the checks with generator indices
    `checks` (ascending), and what its two decode stages use, built from it
    once: the pruning graph (`flips`) and the cost table (`settle`)."""

    def __init__(self, sector, checks, pair_cost, boundary_cost, boundary_flips):
        self.sector = sector  # error species decoded
        self.pair_cost, self.boundary_cost = pair_cost, boundary_cost
        self.boundary_flips = boundary_flips
        self.flipping = sum(1 << i for i, f in enumerate(boundary_flips) if f)
        # The pruning graph: per defect i, a bitmask of the pair edges that
        # beat two boundary matches (dropping the rest, ties too, keeps the
        # optimal cost and splits the defect graph into small components),
        # and those edges as rings for `flips`: (w, mask of the edges of cost
        # w) for each w below 2 boundary[i], ascending, then (2 boundary[i],
        # -1 = every defect).
        self.neighbours, self.rings = [], []
        for i, b in enumerate(boundary_cost):
            kept, ring = 0, {2 * b: -1}
            for j, w in enumerate(pair_cost[i]):
                if j != i and w < b + boundary_cost[j]:
                    kept |= 1 << j
                    if w < 2 * b:
                        ring[w] = ring.get(w, 0) | 1 << j
            self.neighbours.append(kept)
            self.rings.append(sorted(ring.items()))
        self.generators = np.array(checks, dtype=np.intp)
        self.words = -(-len(checks) // 64)
        # `settle`'s costs (a matching pays twice its cost) in the smallest dtype
        # that holds them: doubled boundaries on the diagonal, pairs off it, then a
        # padding check, free boundary, whose pairs are pruned (cost >= any boundary).
        k, largest = len(boundary_cost), max(boundary_cost, default=0)
        costs = np.pad(np.array(pair_cost, int).reshape(k, k), (0, 1), constant_values=largest)
        np.fill_diagonal(costs, 2 * np.array([*boundary_cost, 0]))
        self.costs = costs.astype(np.min_scalar_type(costs.max()))
        self.sides = np.array([*boundary_flips, False])

    def defects_of(self, syndrome_value: int) -> list[int]:
        """Flagged checks of this sector, in ascending generator order (the
        matching's tie-breaks depend on that order)."""
        return [i for i, gi in enumerate(self.generators.tolist()) if syndrome_value >> gi & 1]

    def problem(self, defects: list[int]) -> MatchingProblem:
        return MatchingProblem(
            sector=self.sector,
            defects=tuple((int(self.generators[i]),) for i in defects),
            boundary_costs=tuple(self.boundary_cost[i] for i in defects),
            pair_costs=tuple(
                tuple(self.pair_cost[i][j] for j in defects) for i in defects
            ),
        )

    def flips(self, masks: list[int], record: list | None = None) -> list[bool]:
        """Flip parity of the optimum on each defect set of `masks`, solved
        one component of the pruning graph at a time, all in one loop.

        One BFS finds each component and bounds it: half[i] = h_i is the
        cost of the first ring of defect i that meets the set, and `bound`
        their sum over the component.  Kept edges never leave a component,
        so these are its h alone; with dist symmetric a defect pays its
        boundary or half an edge, so the sum of h over any S within it is at
        most 2 opt(S) (admissible).  A one-sided component, whose defects
        all flip or all do not, is settled by the parity of its flipping
        defects: a pair path never flips and pairs cover an even number of
        defects, so every matching of k defects that all flip f makes k mod
        2 boundary matches and flips f (k mod 2).  A mixed one is searched.
        With `record` a list, every component is searched and (component,
        cost, pairs) appended: the search's picks in order, each the lowest
        unmatched defect i as (i, j) with its partner j, or (i, None).

        The search is iterative deepening (IDA*, Korf 1985) in doubled
        cost: each pass is a depth-first search (`visit`) under a limit that
        starts at `bound` rounded up to even and rises by 2.  The lowest
        defect tries its boundary, then its kept partners ascending, each
        only if its spent cost plus the h, or a learned bound, of the
        unmatched set fits the limit; a node that fails learns that its set
        costs more than its budget (without this a star-shaped component
        takes millions of visits).  A pass is exhaustive below its limit, so
        the first to complete has limit 2 opt, and its first matching takes
        at every depth the first option in that order that reaches the
        optimum: that is the tie-break.  A component of more than
        `_SEARCH_DEFECTS` raises DecoderError.  The call makes one `half`
        list, one `learned` dict (cleared per component) and one `visit`."""
        rings, neighbours, flipping = self.rings, self.neighbours, self.flipping
        boundary, dist, sides = self.boundary_cost, self.pair_cost, self.boundary_flips
        half, learned, pairs = [0] * len(rings), {}, []
        known = learned.get

        def visit(mask, budget, bound):
            # Flip parity of the first matching of `mask` within `budget`, or None.
            low = mask & -mask
            i = low.bit_length() - 1
            rest = mask ^ low
            bound -= half[i]
            spare = budget - 2 * boundary[i]
            if bound <= spare and known(rest, 0) <= spare:
                flip = visit(rest, spare, bound) if rest else False
                if flip is not None:
                    pairs.append((i, None))
                    return flip ^ sides[i]
            others = neighbours[i] & rest
            if others:
                row = dist[i]
                while others:
                    bit = others & -others
                    others ^= bit
                    j = bit.bit_length() - 1
                    spare, left = budget - 2 * row[j], bound - half[j]
                    if left <= spare and known(sub := rest ^ bit, 0) <= spare:
                        flip = visit(sub, spare, left) if sub else False
                        if flip is not None:
                            pairs.append((i, j))
                            return flip
            learned[mask] = budget + 2  # 2 opt(mask) is even and above budget
            return None

        found = []
        for mask in masks:
            flip = False
            while mask:
                component = frontier = mask & -mask
                bound = 0
                while frontier:
                    low = frontier & -frontier
                    i = low.bit_length() - 1
                    grown = neighbours[i] & mask & ~component
                    component |= grown
                    frontier = (frontier ^ low) | grown
                    for w, ring in rings[i]:
                        if ring & mask:
                            break
                    half[i] = w
                    bound += w
                mask ^= component
                side = component & flipping
                if record is None and side in (0, component):
                    flip ^= side.bit_count() & 1
                    continue
                if component.bit_count() > _SEARCH_DEFECTS:
                    raise DecoderError(
                        f"a {component.bit_count()}-defect matching component is over the"
                        f" search's {_SEARCH_DEFECTS}"
                    )
                learned.clear()
                limit = bound + (bound & 1)
                while (parity := visit(component, limit, bound)) is None:
                    limit += 2
                flip ^= parity
                if record is not None:
                    record.append((component, limit // 2, pairs[::-1]))
                pairs.clear()
            found.append(flip)
        return found

    def settle(self, flip: np.ndarray, rest: np.ndarray) -> np.ndarray:
        """XOR into `flip` the flip of each row of packed defects `rest` with 1
        to `_SLOTS` of them, isolated defects and pairs included, and return
        the rows of more, left to `flips`.  Defects fill slots in order, the
        padding check the rest; the first argmin of all doubled costs is the
        search's pick (module docstring)."""
        counts = np.bitwise_count(rest).sum(axis=1)
        settled = np.flatnonzero((counts > 0) & (counts <= _SLOTS))
        found, ranks, checks = _set_bits(rest[settled])  # found: position in `settled`
        slots = np.full((_SLOTS, len(settled)), len(self.costs) - 1)
        slots[ranks, found] = checks
        block = self.costs[slots[:, None], slots].reshape(_SLOTS * _SLOTS, -1)
        pick = np.take(block, _PAIRS, axis=0).sum(axis=0, dtype=np.int32).argmin(axis=0)
        boundary = _PARTNER[:, pick] == np.arange(_SLOTS)[:, None]
        flip[settled] ^= np.logical_xor.reduce(self.sides[slots] & boundary)
        return np.flatnonzero(counts > _SLOTS)

    def decode(self, present: np.ndarray) -> np.ndarray:
        """Flip parity of the optimum on each row of `present` (flagged checks
        in sector order): packed once, `settle`, then one `flips` call on the
        rows of more than `_SLOTS` defects that it leaves."""
        flip, rest = np.zeros(len(present), dtype=bool), _pack_bits(self.words, present)
        left = self.settle(flip, rest)
        flip[left] ^= np.fromiter(self.flips(_row_ints(rest[left])), bool, len(left))
        return flip


def _check_graph(supports: list[int], conjugate: int) -> tuple:
    """(pair_cost, boundary_cost, boundary_flips) of one sector's checks, by
    a BFS from each check and from each side's exits: `supports` are the
    checks' qubit sets (X-errors: the Z-checks' z bits), `conjugate` is the
    support of the logical the errors can anti-commute with.  Checks no path
    joins get pair cost 2k, at least two boundary costs (each at most k):
    pruned."""
    once = twice = 0
    for support in supports:
        if support & twice:
            raise DecoderError("a qubit is in over two checks of one type")
        twice |= once & support
        once |= support
    if twice & conjugate:
        raise DecoderError("a qubit of two checks is on the conjugate logical")
    links = [sum(1 << j for j, t in enumerate(supports) if s & t) for s in supports]  # itself too
    ends = once & ~twice  # qubits in one check: the boundary edges
    sides = (ends & ~conjugate, ends & conjugate)  # those that do not flip, and those that do
    exits = [sum(1 << i for i, s in enumerate(supports) if s & side) for side in sides]
    k, rows = len(supports), []
    for seeds in [1 << i for i in range(k)] + exits:
        row = [2 * k] * k
        seen = frontier = seeds
        step = 0
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                j = low.bit_length() - 1
                row[j] = step
                grown |= links[j]
            frontier = grown & ~seen
            seen |= frontier
            step += 1
        rows.append(row)
    *pair_cost, far, near = rows
    boundary_cost = [1 + min(a, b) for a, b in zip(near, far)]
    return pair_cost, boundary_cost, [a < b for a, b in zip(near, far)]


class MwpmDecoder:
    """Exact MWPM decoder for CSS codes with k = 1, an X-type and a Z-type
    logical, and each qubit in at most two checks of a type (then off the
    conjugate logical): of the built-ins, the repetition codes, `two_qubit`,
    Shor's code and the surface codes.  Others raise DecoderError."""

    name = "mwpm"

    def __init__(self, code: StabilizerCode):
        if any(g.x_bits and g.z_bits for g in code.generators):
            raise DecoderError(f"{code.name!r}: MWPM needs a CSS code (a generator has X and Z)")
        kinds = ["X" * bool(p.x_bits) + "Z" * bool(p.z_bits) for p in sum(code.logicals, ())]
        if sorted(kinds) != ["X", "Z"]:
            raise DecoderError(f"{code.name!r}: MWPM needs k = 1, an X-type and a Z-type logical")
        pair, c = code.logicals[0], kinds.index("Z")
        self.code = code
        sectors = []  # the X-error sector (on Z-checks), then the Z-error sector
        for sector, rows, conjugate in (
            ("X", [g.z_bits for g in code.generators], pair[c].z_bits),
            ("Z", [g.x_bits for g in code.generators], pair[1 - c].x_bits),
        ):
            checks = [gi for gi, row in enumerate(rows) if row]
            graph = _check_graph([rows[gi] for gi in checks], conjugate)
            sectors.append(_Sector(sector, checks, *graph))
        self._z_checks, self._x_checks = sectors
        self._columns = (c, 1 - c)  # the class column each sector's flip sets, and its own inverse

    def matching_problems(self, s: Syndrome) -> dict[str, MatchingProblem]:
        sectors = (self._z_checks, self._x_checks)
        return {sector.sector: sector.problem(sector.defects_of(s.value)) for sector in sectors}

    def decode_value(self, value: int) -> PauliOperator:
        """Recovery for a syndrome value in [0, 2^m): its `decode_batch`
        class row, made an operator as the module docstring says."""
        code, v = self.code, 0
        row = self.decode_batch(_pack_ints([_checked_value(value, code.m)], -(-code.m // 64)))[0][0]
        ops = [q for q, flip in zip(code.logicals[0][::-1], row.tolist()) if flip]  # Z̄, then X̄
        for op in ops + [code.pure_errors[i] for i in range(code.m) if value >> i & 1]:
            v ^= code._symplectic(op)
        return PauliOperator(code.n, v & ((1 << code.n) - 1), v >> code.n)

    def decode_batch(self, syndromes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Class of each row, none failed: each sector decodes its own
        checks' columns (`_Sector.decode`) into its `_columns` column."""
        bits = np.unpackbits(syndromes.view(np.uint8), axis=1, bitorder="little").view(bool)
        flips = [s.decode(bits[:, s.generators]) for s in (self._z_checks, self._x_checks)]
        return np.stack(flips, axis=1)[:, self._columns], np.zeros(len(syndromes), dtype=bool)


def _row_ints(packed: np.ndarray) -> list[int]:
    """Rows of packed uint64 words as Python ints, in one `tolist` when
    they are single words."""
    if packed.shape[1] == 1:
        return packed[:, 0].tolist()
    return [int.from_bytes(row.tobytes(), "little") for row in packed]
