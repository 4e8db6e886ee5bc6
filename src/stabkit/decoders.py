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
`decode_batch` first settles isolated defects and isolated pairs with
packed AND+popcount arithmetic (`_Sector.shortcut`), then each sector row
left with at most `_SLOTS` defects by its first optimal matching in option
order (`_settle_small`), and one `flips` call per sector the rest.  That
first matching is the search's pick: it pairs no pruned edge (two boundary
matches cost no more and come first), and on kept edges option order
compares each component's picks in their own order.  No float matmul:
BLAS threads oversubscribe `montecarlo`'s worker pool.

Recovery: the matching only picks each sector's logical class.  An edge
flips if its qubit is on the logical that the sector's errors can
anti-commute with (for X-errors, the Z-type one of X̄ and Z̄); no pair edge
does, and a boundary tie goes to no flip.  `decode_value` returns the
product of `StabilizerCode.pure_errors` over the flagged checks, times the
pair's other logical where a sector makes an odd number of flipping
matches: the matched chains up to a stabilizer, but not minimum weight.

Decoder protocol: a `name`; `decode_value(int) -> PauliOperator` for one
syndrome value (bit i = generator i), which may raise `DecoderError`; and
`decode_batch(packed syndromes) -> (classes, failed)`: the class of each
`decode_value`, as `StabilizerCode.parity_batch` gives an error's (column
2i (2i+1) set where it anti-commutes with X̄_i (Z̄_i)), and the rows it gave
up on (a truncated lookup table's misses; MWPM gives up on none).
Every recovery has its input syndrome, and pure errors commute with every
logical, so a trial succeeds iff its error has that class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pauli import PauliOperator, enumerate_paulis, identity
from .stabilizer_code import LOOKUP_SYNDROME_GUARD, StabilizerCode, Syndrome
from .stabilizer_code import _pack_bits, _pack_ints, _set_bits, and_popcount

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
        """Stored recovery for a syndrome value; a miss is the identity."""
        return self.table.get(value, identity(self.code.n))

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
    marking a boundary match.  Solves one component at a time.
    """
    k = len(boundary)
    record = []
    _Sector(None, range(k), dist, boundary, [False] * k).flips([(1 << k) - 1], record)
    cost, pairs = 0, []
    for mask, c, picks in record:
        cost += c
        for partner in picks:
            low = mask & -mask
            pairs.append((low.bit_length() - 1, None if partner < 0 else partner))
            mask ^= low if partner < 0 else low | 1 << partner
    return cost, pairs


def _matchings(slots: list[int]) -> list[dict[int, int]]:
    """Every matching of `slots` as a partner map (i: i for a boundary), in
    the search's option order: the lowest slot's boundary, then its partners ascending."""
    if not slots:
        return [{}]
    low, *rest = slots
    return [{low: j, j: low, **m} for j in slots for m in _matchings([s for s in rest if s != j])]


# `_settle_small` costs all T(6) = 76 matchings of up to 6 defects (8 slots, 764
# matchings, made d3 batches slower); _PARTNER[i, m]: slot i's partner in m.
_SLOTS = 6
_PARTNER = np.array([[m[i] for i in range(_SLOTS)] for m in _matchings(list(range(_SLOTS)))]).T


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
    `checks` (ascending), and the pruning graph built from it once."""

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
        # -1 = every defect).  Masks are packed for numpy.
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
        words = _pack_ints(self.neighbours + [self.flipping], self.words)
        self.neighbour_words, self.flip_words = words[:-1], words[-1:]

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
        cost, picks) appended: walking the picks, the lowest unmatched
        defect goes to its boundary (-1) or to the pick.

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
        half, learned, picks = [0] * len(rings), {}, []
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
                    picks.append(-1)
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
                            picks.append(j)
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
                    record.append((component, limit // 2, picks[::-1]))
                picks.clear()
            found.append(flip)
        return found

    def shortcut(self, present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Numpy pass over the rows of `present` (flagged checks in sector
        order).  It settles isolated defects, whose boundary is their only
        option, and isolated pairs, whose kept edge costs less than their
        two boundary matches and never flips; both hold for any positive
        costs.  Returns the flip parity of the settled defects and the
        packed rest, which `_settle_small` and `flips` must solve."""
        words = self.words
        degree = and_popcount(_pack_bits(words, present), self.neighbour_words)
        isolated = present & (degree == 0)
        single = present & (degree == 1)
        paired = single & (and_popcount(_pack_bits(words, single), self.neighbour_words) == 1)
        settled = _pack_bits(words, isolated)
        rest = _pack_bits(words, present & ~isolated & ~paired)
        return (and_popcount(settled, self.flip_words)[:, 0] & 1).astype(bool), rest


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
        self._columns = (c, 1 - c)  # the class column each sector's flip sets
        # `_settle_small`'s per-slot costs (a matching pays twice its cost): doubled
        # boundaries on the diagonal, each sector's pairs, padding last, else unaffordable.
        boundary = sectors[0].boundary_cost + sectors[1].boundary_cost + [0]
        self._costs = np.full((len(boundary),) * 2, 1 + 2 * _SLOTS * max(boundary), dtype=np.int32)
        for sector, at in zip(sectors, (0, len(sectors[0].boundary_cost))):
            k = len(sector.boundary_cost)
            self._costs[at : at + k, at : at + k] = np.reshape(sector.pair_cost, (k, k))
        np.fill_diagonal(self._costs, 2 * np.array(boundary))
        self._flipping = np.array(sectors[0].boundary_flips + sectors[1].boundary_flips + [False])

    def matching_problems(self, s: Syndrome) -> dict[str, MatchingProblem]:
        sectors = (self._z_checks, self._x_checks)
        return {sector.sector: sector.problem(sector.defects_of(s.value)) for sector in sectors}

    def decode_value(self, value: int) -> PauliOperator:
        """Recovery for a syndrome value (bit i = generator i), built as the
        module docstring says.  Each sector is split by component with no
        numpy pass, so this is the reference whose class `decode_batch`
        must equal."""
        code, v = self.code, 0
        for sector, column in zip((self._z_checks, self._x_checks), self._columns):
            if sector.flips([sum(1 << i for i in sector.defects_of(value))])[0]:
                v ^= code._symplectic(code.logicals[0][1 - column])
        while value:
            low = value & -value
            v ^= code._symplectic(code.pure_errors[low.bit_length() - 1])
            value ^= low
        return PauliOperator(code.n, v & ((1 << code.n) - 1), v >> code.n)

    def decode_batch(self, syndromes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Class of `decode_value` of each row, none failed.  `shortcut` settles
        isolated defects and isolated pairs; `_settle_small` rows of 1 to
        `_SLOTS` defects by their first optimum in option order, the search's
        pick (module docstring); one `flips` call per sector the rest."""
        bits = np.unpackbits(syndromes.view(np.uint8), axis=1, bitorder="little").view(bool)
        sectors = (self._z_checks, self._x_checks)
        flips, rests = zip(*(sector.shortcut(bits[:, sector.generators]) for sector in sectors))
        flips = np.stack(flips, axis=1)
        rest = np.zeros((len(flips), 2, max(r.shape[1] for r in rests)), dtype=np.uint64)
        rest[:, 0, : rests[0].shape[1]], rest[:, 1, : rests[1].shape[1]] = rests
        self._settle_small(flips, rest)
        for s, sector in enumerate(sectors):
            left = np.flatnonzero(rest[:, s].any(axis=1))
            flips[left, s] ^= np.fromiter(sector.flips(_row_ints(rest[left, s])), bool)
        # `_columns` is (0, 1) or (1, 0), its own inverse.
        return flips[:, self._columns], np.zeros(len(syndromes), dtype=bool)

    def _settle_small(self, flips: np.ndarray, rest: np.ndarray):
        """Settle each row of `rest` (trials by sector by packed words) with 1
        to `_SLOTS` defects: XOR its flip into `flips` and zero it.  Defects fill
        slots in order, padding the rest (free boundary, no pair); the first
        argmin of all doubled costs is the search's pick (module docstring)."""
        rows = rest.reshape(flips.size, rest.shape[2])  # one per (trial, sector)
        counts = np.bitwise_count(rows).sum(axis=1)
        settled = np.flatnonzero((counts > 0) & (counts <= _SLOTS))
        found, ranks, checks = _set_bits(rows[settled])  # found: position in `settled`
        slots = np.full((_SLOTS, len(settled)), len(self._costs) - 1)
        slots[ranks, found] = checks + len(self._z_checks.boundary_cost) * (settled[found] & 1)
        costs = self._costs[slots[:, None], slots]  # (slot, slot, row)
        pick = sum(costs[i, _PARTNER[i]] for i in range(_SLOTS)).argmin(axis=0)
        boundary = _PARTNER[:, pick] == np.arange(_SLOTS)[:, None]
        flips.reshape(-1)[settled] ^= np.logical_xor.reduce(self._flipping[slots] & boundary)
        rows[settled] = 0


def _row_ints(packed: np.ndarray) -> list[int]:
    """Rows of packed uint64 words as Python ints, in one `tolist` when
    they are single words."""
    if packed.shape[1] == 1:
        return packed[:, 0].tolist()
    return [int.from_bytes(row.tobytes(), "little") for row in packed]
