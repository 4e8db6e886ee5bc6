import functools
import gc
import hashlib
import itertools
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import stabkit
from stabkit import code_library as library
from stabkit import decoders as decoders_module
from stabkit.decoders import (
    DecoderError,
    LookupDecoder,
    MwpmDecoder,
    minimum_weight_matching,
)
from stabkit.noise import derive_seed, iid_xz, sample, sample_batch
from stabkit.pauli import (
    PauliOperator, commutes, enumerate_paulis, format_sparse, from_support, identity, multiply,
    parse, weight,
)
from stabkit.stabilizer_code import StabilizerCode, Syndrome, _pack_bits, _pack_ints, correctable_weight

from conftest import xz_rows


def brute_force_matching_cost(dist, boundary):
    """Minimum over every pairing, each defect pairable with the boundary
    (memoised on the unmatched set, which prunes nothing)."""
    @functools.cache
    def rec(unmatched):
        if not unmatched:
            return 0
        i, rest = unmatched[0], unmatched[1:]
        best = boundary[i] + rec(rest)
        for pos, j in enumerate(rest):
            best = min(best, dist[i][j] + rec(rest[:pos] + rest[pos + 1 :]))
        return best
    return rec(tuple(range(len(boundary))))


def unbounded_optimum(mask, memo, neighbours, boundary, dist, flips):
    """Memo entry (cost, flip parity of the boundary matches, partner) of
    the optimum on `mask`, by a memoised DP over defect sets with no bound:
    the lowest defect i takes its boundary (partner -1) unless a kept edge
    to a neighbour j, every one solved and tried in ascending order, is
    strictly cheaper.  The oracle for the search in `_Sector.flips`."""
    low = mask & -mask
    i = low.bit_length() - 1
    rest = mask ^ low
    cost, flip, _ = memo.get(rest) or unbounded_optimum(rest, memo, neighbours, boundary, dist, flips)
    cost += boundary[i]
    flip ^= flips[i]
    partner = -1
    others = neighbours[i] & rest
    while others:
        bit = others & -others
        others ^= bit
        j = bit.bit_length() - 1
        sub = rest ^ bit
        c, f, _ = memo.get(sub) or unbounded_optimum(sub, memo, neighbours, boundary, dist, flips)
        if c + dist[i][j] < cost:
            cost, flip, partner = c + dist[i][j], f, j
    hit = memo[mask] = (cost, flip, partner)
    return hit


def solve(sector, mask):
    """(cost, flip, picks) of the optimum on the non-empty defect set `mask`
    of `sector`, from `flips` with every component searched and recorded:
    costs summed, flips XORed, and the components' pairs (i, j), j None for
    a boundary match, read as picks in the order a search of the whole set
    takes them: the lowest unmatched defect i's partner j, or -1."""
    record = []
    flip = sector.flips([mask], record)[0]
    partners = {i: -1 if j is None else j for *_, pairs in record for i, j in pairs}
    picks, rest = [], mask
    while rest:
        low = rest & -rest
        partner = partners.pop(low.bit_length() - 1)
        picks.append(partner)
        rest ^= low if partner < 0 else low | 1 << partner
    assert not partners
    return sum(cost for _, cost, _ in record), flip, picks


def bits_of(mask):
    """Indices of the set bits of `mask`, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def component_masks(sector, mask):
    """Components of `sector`'s pruning graph on the defect set `mask`, as
    masks, lowest defect first: a BFS over `sector.neighbours`."""
    found = []
    while mask:
        component = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            grown = sector.neighbours[low.bit_length() - 1] & mask & ~component
            component |= grown
            frontier = (frontier ^ low) | grown
        found.append(component)
        mask ^= component
    return found


def logical_flip(sector, value):
    """Parity of the defects the matching sends to a flipping boundary:
    `sector.flips` on all of the value's defects in the sector, with no
    cost-table stage.  The reference for `settle` and `flips` run in turn."""
    return sector.flips([sum(1 << i for i in sector.defects_of(value))])[0]


def flips_classes(decoder, values):
    """The MWPM class reference: per syndrome value, each sector's
    `logical_flip` (`flips` on its whole defect set, no cost-table stage)
    in the class column that `_columns` gives that sector."""
    sectors = (decoder._z_checks, decoder._x_checks)
    flips = np.array([[logical_flip(s, v) for s in sectors] for v in values], dtype=bool)
    return flips.reshape(len(values), 2)[:, decoder._columns]


def decode_as_flips(code, decoder, values):
    """Assert that `decode_batch` gives `values` the `flips_classes`
    reference and fails none, and that each `decode_value` recovery has its
    value's syndrome and that class; return the classes."""
    expected = flips_classes(decoder, values)
    classes, failed = decoder.decode_batch(packed(code, values))
    assert not failed.any()
    assert np.array_equal(classes, expected)
    recoveries = [decoder.decode_value(v) for v in values]
    assert [code.syndrome_value(r) for r in recoveries] == values
    assert np.array_equal(code.parity_batch(*xz_rows(code.n, recoveries))[1], expected)
    return classes


def sector_mask(sector):
    """The syndrome value that flags every check of `sector`."""
    return sum(1 << gi for gi in sector.generators.tolist())


def search_and_dp(mask, sector):
    """`solve`'s (cost, flip, picks) on one defect set, the same
    triple from a fresh unbounded memo (its top entry, and the partners on
    the walk from `mask` down), and the number of memo states."""
    found = solve(sector, mask)
    graph = (sector.neighbours, sector.boundary_cost, sector.pair_cost, sector.boundary_flips)
    memo = {0: (0, False, -1)}
    cost, flip, _ = unbounded_optimum(mask, memo, *graph)
    picks, rest = [], mask
    while rest:
        partner = memo[rest][2]
        picks.append(partner)
        rest ^= rest & -rest | (0 if partner < 0 else 1 << partner)
    return found, (cost, flip, picks), len(memo) - 1


def profile_visits(run, on_call):
    """Run `run()`, calling `on_call(frame)` at each call of `visit`, the
    depth-first search inside `_Sector.flips`."""
    inner = next(
        c for c in decoders_module._Sector.flips.__code__.co_consts if isinstance(c, types.CodeType)
    )

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is inner:
            on_call(frame)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)


def search_calls(run):
    """Calls of `visit` while `run()` runs."""
    calls = []
    profile_visits(run, calls.append)
    return len(calls)


def sampled_components(lam, rates, seed, trials):
    """(sector, component) for the components of three or more defects, the
    ones the search solves, in sampled surface-code syndromes."""
    code = library.surface_code(lam)
    decoder = MwpmDecoder(code)
    found = []
    for s, p in enumerate(rates, seed):
        for value in sampled_syndromes(code, p, s, trials):
            for sector in (decoder._z_checks, decoder._x_checks):
                mask = sum(1 << i for i in sector.defects_of(value))
                found += [(sector, c) for c in component_masks(sector, mask) if c.bit_count() >= 3]
    return found


def packed(code, values):
    """Syndrome values as rows of uint64 words, as `parity_batch` packs them."""
    words = -(-code.m // 64)
    data = b"".join(v.to_bytes(8 * words, "little") for v in values)
    return np.frombuffer(data, dtype="<u8").reshape(len(values), words)


def sampled_syndromes(code, p, seed, trials):
    """Syndrome values of `trials` sampled iid_xz(p, p) errors."""
    syndromes, _ = code.parity_batch(*sample_batch(code.n, [(iid_xz(p, p), seed, 0, trials)]))
    return [int.from_bytes(row.tobytes(), "little") for row in syndromes]


def d7_syndromes():
    """Syndrome values of sampled surface_d7 errors, sparse ones (p = .02)
    and dense ones (p = .15); some of the dense ones flag more than 16
    Z-checks."""
    code = library.surface_code(7)
    values = []
    for seed, p in enumerate((0.02, 0.15)):
        values += sampled_syndromes(code, p, seed, 30)
    return code, values


def components_of(problem):
    """Connected components (lists of defect positions) of a matching
    problem's defect graph, keeping the edges that beat two boundary
    matches."""
    cost, bnd = problem.pair_costs, problem.boundary_costs
    unseen, components = set(range(len(bnd))), []
    while unseen:
        stack, component = [unseen.pop()], []
        while stack:
            i = stack.pop()
            component.append(i)
            linked = {j for j in unseen if cost[i][j] < bnd[i] + bnd[j]}
            unseen -= linked
            stack += linked
        components.append(component)
    return components


def sector_components(sector, value):
    """(components of `value`'s defects in `sector`, as lists of boundary
    flips) from `components_of`."""
    defects = sector.defects_of(value)
    flips = [sector.boundary_flips[i] for i in defects]
    return [[flips[i] for i in c] for c in components_of(sector.problem(defects))]


def toy_sector(dist, boundary, flips):
    """A `_Sector` on a given matching instance instead of a code's checks,
    for calling `flips` or `solve` on it."""
    return decoders_module._Sector("X", list(range(len(boundary))), dist, boundary, flips)


def matched_flip(sector, value):
    """The flip parity of `minimum_weight_matching`'s pairs on `value`'s
    defects in `sector` (its boundary matches to a flipping side): the
    search on every component, with no one-sided rule."""
    defects = sector.defects_of(value)
    problem = sector.problem(defects)
    _, pairs = minimum_weight_matching(problem.pair_costs, problem.boundary_costs)
    return sum(sector.boundary_flips[defects[a]] for a, b in pairs if b is None) % 2 == 1


class TestLookup:
    def test_three_qubit_goldens(self):
        decoder = LookupDecoder(library.three_qubit_bitflip())
        assert format_sparse(decoder.table[Syndrome.from_string("10").value]) == "X1"
        assert format_sparse(decoder.table[Syndrome.from_string("01").value]) == "X3"

    def test_zero_syndrome_identity(self):
        for code in (library.three_qubit_bitflip(), library.shor_nine()):
            decoder = LookupDecoder(code)
            assert decoder.table[0] == identity(code.n)
            assert decoder.decode_value(0) == identity(code.n)

    def test_shor_degenerate_tie_break(self):
        decoder = LookupDecoder(library.shor_nine())
        recovery = decoder.decode_value(Syndrome.from_string("00000010").value)
        assert format_sparse(recovery) == "Z1"

    def test_four_two_two_min_weight_pick(self):
        decoder = LookupDecoder(library.four_two_two())
        recovery = decoder.decode_value(Syndrome.from_string("10").value)
        assert format_sparse(recovery) == "X1"

    def test_unmatched_syndrome_flagged(self):
        # Weight-1 X errors never flag both Shor X-type checks together.
        decoder = LookupDecoder(library.shor_nine(), max_weight=1)
        value = Syndrome.from_string("10100000").value
        assert value not in decoder.table
        assert decoder.decode_value(value) == identity(9)

    def test_values_outside_the_syndrome_range_raise(self):
        # Bit i is generator i, so a syndrome value lies in [0, 2^m): 2^8
        # and -1 are no syndrome of Shor's code, not misses of its table.
        decoder = LookupDecoder(library.shor_nine())
        for value in (1 << 8, -1):
            with pytest.raises(ValueError, match=rf"syndrome value {value} is not in \[0, 2\^8\)"):
                decoder.decode_value(value)
        assert decoder.decode_value(255) == decoder.table[255]

    def test_guard_on_large_codes(self):
        with pytest.raises(DecoderError):
            LookupDecoder(library.surface_code(4))  # m = 24 > 20

    def test_stored_recoveries_reproduce_keys(self):
        for code in (library.four_two_two(), library.shor_nine()):
            decoder = LookupDecoder(code)
            for value, recovery in decoder.table.items():
                assert code.syndrome_value(recovery) == value

    def test_lookup_optimality_to_weight_three(self):
        for code in (library.three_qubit_bitflip(), library.four_two_two(), library.shor_nine()):
            decoder = LookupDecoder(code)
            for w in range(4):
                for error in enumerate_paulis(code.n, w):
                    stored = decoder.table[code.syndrome_value(error)]
                    assert weight(stored) <= weight(error)

    @pytest.mark.parametrize("max_weight", [None, 9])
    def test_complete_fill_stops_early(self, monkeypatch, max_weight):
        code, weights = library.shor_nine(), []

        def recording(n, w, *args):
            weights.append(w)
            return enumerate_paulis(n, w, *args)

        monkeypatch.setattr(decoders_module, "enumerate_paulis", recording)
        decoder = LookupDecoder(code, max_weight)
        assert len(decoder.table) == 256 and max(weights) < code.n
        full = LookupDecoder(code)
        assert decoder.table == full.table


    @pytest.mark.parametrize("max_weight", [None, 1])
    @pytest.mark.parametrize("name", library.registered_names())
    def test_class_rows_are_the_commutation_rule(self, name, max_weight):
        # A stored recovery's class row is whether it anti-commutes with X̄_1,
        # Z̄_1, X̄_2, ..., then a clear miss bit; a syndrome the table lacks
        # has no class and its miss bit set.
        code = library.get_code(name)
        decoder = LookupDecoder(code, max_weight)
        logicals = [p for pair in code.logicals for p in pair]
        expect = np.zeros((1 << code.m, 2 * code.k + 1), dtype=bool)
        expect[:, -1] = True
        for value, recovery in decoder.table.items():
            expect[value] = [not commutes(recovery, q) for q in logicals] + [False]
        assert np.array_equal(decoder._class_table, expect)


class TestMatchingSolver:
    def test_empty(self):
        assert minimum_weight_matching([], []) == (0, [])

    def test_single_defect_goes_to_boundary(self):
        cost, pairs = minimum_weight_matching([[0]], [4])
        assert cost == 4 and pairs == [(0, None)]

    def test_pair_beats_boundaries(self):
        dist = [[0, 1], [1, 0]]
        cost, pairs = minimum_weight_matching(dist, [3, 3])
        assert cost == 1 and pairs == [(0, 1)]

    def test_boundaries_beat_pair(self):
        dist = [[0, 9], [9, 0]]
        cost, pairs = minimum_weight_matching(dist, [1, 2])
        assert cost == 3 and sorted(pairs) == [(0, None), (1, None)]

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(99)
        for _ in range(300):
            k = rng.randint(0, 8)
            dist = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i + 1, k):
                    dist[i][j] = dist[j][i] = rng.randint(1, 12)
            boundary = [rng.randint(1, 12) for _ in range(k)]
            cost, pairs = minimum_weight_matching(dist, boundary)
            assert cost == brute_force_matching_cost(dist, boundary)
            covered = sorted(x for a, b in pairs for x in ((a,) if b is None else (a, b)))
            assert covered == list(range(k))

    def test_a_17_defect_clique_is_solved(self):
        # Every cost 1: the optimum is 8 pairs and one boundary match, and
        # the tie-break sends the lowest defect to its boundary first.
        k = 17
        dist = [[1] * k for _ in range(k)]
        pairs = [(0, None)] + [(i, i + 1) for i in range(1, k, 2)]
        assert minimum_weight_matching(dist, [1] * k) == (9, pairs)

    def test_far_apart_clusters_are_solved_apart(self):
        # 9 + 8 defects in two far-apart clusters: each cluster is one
        # component, solved alone.
        rng = random.Random(5)
        cluster = [0] * 9 + [1] * 8
        k = len(cluster)
        dist = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                near = cluster[i] == cluster[j]
                dist[i][j] = dist[j][i] = rng.randint(1, 4) if near else 100
        boundary = [rng.randint(3, 6) for _ in range(k)]
        cost, pairs = minimum_weight_matching(dist, boundary)
        assert cost == brute_force_matching_cost(dist, boundary)
        covered = sorted(x for a, b in pairs for x in ((a,) if b is None else (a, b)))
        assert covered == list(range(k))


class TestSearch:
    """The search in `_Sector.flips` must find the unbounded DP's optimum:
    the same cost, flip and partner on every step of the walk from the top
    entry down."""

    def assert_same_picks(self, mask, sector):
        found, walked, _ = search_and_dp(mask, sector)
        assert found == walked
        return found

    def test_sampled_components_equal_the_unbounded_dp(self):
        rates = (0.07, 0.08, 0.09, 0.1, 0.11, 0.12)
        checked = 0
        for lam, trials in ((5, 30), (7, 20)):
            for sector, mask in sampled_components(lam, rates, 40, trials):
                self.assert_same_picks(mask, sector)
                checked += mask.bit_count() >= 10
        assert checked > 20

    def test_tied_random_instances_equal_the_unbounded_dp(self):
        # Costs 1-3 make many matchings tie, so the pick rests on the
        # ascending tie-break; random flips make the parity depend on it.
        # A few instances go up to k = 20; the lazy sizes keep each size
        # drawn just before its costs, as in the 250 instances of k <= 12.
        rng = random.Random(123)
        for k in itertools.chain((rng.randint(1, 12) for _ in range(250)), range(13, 21)):
            dist = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i + 1, k):
                    dist[i][j] = dist[j][i] = rng.randint(1, 3)
            boundary = [rng.randint(1, 3) for _ in range(k)]
            flips = [rng.random() < 0.5 for _ in range(k)]
            sector = toy_sector(dist, boundary, flips)
            whole = (1 << k) - 1
            cost = self.assert_same_picks(whole, sector)[0]
            for mask in component_masks(sector, whole):
                self.assert_same_picks(mask, sector)
            assert cost == minimum_weight_matching(dist, boundary)[0]
            assert cost == brute_force_matching_cost(dist, boundary)

    def test_the_bound_prunes(self):
        # d7 at p = .10: the search visits about a tenth as many defect
        # sets as the unbounded DP holds states, so the bound and the
        # iterative deepening do their work (a count, no timing needed).
        calls = states = 0
        for sector, mask in sampled_components(7, (0.1,), 17, 200):
            states += search_and_dp(mask, sector)[2]
            calls += search_calls(lambda: solve(sector, mask))
        assert states > 5000
        assert calls <= 0.25 * states

    @pytest.mark.parametrize("k", [12, 14, 16])
    def test_learned_bounds_tame_a_star(self, k):
        # Defect 0 is 1 from every other defect, the others 2 apart, and
        # every boundary 3: the half-cost bound is far below the optimum,
        # so without learned bounds each deepening pass re-searches
        # millions of branches.  With them the search stays within 2^k
        # calls, and its pairs are the unbounded DP's walk.
        dist = [[0 if i == j else 1 if 0 in (i, j) else 2 for j in range(k)] for i in range(k)]
        boundary = [3] * k
        sector = toy_sector(dist, boundary, [False] * k)
        _, (cost, _, picks), _ = search_and_dp((1 << k) - 1, sector)
        pairs, rest = [], (1 << k) - 1
        for partner in picks:
            low = rest & -rest
            pairs.append((low.bit_length() - 1, None if partner < 0 else partner))
            rest ^= low | (0 if partner < 0 else 1 << partner)
        found = []
        calls = search_calls(lambda: found.append(minimum_weight_matching(dist, boundary)))
        assert found == [(cost, pairs)]
        assert calls <= 1 << k


class TestOneSidedComponents:
    """A component whose defects all flip, or none does, is settled by the
    parity of its flipping defects instead of the search, at any size."""

    def test_random_components_equal_the_dp(self):
        # Costs 1-3 make many matchings tie: a one-sided flip must not
        # depend on which optimum the unbounded DP picks.  Each defect takes
        # the instance's side f (random) with probability 0.7, else a random
        # flip, so components are often one-sided and sometimes mixed.
        rng = random.Random(71)
        one_sided = set()
        for _ in range(300):
            k = rng.randint(1, 12)
            dist = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i + 1, k):
                    dist[i][j] = dist[j][i] = rng.randint(1, 3)
            boundary = [rng.randint(1, 3) for _ in range(k)]
            side = rng.random() < 0.5
            flips = [side if rng.random() < 0.7 else rng.random() < 0.5 for _ in range(k)]
            sector = toy_sector(dist, boundary, flips)
            cost = 0
            for mask in component_masks(sector, (1 << k) - 1):
                found, (c, f, picks), _ = search_and_dp(mask, sector)
                assert found == (c, f, picks)
                assert sector.flips([mask]) == [f]
                cost += c
                sides = {flips[i] for i in range(k) if mask >> i & 1}
                if mask.bit_count() > 1 and len(sides) == 1:
                    one_sided.add((sides.pop(), mask.bit_count() % 2))
            assert cost == brute_force_matching_cost(dist, boundary)
        # Both sides, with even and odd sizes, were settled by parity.
        assert one_sided == {(False, 0), (False, 1), (True, 0), (True, 1)}

    def test_batch_settles_one_sided_leftovers(self):
        # Sampled d5/d7/d9 rows: both entry points give the whole-sector
        # `flips` class (`decode_as_flips`), which is the parity of
        # `minimum_weight_matching`'s boundary matches.  Rows
        # whose components of three or more defects are one-sided, and rows
        # whose such components are mixed and each of their defects has
        # exactly one adjacent defect in them (pair cost 1), both come up,
        # the second kind at every size, d9's two-word sectors (72 checks)
        # among them.
        settled, paired_off = 0, {5: 0, 7: 0, 9: 0}
        for lam, rates in ((5, (0.03, 0.08)), (7, (0.01, 0.03, 0.08)), (9, (0.02, 0.06))):
            code = library.surface_code(lam)
            decoder = MwpmDecoder(code)
            sectors = (decoder._z_checks, decoder._x_checks)
            values = [v for s, p in enumerate(rates, 11) for v in sampled_syndromes(code, p, s, 40)]
            classes = decode_as_flips(code, decoder, values)
            for value, row in zip(values, classes):
                assert list(row) == [matched_flip(sectors[1], value), matched_flip(sectors[0], value)]
                for sector in sectors:
                    defects = sector.defects_of(value)
                    problem = sector.problem(defects)
                    left = [i for c in components_of(problem) if len(c) >= 3 for i in c]
                    sides = {sector.boundary_flips[defects[i]] for i in left}
                    adjacent = [sum(problem.pair_costs[i][j] == 1 for j in left) for i in left]
                    if len(sides) == 1:
                        settled += 1
                    elif left and set(adjacent) == {1}:
                        paired_off[lam] += 1
        assert settled > 20
        assert sum(paired_off.values()) > 20 and paired_off[9] > 0

    def test_rows_that_are_not_adjacent_pairs_are_kept(self):
        # surface_d7 X-error sector: Z-checks in 6 rows of 7, a check
        # adjacent (pair cost 1) to the ones beside, above and below it.
        # Rows 0-2 flip and rows 3-5 do not, so each group below straddles
        # the middle and is one mixed component: two adjacent pairs, three
        # in a line, a pair with a lone defect whose kept edges reach it, a
        # 2x2 block, and an L of three with optimal matchings that flip and
        # that do not (the first in option order flips).  Every row decodes
        # as whole-sector `flips` does.
        code = library.surface_code(7)
        decoder = MwpmDecoder(code)
        sector = decoder._z_checks
        assert len(sector.boundary_flips) == 42
        assert [sector.boundary_flips[7 * r] for r in range(6)] == [True] * 3 + [False] * 3
        assert sector.pair_cost[7 * 2 + 3][7 * 3 + 3] == sector.pair_cost[7 * 3 + 3][7 * 3 + 4] == 1
        groups = [
            [(2, 1), (3, 1), (2, 3), (3, 3)],  # two adjacent pairs
            [(2, 3), (3, 3), (4, 3)],  # three in a line
            [(2, 1), (3, 1), (3, 4)],  # a pair and a lone defect
            [(2, 2), (2, 3), (3, 2), (3, 3)],  # a 2x2 block
            [(2, 0), (2, 1), (3, 1)],  # an L, tied across the flip
        ]
        present = np.zeros((len(groups), 42), dtype=bool)
        for g, group in enumerate(groups):
            present[g, [7 * r + c for r, c in group]] = True
        values = [sum(1 << int(gi) for gi in sector.generators[row]) for row in present]
        for value in values:
            assert [len(set(c)) for c in sector_components(sector, value)] == [2]
        masks = [sum(1 << (7 * r + c) for r, c in group) for group in groups]
        assert [len(optimal_parities(sector, mask)) for mask in masks] == [1, 1, 1, 1, 2]
        classes = decode_as_flips(code, decoder, values)
        assert classes.tolist() == [[False, False]] * 4 + [[False, True]]

    def test_components_over_16_decode(self):
        # d9 X-error sector: the two flipping rows nearest the top (18
        # defects) are one component, four non-flipping bottom defects
        # another.  Sending every defect to its own boundary is a matching,
        # and on one-sided components every matching has the same flip, so
        # the class is the parity of the flipping defects.  Every row is
        # left to `flips`, whose parity rule settles these components at 18
        # and 19 defects.  The whole sector flagged is one mixed component
        # of 72, which the search solves.
        code = library.surface_code(9)
        decoder = MwpmDecoder(code)
        sector = decoder._z_checks
        flips, costs = sector.boundary_flips, sector.boundary_cost
        def side(f, b):
            return [i for i in range(len(flips)) if flips[i] == f and costs[i] == b]
        top, extra, bottom = side(True, 1) + side(True, 2), side(True, 3)[:1], side(False, 1)[:4]
        rows = [top, top + extra, top + bottom, top + extra + bottom]
        values = [sum(1 << int(sector.generators[i]) for i in row) for row in rows]
        sizes = [sorted(map(len, sector_components(sector, v))) for v in values]
        assert sizes == [[18], [19], [4, 18], [4, 19]]
        assert all(len(set(c)) == 1 for v in values for c in sector_components(sector, v))
        expected = [sum(flips[i] for i in row) % 2 == 1 for row in rows]
        assert expected == [False, True, False, True]
        classes = decode_as_flips(code, decoder, values)
        assert classes.tolist() == [[False, f] for f in expected]
        mixed = sector_mask(sector)
        assert [len(set(c)) for c in sector_components(sector, mixed)] == [2]
        classes = decode_as_flips(code, decoder, [mixed])
        assert classes.tolist() == [[False, matched_flip(sector, mixed)]]


class TestMwpmDecoder:
    def test_rejects_codes_off_the_check_graph_model(self):
        # MWPM needs k = 1, CSS generators, an X-type and a Z-type logical,
        # and each qubit in at most two checks of a type.
        five = StabilizerCode(
            "five_qubit", 5, 1, tuple(map(parse, ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"))),
            ((parse("XXXXX"), parse("ZZZZZ")),), 3,
        )
        star = StabilizerCode(
            "star", 4, 1, tuple(map(parse, ("ZZII", "ZIZI", "ZIIZ"))),
            ((parse("XXXX"), parse("IZII")),),
        )
        d3 = library.surface_code(3)
        xbar, zbar = d3.logicals[0]
        mixed = StabilizerCode(d3.name, d3.n, d3.k, d3.generators, ((xbar, multiply(xbar, zbar)),))
        cases = [
            (library.four_two_two(), "k = 1"), (library.four_cycle(), "k = 1"), (five, "CSS"),
            (mixed, "X-type and a Z-type"), (star, "over two checks"),
        ]
        for code, message in cases:
            assert code.validate().ok, code.name
            with pytest.raises(DecoderError, match=message):
                MwpmDecoder(code)

    def test_requires_the_built_in_logicals(self):
        # Z̄ times a Z-check is an equally valid logical, but it puts qubits
        # that link two Z-checks on Z̄: a pair path would flip, so the
        # decoder refuses it.
        code = library.surface_code(3)
        xbar, zbar = code.logicals[0]
        check = next(g for g in code.generators if g.z_bits & zbar.z_bits)
        moved = StabilizerCode(
            code.name, code.n, code.k, code.generators, ((xbar, multiply(zbar, check)),),
            code.declared_distance,
        )
        assert moved.validate().ok
        with pytest.raises(DecoderError, match="on the conjugate logical"):
            MwpmDecoder(moved)

    def test_zero_syndrome(self):
        code = library.surface_code(2)
        assert MwpmDecoder(code).decode_value(0) == identity(code.n)

    def test_values_outside_the_syndrome_range_raise(self):
        # As for the lookup table: 2^12 and -1 are no d3 syndrome (12
        # checks), and 2^64 would need a word more than the checks do.
        code = library.surface_code(3)
        decoder = MwpmDecoder(code)
        for value in (1 << 12, -1, 1 << 64):
            with pytest.raises(ValueError, match=rf"syndrome value {value} is not in \[0, 2\^12\)"):
                decoder.decode_value(value)
        assert code.syndrome_value(decoder.decode_value((1 << 12) - 1)) == (1 << 12) - 1

    def test_d2_x5_error_from_figure(self):
        code = library.surface_code(2)
        error = parse("X5", n=5)
        syndrome = code.syndrome(error)
        assert str(syndrome) == "0010"  # flags only the Z-check holding D5
        recovery = MwpmDecoder(code).decode_value(syndrome.value)
        assert code.in_stabilizer_group(multiply(recovery, error))

    def test_d3_all_single_qubit_errors_corrected(self):
        code = library.surface_code(3)
        decoder = MwpmDecoder(code)
        for q in range(1, 14):
            for letter in "XZ":
                error = from_support(13, [(q, letter)])
                recovery = decoder.decode_value(code.syndrome_value(error))
                residual = multiply(recovery, error)
                assert code.residual_class(residual).success, (q, letter)

    def test_correctable_regime_guarantee(self):
        # weight <= t errors always decode to success for the built-ins
        cases = [
            (library.shor_nine(), LookupDecoder(library.shor_nine())),
            (library.surface_code(3), MwpmDecoder(library.surface_code(3))),
        ]
        for code, decoder in cases:
            t = correctable_weight(code.declared_distance)
            for w in range(1, t + 1):
                for error in enumerate_paulis(code.n, w):
                    recovery = decoder.decode_value(code.syndrome_value(error))
                    assert code.residual_class(multiply(recovery, error)).success

    def test_recovery_consistency_random_syndromes(self):
        rng = random.Random(31)
        for lam in (2, 3, 5):
            code = library.surface_code(lam)
            decoder = MwpmDecoder(code)
            for _ in range(1000 if lam < 5 else 100):
                value = rng.getrandbits(code.m)
                recovery = decoder.decode_value(value)
                assert code.syndrome_value(recovery) == value

    def test_recovery_consistency_lookup(self):
        rng = random.Random(32)
        for code in (library.three_qubit_bitflip(), library.four_two_two(), library.shor_nine()):
            decoder = LookupDecoder(code)
            for _ in range(1000):
                value = rng.getrandbits(code.m)
                recovery = decoder.decode_value(value)
                assert code.syndrome_value(recovery) == value

    def test_matching_cost_equals_brute_force_on_error_syndromes(self):
        code = library.surface_code(3)
        decoder = MwpmDecoder(code)
        rng = random.Random(77)
        checked = 0
        trial = 0
        while checked < 100:
            error = sample(iid_xz(0.12, 0.12), code.n, random.Random(derive_seed(5, trial)))
            trial += 1
            problems = decoder.matching_problems(code.syndrome(error))
            for problem in problems.values():
                k = len(problem.defects)
                if not 0 < k <= 8:
                    continue
                dist = [list(row) for row in problem.pair_costs]
                cost, _ = minimum_weight_matching(dist, list(problem.boundary_costs))
                assert cost == brute_force_matching_cost(dist, list(problem.boundary_costs))
                checked += 1

    def test_recovery_coset_minimum_is_the_matching_cost(self):
        # The recovery is not a minimum-weight chain, but its logical class
        # is the matched one: the lightest operator in its coset of X-type
        # (Z-type) stabilizers weighs what that sector's matching costs.
        rng = random.Random(41)
        for lam in (3, 4):
            code = library.surface_code(lam)
            decoder = MwpmDecoder(code)
            spans = {"X": [0], "Z": [0]}
            for g in code.generators:
                for sector, bits in (("X", g.x_bits), ("Z", g.z_bits)):
                    if bits:
                        spans[sector] += [s ^ bits for s in spans[sector]]
            for _ in range(150):
                value = rng.getrandbits(code.m)
                recovery = decoder.decode_value(value)
                problems = decoder.matching_problems(Syndrome.from_int(value, code.m))
                for sector, bits in (("X", recovery.x_bits), ("Z", recovery.z_bits)):
                    problem = problems[sector]
                    cost, _ = minimum_weight_matching(problem.pair_costs, problem.boundary_costs)
                    assert min((bits ^ s).bit_count() for s in spans[sector]) == cost

    def test_matching_problem_invariants(self):
        code = library.surface_code(3)
        decoder = MwpmDecoder(code)
        error = parse("X2 X7 Z5", n=13)
        problems = decoder.matching_problems(code.syndrome(error))
        for problem in problems.values():
            k = len(problem.defects)
            for i in range(k):
                assert problem.boundary_costs[i] >= 1
                for j in range(k):
                    if i != j:
                        assert problem.pair_costs[i][j] >= 1
                        assert problem.pair_costs[i][j] == problem.pair_costs[j][i]

    def test_defect_plus_boundary_parity_even(self):
        code = library.surface_code(3)
        decoder = MwpmDecoder(code)
        rng = random.Random(13)
        for _ in range(50):
            error = sample(iid_xz(0.1, 0.1), code.n, rng)
            value = code.syndrome_value(error)
            for sector in (decoder._z_checks, decoder._x_checks):
                defects = sector.defects_of(value)
                dist = [[sector.pair_cost[i][j] for j in defects] for i in defects]
                bnd = [sector.boundary_cost[i] for i in defects]
                _, pairs = minimum_weight_matching(dist, bnd)
                boundary_matches = sum(1 for _, b in pairs if b is None)
                assert (len(defects) + boundary_matches) % 2 == 0

    def test_dense_rows_decode_with_their_syndrome(self):
        # Some dense d7 rows have a mixed X-sector component of more than
        # 16 defects; every row decodes to a recovery with its syndrome.
        code, values = d7_syndromes()
        decoder = MwpmDecoder(code)
        large = 0
        for value in values:
            assert code.syndrome_value(decoder.decode_value(value)) == value
            components = sector_components(decoder._z_checks, value)
            large += any(len(c) > 16 and len(set(c)) == 2 for c in components)
        assert large > 0

    def test_split_equals_the_unsplit_dp(self):
        # The picks in a component do not depend on the others, so on a
        # sector of at most 16 defects (where the unbounded DP on the whole
        # set stays small), solving by component (`logical_flip`) gives the
        # flip of one search, and of the unbounded DP, over the whole
        # unsplit defect set.
        d7, d7_values = d7_syndromes()
        d5 = library.surface_code(5)
        split = 0
        for code, values in ((d7, d7_values), (d5, sampled_syndromes(d5, 0.1, 3, 60))):
            decoder = MwpmDecoder(code)
            for value in values:
                for sector in (decoder._z_checks, decoder._x_checks):
                    mask = sum(1 << i for i in sector.defects_of(value))
                    if not 0 < mask.bit_count() <= 16:
                        continue
                    whole, walked, _ = search_and_dp(mask, sector)
                    assert whole == walked
                    assert logical_flip(sector, value) == whole[1]
                    split += len(component_masks(sector, mask)) > 1
        assert split > 50

    def test_pure_errors_are_built_lazily_and_survive_a_pickle(self):
        # A fresh decoder pickles without its code's pure errors, which only
        # `decode_value` reads; an unpickled copy's code builds its own and
        # the copy decodes as the original does.
        code = library.surface_code(5)
        decoder = MwpmDecoder(code)
        clone = pickle.loads(pickle.dumps(decoder))
        assert "pure_errors" not in vars(decoder.code) and "pure_errors" not in vars(clone.code)
        values = [v for s, p in enumerate((0.03, 0.1), 51) for v in sampled_syndromes(code, p, s, 50)]
        assert [clone.decode_value(v) for v in values] == [decoder.decode_value(v) for v in values]
        assert "pure_errors" in vars(decoder.code) and "pure_errors" in vars(clone.code)
        batch, failed = decoder.decode_batch(packed(code, values))
        clone_batch, clone_failed = clone.decode_batch(packed(code, values))
        assert np.array_equal(batch, clone_batch) and np.array_equal(failed, clone_failed)

    def test_building_loads_no_scipy_or_networkx(self):
        # Either import costs a fresh interpreter several times numpy's time
        # and memory, which every Monte Carlo run and pool worker would pay:
        # no stabkit module, nor a d7 decoder build, may load them, and
        # neither may the paths only some inputs reach: lookup and
        # post-selected sweeps, the pure errors of `decode_value`, a scan,
        # the distance search, validation and the statevector oracles.
        script = (
            "import importlib, pkgutil, sys, stabkit\n"
            "for module in pkgutil.iter_modules(stabkit.__path__):\n"
            "    importlib.import_module('stabkit.' + module.name)\n"
            "from stabkit import montecarlo, statevector\n"
            "from stabkit.decoders import LookupDecoder, MwpmDecoder\n"
            "MwpmDecoder(stabkit.surface_code(7))\n"
            "shor, d3 = stabkit.get_code('shor_nine'), stabkit.surface_code(3)\n"
            "montecarlo.sweep(shor, LookupDecoder(shor), 'depolarizing', [0.1], 50, 1)\n"
            "montecarlo.sweep(stabkit.get_code('four_two_two'), None, 'iid_x', [0.1], 50, 1)\n"
            "MwpmDecoder(d3).decode_value(0b101)\n"
            "montecarlo.threshold_scan([3, 5], [0.08, 0.12], 50, 1)\n"
            "stabkit.distance(shor, 3)\n"
            "assert shor.validate().ok\n"
            "statevector.encode_by_projection(shor)\n"
            "statevector.coherent_error_collapse(stabkit.get_code('two_qubit'), 0.1)\n"
            "print(sorted({name.split('.')[0] for name in sys.modules} & {'scipy', 'networkx'}))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(stabkit.__file__).resolve().parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["[]"]

    def test_uniform_decode_dispatch(self):
        # Both decoders implement the one protocol: name, decode_value and
        # decode_batch, and on the d3 surface code they agree that every
        # weight-1 error is corrected.
        code = library.surface_code(3)
        decoders = (MwpmDecoder(code), LookupDecoder(code))
        assert [d.name for d in decoders] == ["mwpm", "lookup"]
        errors = list(enumerate_paulis(code.n, 1))
        values = [code.syndrome_value(e) for e in errors]
        packed, error_classes = code.parity_batch(*xz_rows(code.n, errors))
        for decoder in decoders:
            recoveries = [decoder.decode_value(v) for v in values]
            assert [code.syndrome_value(r) for r in recoveries] == values
            assert all(code.in_stabilizer_group(multiply(r, e)) for r, e in zip(recoveries, errors))
            classes, failed = decoder.decode_batch(packed)
            assert not failed.any()
            assert np.array_equal(classes, code.parity_batch(*xz_rows(code.n, recoveries))[1])
            # Every recovery has its error's class: the batch verdict is success.
            assert np.array_equal(classes, error_classes)


class TestComponentBounds:
    def test_each_component_gets_its_h_and_bound(self):
        # Sampled d5-d9 rows of more than 6 defects and two or more
        # components, every one searched (`flips` with a record): at the top
        # `visit` of each component, the call's one `half` list holds every
        # h of the component, as a brute-force min over the set's kept
        # partners gives it, and the bound passed is their sum.
        split = 0
        for lam, rates in ((5, (0.1, 0.12)), (7, (0.1, 0.12)), (9, (0.08, 0.1))):
            code = library.surface_code(lam)
            decoder = MwpmDecoder(code)
            pieces = [(iid_xz(p, p), 60 + i, 0, 400) for i, p in enumerate(rates)]
            rows = sector_rows(decoder, code.parity_batch(*sample_batch(code.n, pieces))[0])
            for sector, (flip, rest) in zip((decoder._z_checks, decoder._x_checks), rows):
                cost, boundary = sector.pair_cost, sector.boundary_cost
                for mask in decoders_module._row_ints(rest[sector.settle(flip, rest)]):
                    tops, record = {}, []

                    def top(frame):
                        # Each pass starts with a call from the loop; keep the first per component.
                        if frame.f_back.f_code is not frame.f_code:
                            local = frame.f_locals
                            tops.setdefault(local["mask"], (local["bound"], list(local["half"])))

                    profile_visits(lambda: sector.flips([mask], record), top)
                    walked = [component for component, *_ in record]
                    assert list(tops) == walked
                    for component, (bound, half) in tops.items():
                        expected = {
                            i: min([2 * boundary[i]] + [cost[i][j] for j in bits_of(sector.neighbours[i] & mask)])
                            for i in bits_of(component)
                        }
                        assert {i: half[i] for i in expected} == expected
                        assert bound == sum(expected.values())
                    assert sum(walked) == mask
                    split += len(walked) >= 2
        assert split > 50


class TestSectorTables:
    """Each `_Sector` owns the cost table `settle` reads, in the smallest
    dtype that holds its largest entry; no table spans both sectors."""

    def test_a_batch_decode_stays_small(self):
        # Gathering from one int32 table over both sectors' checks traced a
        # 2.1 MB peak on this batch.
        code = library.surface_code(5)
        decoder = MwpmDecoder(code)
        syndromes = code.parity_batch(*sample_batch(code.n, [(iid_xz(0.1, 0.1), 5, 0, 2048)]))[0]
        tracemalloc.start()
        try:
            decoder.decode_batch(syndromes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6e6

    def test_the_pickled_d15_pair_stays_small(self):
        # A pool task pickles its (code, decoder) pair: 1.06 MB at d15 with
        # the int32 table over both sectors.
        code = library.surface_code(15)
        assert len(pickle.dumps((code, MwpmDecoder(code)))) < 0.75e6


def near_threshold_d7():
    """A surface_d7 decoder and its 2,046-row packed syndromes at iid_xz p =
    .07-.12, 341 rows a point, point i seeded with derive_seed(4, i)."""
    code = library.surface_code(7)
    rates = (0.07, 0.08, 0.09, 0.1, 0.11, 0.12)
    pieces = [(iid_xz(p, p), derive_seed(4, i), 0, 341) for i, p in enumerate(rates)]
    return MwpmDecoder(code), code.parity_batch(*sample_batch(code.n, pieces))[0]


class TestOneLoopPerCall:
    """`decode_batch` solves each sector's rows of more than 6 defects in
    one `flips` call: one `visit` closure for the call, not one per
    searched component."""

    def test_a_warm_batch_leaves_no_cyclic_garbage(self):
        # A self-recursive closure per component made 46,946 unreachable
        # objects on this batch; one per sector call makes a few dozen.
        decoder, syndromes = near_threshold_d7()
        decoder.decode_batch(syndromes)
        gc.collect()
        gc.disable()
        try:
            decoder.decode_batch(syndromes)
        finally:
            unreachable = gc.collect()
            gc.enable()
        assert unreachable < 100

    def test_the_search_work_is_pinned(self):
        # The deterministic work count: the same `visit` calls, option order
        # and pruning as a search per component, on rows of more than 6
        # defects that reach `flips` whole, isolated defects and pairs
        # included.  The batch's classes are pinned beside it.
        decoder, syndromes = near_threshold_d7()
        found = []
        assert search_calls(lambda: found.append(decoder.decode_batch(syndromes)[0])) == 47_116
        digest = hashlib.sha256(found[0].tobytes()).hexdigest()
        assert digest == "e2aac9a48c1c4d0aa3cf17991737911f637ae0497fb1bd78d21910032996526e"


class TestDecodeBatch:
    @pytest.mark.parametrize("max_weight", [None, 1])
    def test_lookup_batch_matches_scalar(self, max_weight):
        rng = random.Random(61)
        misses = 0
        for name in library.registered_names():
            code = library.get_code(name)
            decoder = LookupDecoder(code, max_weight=max_weight)
            errors = [sample(iid_xz(0.3, 0.3), code.n, rng) for _ in range(200)]
            values = [code.syndrome_value(e) for e in errors]
            missed = [v not in decoder.table for v in values]
            misses += sum(missed)
            classes, failed = decoder.decode_batch(packed(code, values))
            assert list(failed) == missed
            expected = [decoder.decode_value(v) for v in values]
            assert np.array_equal(classes, code.parity_batch(*xz_rows(code.n, expected))[1])
            error_classes = code.parity_batch(*xz_rows(code.n, errors))[1]
            success = (classes == error_classes).all(axis=1) & ~failed
            reference = [
                code.in_stabilizer_group(multiply(r, e)) for r, e in zip(expected, errors)
            ]
            assert list(success) == reference
        # The weight-1 tables miss syndromes: `decode_value` returns the
        # identity and `decode_batch` flags them as failed.
        assert (misses > 0) == (max_weight == 1)

    def test_mwpm_batch_matches_whole_sector_flips(self):
        # decode_batch settles rows of up to 6 defects from a cost table and
        # the rest by component; the reference (`decode_as_flips`) runs
        # `flips` on each whole sector, with no cost table, and
        # `decode_value` must give its class too.  The cases cover every
        # path: surface_d9 sectors (72
        # checks) span two words, the low-rate rows are mostly isolated
        # defects or pairs, dense rows have a mixed component of more than 16
        # defects, and three d7 rows at p = .12 (seed 7) have a sector of
        # more than 16 defects but no component over 16.  No row fails.
        code, values = d7_syndromes()
        cases = [(code, [0] + values)]
        for lam, rates, n in (
            (9, (0.03, 0.1), 40), (5, (0.005, 0.03), 60), (7, (0.005, 0.03, 0.12), 60)
        ):
            code = library.surface_code(lam)
            values = [v for s, p in enumerate(rates, 5) for v in sampled_syndromes(code, p, s, n)]
            cases.append((code, values))
        names = {1: "isolated only", 2: "isolated pair"}
        paths = set()
        for code, values in cases:
            decoder = MwpmDecoder(code)
            decode_as_flips(code, decoder, values)
            for value in values:
                problems = decoder.matching_problems(Syndrome.from_int(value, code.m))
                sizes = [len(c) for problem in problems.values() for c in components_of(problem)]
                largest_sector = max(len(problem.defects) for problem in problems.values())
                mixed = [
                    len(c) for s in (decoder._z_checks, decoder._x_checks)
                    for c in sector_components(s, value) if len(set(c)) == 2
                ]
                if max(mixed, default=0) > 16:
                    paths.add("mixed component > 16")
                elif largest_sector > 16:
                    paths.add("sector > 16, components within")
                elif sizes:
                    paths.add(names.get(max(sizes), "component >= 3"))
        assert paths == {
            "isolated only", "isolated pair", "component >= 3", "mixed component > 16",
            "sector > 16, components within",
        }

    def test_fixed_seed_classes_are_pinned_row_by_row(self):
        # The per-row classes of sampled surface d3-d9 batches at p = .01-
        # .15, hashed: unlike per-point counts, two compensating row
        # changes would show.
        digest = hashlib.sha256()
        for lam in (3, 5, 7, 9):
            code = library.surface_code(lam)
            rates = (0.01, 0.03, 0.06, 0.09, 0.12, 0.15)
            pieces = [(iid_xz(p, p), 100 * lam + s, 0, 400) for s, p in enumerate(rates)]
            classes, failed = MwpmDecoder(code).decode_batch(code.parity_batch(*sample_batch(code.n, pieces))[0])
            assert not failed.any()
            digest.update(classes.tobytes())
        assert digest.hexdigest() == "e8c3237922c484af74694f3d1dab2fcb9e6c924e9bfef9bad863f9465ebfde44"

    def test_reversed_rows_decode_alike(self):
        # A d7 batch near threshold and below it, decoded forwards and in
        # reverse row order, gives each row the same classes: nothing
        # carries over between rows, sectors or components.
        code = library.surface_code(7)
        pieces = [(iid_xz(p, p), 70 + i, 0, 150) for i, p in enumerate((0.02, 0.1, 0.12))]
        syndromes = code.parity_batch(*sample_batch(code.n, pieces))[0]
        decoder = MwpmDecoder(code)
        classes, failed = decoder.decode_batch(syndromes)
        backwards, failed_backwards = decoder.decode_batch(syndromes[::-1].copy())
        assert not failed.any() and not failed_backwards.any()
        assert np.array_equal(classes, backwards[::-1])
        assert classes[:, 0].any() and not classes[:, 0].all()

    def test_rows_with_256_flagged_neighbours_decode_as_flips(self):
        # d20 Z-checks: with all 380 flagged, some defects have 256 or 257
        # flagged kept neighbours, and with one check plus 256 of its
        # neighbours flagged, that check has 256.  Both rows span six words
        # and go to `flips` whole; both entry points give the whole-sector
        # `flips` class.
        code = library.surface_code(20)
        decoder = MwpmDecoder(code)
        sector = decoder._z_checks
        k = len(sector.boundary_cost)
        hub = max(range(k), key=lambda i: sector.neighbours[i].bit_count())
        star = [hub] + [j for j in range(k) if sector.neighbours[hub] >> j & 1][:256]
        present = np.zeros((2, k), dtype=bool)
        present[0] = True
        present[1, star] = True
        values = [sum(1 << int(g) for g in sector.generators[row]) for row in present]
        decode_as_flips(code, decoder, values)

    def test_a_component_past_the_search_limit_raises(self):
        # A d46 sector all flagged (one mixed component of 2,070 defects) is
        # why the guard exists: its search would recurse past Python's
        # default limit of 1,000 frames.  d24 Z-checks all flagged are one
        # mixed component of 552, also past the guard, and build in a
        # fraction of the time: both entry points raise DecoderError.
        code = library.surface_code(24)
        decoder = MwpmDecoder(code)
        sector = decoder._z_checks
        whole = (1 << len(sector.boundary_cost)) - 1
        assert component_masks(sector, whole) == [whole]
        assert 0 < whole & sector.flipping < whole
        assert whole.bit_count() == 552 > decoders_module._SEARCH_DEFECTS
        with pytest.raises(DecoderError, match="552-defect"):
            decoder.decode_batch(packed(code, [sector_mask(sector)]))
        with pytest.raises(DecoderError, match="552-defect"):
            decoder.decode_value(sector_mask(sector))


def lightest_errors(code, sector):
    """Brute force over the 2^n errors of one type ("X" or "Z"): per sector
    syndrome value, (the lightest weight, the set of the conjugate-logical
    classes that errors of that weight take).  The conjugate is the logical
    of the other type, the one these errors can anti-commute with."""
    conjugate = next(p for p in code.logicals[0] if bool(p.x_bits) != (sector == "X"))
    support = conjugate.z_bits if sector == "X" else conjugate.x_bits
    best = {}
    for bits in range(1 << code.n):
        error = PauliOperator(code.n, bits, 0) if sector == "X" else PauliOperator(code.n, 0, bits)
        value = code.syndrome_value(error)
        entry = (bits.bit_count(), {(bits & support).bit_count() % 2 == 1})
        old = best.setdefault(value, entry)
        if entry[0] < old[0]:
            best[value] = entry
        elif entry[0] == old[0]:
            old[1].update(entry[1])
    return best


SMALL_CSS_CODES = ["two_qubit", "three_qubit_bitflip", "three_qubit_phaseflip", "shor_nine"]


class TestCheckGraph:
    """Each sector's matching graph is built from the code's generators;
    the lattice geometry it replaced is kept here as an oracle, from the
    documented convention of `code_library` alone."""

    @pytest.mark.parametrize("lam", [2, 3, 4, 5, 6, 7, 8, 9, 15])
    def test_surface_costs_equal_the_lattice_geometry(self, lam):
        # Pair costs are Manhattan distance / 2 between check coordinates.
        # Z-checks exit vertically (top/bottom), X-checks horizontally
        # (left/right); the coordinate-0 side holds the conjugate logical
        # (Z̄ on the top row, X̄ down the left column), so a boundary match
        # flips iff that side is strictly nearer.
        # Checks sit on the sites with r + c odd, listed row-major, X-checks
        # in even rows; generator i is the i-th such site.
        decoder = MwpmDecoder(library.surface_code(lam))
        side = 2 * lam - 1
        sites = [(r, c) for r in range(side) for c in range(side) if (r + c) % 2]
        kinds = ["X" if r % 2 == 0 else "Z" for r, _ in sites]
        for sector, kind, axis in ((decoder._z_checks, "Z", 0), (decoder._x_checks, "X", 1)):
            coords = [site for site, k in zip(sites, kinds) if k == kind]
            assert sector.generators.tolist() == [i for i, k in enumerate(kinds) if k == kind]
            assert sector.pair_cost == [
                [(abs(a[0] - b[0]) + abs(a[1] - b[1])) // 2 for b in coords] for a in coords
            ]
            near = [(coord[axis] + 1) // 2 for coord in coords]
            far = [(side - coord[axis]) // 2 for coord in coords]
            assert sector.boundary_cost == list(map(min, near, far))
            assert sector.boundary_flips == [a < b for a, b in zip(near, far)]

    @pytest.mark.parametrize("name", SMALL_CSS_CODES)
    def test_matching_cost_is_the_lightest_error_on_every_syndrome(self, name):
        # Per sector: the matching cost of every syndrome is the weight of
        # the lightest error of that type with it, and the decoded flip is
        # the class of one such error.
        code = library.get_code(name)
        decoder = MwpmDecoder(code)
        for sector in (decoder._z_checks, decoder._x_checks):
            best = lightest_errors(code, sector.sector)
            for value in range(1 << code.m):
                problem = sector.problem(sector.defects_of(value))
                cost, _ = minimum_weight_matching(problem.pair_costs, problem.boundary_costs)
                weight, classes = best[value & sector_mask(sector)]
                assert cost == weight, (sector.sector, value)
                assert logical_flip(sector, value) in classes, (sector.sector, value)

    @pytest.mark.parametrize("name", SMALL_CSS_CODES)
    def test_both_entry_points_equal_whole_sector_flips_on_every_syndrome(self, name):
        code = library.get_code(name)
        decode_as_flips(code, MwpmDecoder(code), list(range(1 << code.m)))

    def test_shor_corrects_every_weight_one_error(self):
        # Shor's X̄ is Z-type, so its X-error sector sets the X̄ class column.
        code = library.shor_nine()
        decoder = MwpmDecoder(code)
        errors = list(enumerate_paulis(code.n, 1))
        syndromes, error_classes = code.parity_batch(*xz_rows(code.n, errors))
        classes, failed = decoder.decode_batch(syndromes)
        assert not failed.any()
        assert np.array_equal(classes, error_classes)
        for error in errors:
            recovery = decoder.decode_value(code.syndrome_value(error))
            assert code.residual_class(multiply(recovery, error)).success, format_sparse(error)


def sector_rows(decoder, syndromes):
    """`_Sector.decode`'s state before `settle`, per sector: (an all-False
    flip per row, the row's flagged checks packed), trials by words."""
    bits = np.unpackbits(syndromes.view(np.uint8), axis=1, bitorder="little").view(bool)
    return [
        (np.zeros(len(bits), dtype=bool), _pack_bits(s.words, bits[:, s.generators]))
        for s in (decoder._z_checks, decoder._x_checks)
    ]


def settle_small(sector, masks):
    """`_Sector.settle` on rows whose defects are the set masks[r]:
    (the flips it set, which rows it settled: those it does not return)."""
    flips, rest = np.zeros(len(masks), dtype=bool), _pack_ints(masks, sector.words)
    settled = np.ones(len(masks), dtype=bool)
    settled[sector.settle(flips, rest)] = False
    assert np.array_equal(rest, _pack_ints(masks, sector.words))
    return flips.tolist(), settled.tolist()


def shor_blocks(blocks, size):
    """Shor's construction with `blocks` blocks of `size` qubits: ZZ checks
    along each block and an X check on each two adjacent blocks."""
    n = blocks * size

    def chain(letter, qubits):
        return from_support(n, [(q, letter) for q in qubits])

    block = [list(range(b * size + 1, (b + 1) * size + 1)) for b in range(blocks)]
    generators = [chain("Z", [q, q + 1]) for b in block for q in b[:-1]]
    generators += [chain("X", a + b) for a, b in zip(block, block[1:])]
    logicals = ((chain("Z", [b[0] for b in block]), chain("X", block[0])),)
    return StabilizerCode(f"shor_{blocks}x{size}", n, 1, tuple(generators), logicals)


def optimal_parities(sector, mask):
    """The flip parities of every optimal matching of `mask`'s defects, by
    costing each one that `_matchings` lists (pruned pairs included)."""
    defects = [i for i in range(len(sector.boundary_cost)) if mask >> i & 1]
    cost, flip, boundary = sector.pair_cost, sector.boundary_flips, sector.boundary_cost
    parities = {}
    for m in decoders_module._matchings(defects):
        total = sum(boundary[i] if i == j else cost[i][j] for i, j in m.items() if i <= j)
        parities.setdefault(total, set()).add(sum(flip[i] for i, j in m.items() if i == j) % 2 == 1)
    return parities[min(parities)]


def isolated_oracle(sector, mask):
    """(the defects of `mask` that are neither isolated nor in an isolated
    pair, the flip parity of the isolated ones), by brute force over
    `sector.neighbours`: a defect with no kept flagged neighbour is
    isolated, two that are each other's only kept flagged neighbour are an
    isolated pair."""
    kept = {i: bits_of(sector.neighbours[i] & mask) for i in bits_of(mask)}
    isolated = {i for i, js in kept.items() if not js}
    paired = {i for i, js in kept.items() if len(js) == 1 and kept[js[0]] == [i]}
    flip = sum(sector.boundary_flips[i] for i in isolated) % 2 == 1
    return sum(1 << i for i in kept if i not in isolated | paired), flip


class TestSmallRows:
    """`_Sector.settle` costs every matching of a row of at most `_SLOTS`
    defects in numpy, from the sector's own cost table, and takes
    the first optimum in option order: it must give `_Sector.flips`'s
    parity, ties included."""

    def test_the_matching_list_is_every_matching_in_option_order(self):
        # A matching is an involution of the slots (a fixed point takes its
        # boundary); its key lists each pick of the lowest unmatched slot,
        # -1 for the boundary, so sorting the keys is option order.  T(c)
        # counts them.  With slots c..5 at their boundary, the six-slot list
        # holds the c-slot list in its order: padding keeps the order.
        def key(partner):
            picks, left = [], sorted(range(len(partner)))
            while left:
                i = left.pop(0)
                picks.append(-1 if partner[i] == i else partner[i])
                left = [j for j in left if j != partner[i]]
            return picks

        six = decoders_module._matchings(list(range(6)))
        for c, size in zip(range(1, 7), (1, 2, 4, 10, 26, 76)):
            found = decoders_module._matchings(list(range(c)))
            involutions = [p for p in itertools.permutations(range(c)) if all(p[p[i]] == i for i in range(c))]
            assert len(found) == len(involutions) == size
            assert [key(m) for m in found] == sorted(map(key, involutions))
            padded = [m for m in six if all(m[s] == s for s in range(c, 6))]
            assert [{i: m[i] for i in range(c)} for m in padded] == found
        partner = decoders_module._PARTNER
        assert partner.tolist() == [[m[i] for m in six] for i in range(6)]

    @pytest.mark.parametrize("lam", [3, 4])
    def test_every_set_of_up_to_six_defects_equals_flip(self, lam):
        # Every defect set of 1-6 checks of each sector is settled with
        # `flips`'s parity, including sets whose optimal matchings have both
        # parities.  An empty row needs nothing, and one of seven defects is
        # returned for `flips`.
        decoder = MwpmDecoder(library.surface_code(lam))
        tied = 0
        for sector in (decoder._z_checks, decoder._x_checks):
            k = len(sector.boundary_cost)
            masks = [sum(1 << i for i in c) for w in range(1, 7) for c in itertools.combinations(range(k), w)]
            seven = (1 << 7) - 1 if k >= 7 else 0
            flips, settled = settle_small(sector, masks + [0, seven])
            assert flips == sector.flips(masks) + [False, False]
            assert settled == [True] * len(masks) + [True, not seven]
            tied += sum(len(optimal_parities(sector, m)) == 2 for m in masks)
        assert tied > 0

    def test_sampled_leftovers_equal_flip(self):
        # Every sector row with 1-6 defects, in sampled d5-d15 batches at
        # p = .01-.15 and in Shor's construction with 16 blocks of 9, gets
        # `flips`'s parity and is settled; larger rows are returned
        # unchanged for `flips`.  Surface tables are uint8; that code's
        # Z-checks in different blocks are unjoined (pair cost 2k = 256, 0 if
        # it wrapped in uint8), so its X-error sector's table is uint16.
        settled, larger, tied, wide = 0, 0, 0, 0
        cases = [
            (library.surface_code(lam), rates)
            for lam, rates in (
                (5, (0.01, 0.05, 0.1, 0.15)),
                (7, (0.01, 0.03, 0.08, 0.12)),
                (9, (0.02, 0.06, 0.15)),
                (15, (0.01, 0.03)),
            )
        ]
        for code, rates in cases + [(shor_blocks(16, 9), (0.02, 0.05))]:
            decoder = MwpmDecoder(code)
            pieces = [(iid_xz(p, p), 41 + i, 0, 200) for i, p in enumerate(rates)]
            rows = sector_rows(decoder, code.parity_batch(*sample_batch(code.n, pieces))[0])
            for sector, (flips, rest) in zip((decoder._z_checks, decoder._x_checks), rows):
                unjoined = code.name == "shor_16x9" and sector.sector == "X"
                assert sector.costs.dtype == (np.uint16 if unjoined else np.uint8)
                before, after = rest.copy(), flips.copy()
                left = set(sector.settle(after, rest).tolist())
                assert np.array_equal(rest, before)
                for row, mask in enumerate(decoders_module._row_ints(rest)):
                    if 1 <= mask.bit_count() <= 6:
                        assert row not in left and after[row] == flips[row] ^ sector.flips([mask])[0]
                        settled += 1
                        wide += unjoined
                        tied += len(optimal_parities(sector, mask)) == 2
                    else:
                        assert (row in left) == (mask > 0) and after[row] == flips[row]
                        larger += mask > 0
        assert settled > 400 and larger > 100 and tied > 10 and wide > 20

    def test_sectors_of_different_word_counts(self):
        # Shor's construction with 8 blocks of 10 qubits: 72 Z-checks (two
        # words) and 7 X-checks (one word): each sector settles rows of its
        # own width.  Rows of both sectors are settled in numpy, and every
        # row decodes as whole-sector `flips` does.
        code = shor_blocks(8, 10)
        n = code.n
        assert code.validate().ok
        decoder = MwpmDecoder(code)
        assert (decoder._z_checks.words, decoder._x_checks.words) == (2, 1)
        pieces = [(iid_xz(p, p), 51 + i, 0, 100) for i, p in enumerate((0.02, 0.05, 0.1))]
        syndromes = code.parity_batch(*sample_batch(n, pieces))[0]
        for sector, (flips, rest) in zip((decoder._z_checks, decoder._x_checks), sector_rows(decoder, syndromes)):
            assert rest.shape[1] == sector.words
            left = sector.settle(flips, rest)
            assert np.setdiff1d(np.flatnonzero(rest.any(axis=1)), left).size > 0
        values = [int.from_bytes(row.tobytes(), "little") for row in syndromes]
        assert np.array_equal(packed(code, values), syndromes)
        decode_as_flips(code, decoder, values)

    @pytest.mark.parametrize("name", SMALL_CSS_CODES)
    def test_small_codes_leave_nothing_to_python(self, name):
        # Every sector of these codes has at most 6 checks, so every row
        # is settled in numpy; two_qubit and the three-qubit codes have an
        # empty sector, Shor's code sectors of 6 and 2 checks.
        code = library.get_code(name)
        decoder = MwpmDecoder(code)
        values = list(range(1 << code.m))
        sectors = (decoder._z_checks, decoder._x_checks)
        for sector, (flips, rest) in zip(sectors, sector_rows(decoder, packed(code, values))):
            assert len(sector.settle(flips, rest)) == 0
            assert flips.tolist() == [logical_flip(sector, v) for v in values]

    @pytest.mark.parametrize("lam", [3, 5, 7, 9])
    def test_rows_of_up_to_six_defects_never_reach_flips(self, monkeypatch, lam):
        # Sampled batches at p = .01-.15: `decode` hands `flips`, in one call
        # per sector, exactly the rows of more than 6 flagged checks, in row
        # order; `settle` decodes every row of 1-6, isolated defects and
        # isolated pairs included.  A d3 sector has 4 checks, so its calls
        # get no row.
        calls = []
        flips = decoders_module._Sector.flips

        def spy(sector, masks, record=None):
            calls.append((sector, list(masks)))
            return flips(sector, masks, record)

        monkeypatch.setattr(decoders_module._Sector, "flips", spy)
        code = library.surface_code(lam)
        decoder = MwpmDecoder(code)
        pieces = [(iid_xz(p, p), 90 + i, 0, 100) for i, p in enumerate((0.01, 0.05, 0.1, 0.15))]
        syndromes = code.parity_batch(*sample_batch(code.n, pieces))[0]
        decoder.decode_batch(syndromes)
        expected, small = [], 0
        for sector, (_, rest) in zip((decoder._z_checks, decoder._x_checks), sector_rows(decoder, syndromes)):
            masks = decoders_module._row_ints(rest)
            expected.append((sector, [m for m in masks if m.bit_count() > 6]))
            small += sum(1 <= m.bit_count() <= 6 for m in masks)
        assert calls == expected
        large = sum(len(masks) for _, masks in expected)
        assert small > 150 and (large == 0 if lam == 3 else large > 200)

    @pytest.mark.parametrize("lam", [3, 5, 7, 9])
    def test_isolated_defects_and_pairs_decode_by_their_own_edges(self, lam):
        # Sampled rows at p = .01-.15: an isolated defect takes its boundary
        # and an isolated pair its edge, which flips nothing, whatever the
        # rest of the row does; `decode` gives that flip XOR `flips` on the
        # rest (`isolated_oracle`).  Rows with a settled pair, with an odd
        # flip of isolated defects, made of them only, and of them and
        # more, all come up.
        code = library.surface_code(lam)
        decoder = MwpmDecoder(code)
        pieces = [(iid_xz(p, p), 80 + i, 0, 60) for i, p in enumerate((0.01, 0.05, 0.1, 0.15))]
        bits = code.parity_batch(*sample_batch(code.n, pieces))[0]
        bits = np.unpackbits(bits.view(np.uint8), axis=1, bitorder="little").view(bool)
        pairs = flipped = whole = mixed = 0
        for sector in (decoder._z_checks, decoder._x_checks):
            present = bits[:, sector.generators]
            masks = [sum(1 << i for i in np.flatnonzero(row).tolist()) for row in present]
            for mask, flip in zip(masks, sector.decode(present).tolist()):
                rest, settled = isolated_oracle(sector, mask)
                assert flip == settled ^ (rest > 0 and sector.flips([rest])[0])
                pairs += any(sector.neighbours[i] & mask for i in bits_of(mask ^ rest))
                flipped += settled
                whole += mask > 0 and rest == 0
                mixed += 0 < rest < mask
        assert pairs > 50 and flipped > 20 and whole > 40 and mixed > 0
