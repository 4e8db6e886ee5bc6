import functools
import json
import random

import numpy as np
import pytest

from stabkit import code_library as library
from stabkit import decoders as decoders_module
from stabkit.decoders import (
    DEFAULT_DEFECT_CAP,
    DecoderError,
    InstanceTooLargeError,
    LookupDecoder,
    MwpmDecoder,
    build_lookup,
    minimum_weight_matching,
)
from stabkit.noise import derive_seed, iid_xz, sample, sample_batch
from stabkit.pauli import enumerate_paulis, format_sparse, from_support, identity, multiply, parse, weight
from stabkit.stabilizer_code import StabilizerCode, Syndrome, correctable_weight


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
    """`decoders._optimum` without its bound: every kept neighbour of the
    lowest defect is solved and tried.  The oracle for the bounded DP."""
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


def both_dps(mask, neighbours, boundary, dist, flips):
    """(bounded memo, unbounded memo, zero-bound memo) of one defect set,
    each solved with a fresh memo; the top-level entry is memo[mask].  The
    zero bound (every h = 0) is the one `_Sector.flip` uses on small
    components."""
    memos = tuple({0: decoders_module._NOTHING} for _ in range(3))
    rings = decoders_module._neighbours(dist, boundary)[1]
    half, bound = decoders_module._half_costs(mask, rings)
    decoders_module._optimum(mask, memos[0], (neighbours, boundary, dist, flips, half), bound)
    unbounded_optimum(mask, memos[1], neighbours, boundary, dist, flips)
    zeros = [0] * len(boundary)
    decoders_module._optimum(mask, memos[2], (neighbours, boundary, dist, flips, zeros), 0)
    return memos


def sampled_components(lam, rates, seed, trials):
    """(sector, component) for the components of three or more defects, the
    ones the DP solves, in sampled surface-code syndromes; rows with a
    component over the cap are skipped."""
    code = library.surface_code(lam)
    decoder = MwpmDecoder(code)
    found = []
    for s, p in enumerate(rates, seed):
        for value in sampled_syndromes(code, p, s, trials):
            for sector in (decoder._z_checks, decoder._x_checks):
                mask = sum(1 << i for i in sector.defects_of(value))
                try:
                    components = decoders_module._components(mask, sector.neighbours)
                except InstanceTooLargeError:
                    continue
                found += [(sector, c) for c in components if c.bit_count() >= 3]
    return found


def packed(code, values):
    """Syndrome values as `syndrome_batch`-shaped rows of uint64 words."""
    words = -(-code.m // 64)
    data = b"".join(v.to_bytes(8 * words, "little") for v in values)
    return np.frombuffer(data, dtype="<u8").reshape(len(values), words)


def sampled_syndromes(code, p, seed, trials):
    """Syndrome values of `trials` sampled iid_xz(p, p) errors."""
    errors = code.pack_batch(*sample_batch(iid_xz(p, p), code.n, seed, 0, trials))
    return [int.from_bytes(row.tobytes(), "little") for row in code.syndrome_batch(errors)]


def d7_syndromes():
    """Syndrome values of sampled surface_d7 errors, sparse ones (p = .02)
    and dense ones (p = .15); some of the dense ones flag more than
    DEFAULT_DEFECT_CAP Z-checks."""
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


def over_cap(decoder, code, value):
    """(an X-sector component > cap, any component > cap), counting only
    mixed components: a one-sided one (every defect's boundary match flips,
    or none does) is settled by parity at any size."""
    over = [
        any(len(c) > DEFAULT_DEFECT_CAP and len(set(c)) == 2 for c in sector_components(s, value))
        for s in (decoder._z_checks, decoder._x_checks)
    ]
    return over[0], any(over)


def toy_sector(dist, boundary, flips):
    """A `_Sector` on a given matching instance instead of a lattice, for
    calling `flip` on it."""
    sector = object.__new__(decoders_module._Sector)
    sector.pair_cost, sector.boundary_cost, sector.boundary_flips = dist, boundary, flips
    sector.neighbours, sector.rings = decoders_module._neighbours(dist, boundary)
    sector.small_graph = (sector.neighbours, boundary, dist, flips, [0] * len(boundary))
    sector.flipping = sum(1 << i for i, f in enumerate(flips) if f)
    return sector


def matched_flip(sector, value):
    """The flip parity of `minimum_weight_matching`'s pairs on `value`'s
    defects in `sector` (its boundary matches to a flipping side): the
    DP on every component, with no one-sided rule."""
    defects = sector.defects_of(value)
    problem = sector.problem(defects)
    _, pairs = minimum_weight_matching(problem.pair_costs, problem.boundary_costs)
    return sum(sector.boundary_flips[defects[a]] for a, b in pairs if b is None) % 2 == 1


class TestLookup:
    def test_three_qubit_goldens(self):
        table = build_lookup(library.three_qubit_bitflip())
        assert format_sparse(table.table[Syndrome.from_string("10").value]) == "X1"
        assert format_sparse(table.table[Syndrome.from_string("01").value]) == "X3"

    def test_zero_syndrome_identity(self):
        for code in (library.three_qubit_bitflip(), library.shor_nine()):
            table = build_lookup(code)
            assert table.table[0] == identity(code.n)
            assert LookupDecoder(code).decode_value(0) == identity(code.n)

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
        assert value not in decoder.table.table
        assert decoder.decode_value(value) == identity(9)

    def test_guard_on_large_codes(self):
        with pytest.raises(DecoderError):
            build_lookup(library.surface_code(4))  # m = 24 > 20

    def test_stored_recoveries_reproduce_keys(self):
        for code in (library.four_two_two(), library.shor_nine()):
            table = build_lookup(code)
            for value, recovery in table.table.items():
                assert code.syndrome_value(recovery) == value

    def test_lookup_optimality_to_weight_three(self):
        for code in (library.three_qubit_bitflip(), library.four_two_two(), library.shor_nine()):
            table = build_lookup(code)
            for w in range(4):
                for error in enumerate_paulis(code.n, w):
                    stored = table.table[code.syndrome_value(error)]
                    assert weight(stored) <= weight(error)

    def test_json_export(self):
        table = build_lookup(library.three_qubit_bitflip())
        data = json.loads(table.to_json())
        assert data["code"] == "three_qubit_bitflip"
        assert data["recoveries"]["10"] == "X1"

    def test_complete_fill_stops_early(self):
        table = build_lookup(library.shor_nine())
        assert len(table.table) == 256


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

    def test_cap(self):
        k = 17
        dist = [[1] * k for _ in range(k)]
        with pytest.raises(InstanceTooLargeError):
            minimum_weight_matching(dist, [1] * k)

    def test_cap_applies_per_component(self):
        # 9 + 8 defects in two far-apart clusters: over the cap in total,
        # but each cluster is one component within it, so it is solved.
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


class TestBoundedDp:
    """`_optimum` skips a neighbour whose lower bound cannot beat the
    current pick; every entry it computes must equal the unbounded DP's."""

    def assert_same_entries(self, mask, neighbours, boundary, dist, flips):
        bounded, unbounded, zero = both_dps(mask, neighbours, boundary, dist, flips)
        assert bounded[mask] == unbounded[mask] == zero[mask]
        assert all(unbounded[m] == entry for m, entry in bounded.items())
        assert all(unbounded[m] == entry for m, entry in zero.items())
        return bounded[mask]

    def test_sampled_components_equal_the_unbounded_dp(self):
        rates = (0.07, 0.08, 0.09, 0.1, 0.11, 0.12)
        checked = 0
        for lam, trials in ((5, 30), (7, 20)):
            for sector, mask in sampled_components(lam, rates, 40, trials):
                self.assert_same_entries(
                    mask, sector.neighbours, sector.boundary_cost, sector.pair_cost,
                    sector.boundary_flips,
                )
                checked += mask.bit_count() >= 10
        assert checked > 20

    def test_tied_random_instances_equal_the_unbounded_dp(self):
        # Costs 1-3 make many matchings tie, so the pick rests on the
        # ascending tie-break; random flips make the parity depend on it.
        rng = random.Random(123)
        for _ in range(250):
            k = rng.randint(1, 12)
            dist = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i + 1, k):
                    dist[i][j] = dist[j][i] = rng.randint(1, 3)
            boundary = [rng.randint(1, 3) for _ in range(k)]
            flips = [rng.random() < 0.5 for _ in range(k)]
            neighbours = decoders_module._neighbours(dist, boundary)[0]
            whole = (1 << k) - 1
            cost = self.assert_same_entries(whole, neighbours, boundary, dist, flips)[0]
            for mask in decoders_module._components(whole, neighbours):
                self.assert_same_entries(mask, neighbours, boundary, dist, flips)
            assert cost == minimum_weight_matching(dist, boundary)[0]
            assert cost == brute_force_matching_cost(dist, boundary)

    def test_the_bound_prunes(self):
        # d7 at p = .10: the bounded memo holds about 35% of the unbounded
        # DP's states, so the bound is doing its work (no timing needed).
        states = [0, 0]
        for sector, mask in sampled_components(7, (0.1,), 17, 200):
            memos = both_dps(
                mask, sector.neighbours, sector.boundary_cost, sector.pair_cost,
                sector.boundary_flips,
            )
            states = [total + len(memo) - 1 for total, memo in zip(states, memos[:2])]
        assert states[1] > 5000
        assert states[0] <= 0.6 * states[1]


class TestOneSidedComponents:
    """A component whose defects all flip, or none does, is settled by the
    parity of its flipping defects instead of the DP, at any size."""

    def test_random_components_equal_the_dp(self):
        # Costs 1-3 make many matchings tie: a one-sided flip must not
        # depend on which optimum the DP picks.  Each defect takes the
        # instance's side f (random) with probability 0.7, else a random
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
            for mask in decoders_module._components((1 << k) - 1, sector.neighbours, sector.flipping):
                half, bound = decoders_module._half_costs(mask, sector.rings)
                graph = (sector.neighbours, boundary, dist, flips, half)
                c, f, _ = decoders_module._optimum(mask, {0: decoders_module._NOTHING}, graph, bound)
                assert sector.flip([mask]) == f
                cost += c
                sides = {flips[i] for i in range(k) if mask >> i & 1}
                if mask.bit_count() > 1 and len(sides) == 1:
                    one_sided.add((sides.pop(), mask.bit_count() % 2))
            assert cost == brute_force_matching_cost(dist, boundary)
        # Both sides, with even and odd sizes, were settled by parity.
        assert one_sided == {(False, 0), (False, 1), (True, 0), (True, 1)}

    def test_batch_settles_one_sided_leftovers(self):
        # Sampled d5/d7/d9 rows: `decode_batch` equals `decode_value` and
        # the parity of `minimum_weight_matching`'s boundary matches, and a
        # sector whose leftover (its components of three or more defects)
        # is one-sided is settled in the numpy pass: nothing is left of it.
        settled = 0
        for lam, rates in ((5, (0.03, 0.08)), (7, (0.01, 0.03, 0.08)), (9, (0.02, 0.06))):
            code = library.surface_code(lam)
            decoder = MwpmDecoder(code)
            sectors = (decoder._z_checks, decoder._x_checks)
            values = [v for s, p in enumerate(rates, 11) for v in sampled_syndromes(code, p, s, 40)]
            classes, failed = decoder.decode_batch(packed(code, values))
            bits = np.unpackbits(packed(code, values).view(np.uint8), axis=1, bitorder="little")
            rests = [sector.shortcut(bits[:, sector.generators].astype(bool))[1] for sector in sectors]
            for index, (value, row, flag) in enumerate(zip(values, classes, failed)):
                assert flag == over_cap(decoder, code, value)[1]
                if flag:
                    continue
                expected = code.logical_batch(code.pack([decoder.decode_value(value)]))[0]
                assert np.array_equal(row, expected)
                assert list(row) == [matched_flip(sectors[1], value), matched_flip(sectors[0], value)]
                for sector, rest in zip(sectors, rests):
                    leftover = {f for c in sector_components(sector, value) if len(c) >= 3 for f in c}
                    if len(leftover) == 1:
                        assert not rest[index].any()
                        settled += 1
        assert settled > 20

    def test_one_sided_component_over_the_cap_decodes(self):
        # d9 X-error sector: the two flipping rows nearest the top (18
        # defects) are one component, four non-flipping bottom defects
        # another.  Sending every defect to its own boundary is a matching,
        # and on one-sided components every matching has the same flip, so
        # the class is the parity of the flipping defects.  The first two
        # rows are settled in the numpy pass, the last two (mixed leftover)
        # in `flip`.  A mixed component over the cap still gives up.
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
        bits = np.zeros((len(rows), len(flips)), dtype=bool)
        for r, row in enumerate(rows):
            bits[r, row] = True
        assert sector.shortcut(bits)[1].any(axis=1).tolist() == [False, False, True, True]
        classes, failed = decoder.decode_batch(packed(code, values))
        assert not failed.any()
        assert classes.tolist() == [[False, f] for f in expected]
        for value, row in zip(values, classes):
            assert np.array_equal(row, code.logical_batch(code.pack([decoder.decode_value(value)]))[0])
        mixed = sector.sector_mask
        assert [len(set(c)) for c in sector_components(sector, mixed)] == [2]
        with pytest.raises(InstanceTooLargeError):
            decoder.decode_value(mixed)
        assert decoder.decode_batch(packed(code, [mixed]))[1].all()


class TestMwpmDecoder:
    def test_requires_layout(self):
        with pytest.raises(DecoderError):
            MwpmDecoder(library.shor_nine())

    def test_requires_the_layout_logicals(self):
        # Z̄ times a Z-check is an equally valid logical, but the boundary
        # flips are measured against the top row, so the decoder refuses it.
        code = library.surface_code(3)
        xbar, zbar = code.logicals[0]
        check = next(g for g in code.generators if g.z_bits & zbar.z_bits)
        moved = StabilizerCode(
            code.name, code.n, code.k, code.generators, ((xbar, multiply(zbar, check)),),
            code.declared_distance, code.layout,
        )
        assert moved.validate().ok
        with pytest.raises(DecoderError, match="top row"):
            MwpmDecoder(moved)

    def test_zero_syndrome(self):
        code = library.surface_code(2)
        assert MwpmDecoder(code).decode_value(0) == identity(code.n)

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

    def test_instance_cap_propagates(self):
        code, values = d7_syndromes()
        decoder = MwpmDecoder(code)
        dense_z_checks = decoded = 0
        for value in values:
            dense_x_sector, dense = over_cap(decoder, code, value)
            dense_z_checks += dense_x_sector
            if dense:
                with pytest.raises(InstanceTooLargeError):
                    decoder.decode_value(value)
            else:
                assert code.syndrome_value(decoder.decode_value(value)) == value
                decoded += 1
        assert dense_z_checks > 0 and decoded > 0

    def test_split_equals_the_unsplit_dp(self):
        # The DP's picks in a component do not depend on the others, so on
        # a sector within the cap, solving by component (`logical_flip`)
        # gives the flip of one DP over the whole unsplit defect set.
        d7, d7_values = d7_syndromes()
        d5 = library.surface_code(5)
        split = 0
        for code, values in ((d7, d7_values), (d5, sampled_syndromes(d5, 0.1, 3, 60))):
            decoder = MwpmDecoder(code)
            for value in values:
                for sector in (decoder._z_checks, decoder._x_checks):
                    mask = sum(1 << i for i in sector.defects_of(value))
                    if not 0 < mask.bit_count() <= DEFAULT_DEFECT_CAP:
                        continue
                    half, bound = decoders_module._half_costs(mask, sector.rings)
                    graph = (
                        sector.neighbours, sector.boundary_cost, sector.pair_cost,
                        sector.boundary_flips, half,
                    )
                    whole = decoders_module._optimum(
                        mask, {0: decoders_module._NOTHING}, graph, bound
                    )
                    assert sector.logical_flip(value) == whole[1]
                    split += len(decoders_module._components(mask, sector.neighbours)) > 1
        assert split > 50

    def test_uniform_decode_dispatch(self):
        # Both decoders implement the one protocol: name, decode_value and
        # decode_batch, and on the d3 surface code they agree that every
        # weight-1 error is corrected.
        code = library.surface_code(3)
        decoders = (MwpmDecoder(code), LookupDecoder(code))
        assert [d.name for d in decoders] == ["mwpm", "lookup"]
        errors = list(enumerate_paulis(code.n, 1))
        values = [code.syndrome_value(e) for e in errors]
        packed = code.syndrome_batch(code.pack(errors))
        for decoder in decoders:
            recoveries = [decoder.decode_value(v) for v in values]
            assert [code.syndrome_value(r) for r in recoveries] == values
            assert all(code.in_stabilizer_group(multiply(r, e)) for r, e in zip(recoveries, errors))
            classes, failed = decoder.decode_batch(packed)
            assert not failed.any()
            assert np.array_equal(classes, code.logical_batch(code.pack(recoveries)))
            # Every recovery has its error's class: the batch verdict is success.
            assert np.array_equal(classes, code.logical_batch(code.pack(errors)))


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
            missed = [v not in decoder.table.table for v in values]
            misses += sum(missed)
            classes, failed = decoder.decode_batch(packed(code, values))
            assert list(failed) == missed
            expected = [decoder.decode_value(v) for v in values]
            assert np.array_equal(classes, code.logical_batch(code.pack(expected)))
            success = (classes == code.logical_batch(code.pack(errors))).all(axis=1) & ~failed
            reference = [
                code.in_stabilizer_group(multiply(r, e)) for r, e in zip(expected, errors)
            ]
            assert list(success) == reference
        # The weight-1 tables miss syndromes: `decode_value` returns the
        # identity and `decode_batch` flags them as failed.
        assert (misses > 0) == (max_weight == 1)

    def test_mwpm_batch_matches_scalar_and_flags_give_ups(self):
        # decode_batch resolves isolated defects and pairs in numpy and the
        # rest by component; decode_value splits by component with no numpy
        # pass.  The cases cover every path: surface_d9 sectors (72 checks)
        # span two words, the low-rate rows are mostly isolated defects or
        # pairs, and three d7 rows at p = .12 (seed 7) have a sector over
        # the cap in total but no component over it.
        code, values = d7_syndromes()
        cases = [(code, [0] + values)]
        for lam, rates, n in (
            (9, (0.03, 0.1), 40), (5, (0.005, 0.03), 60), (7, (0.005, 0.03, 0.12), 60)
        ):
            code = library.surface_code(lam)
            values = [v for s, p in enumerate(rates, 5) for v in sampled_syndromes(code, p, s, n)]
            cases.append((code, values))
        names = {1: "isolated only", 2: "isolated pair"}
        paths, x_sector_over_cap = set(), False
        for code, values in cases:
            decoder = MwpmDecoder(code)
            classes, failed = decoder.decode_batch(packed(code, values))
            for value, row, flag in zip(values, classes, failed):
                problems = decoder.matching_problems(Syndrome.from_int(value, code.m))
                sizes = [len(c) for problem in problems.values() for c in components_of(problem)]
                largest_sector = max(len(problem.defects) for problem in problems.values())
                x_over, over = over_cap(decoder, code, value)
                x_sector_over_cap |= x_over
                assert flag == over  # the cap applies to each component
                if over:
                    paths.add("over cap")
                elif largest_sector > DEFAULT_DEFECT_CAP:
                    paths.add("sector over cap, components within")
                elif sizes:
                    paths.add(names.get(max(sizes), "component >= 3"))
                try:
                    expected = decoder.decode_value(value)
                except DecoderError:
                    assert flag  # a given-up row's class is never read
                    continue
                assert not flag
                assert np.array_equal(row, code.logical_batch(code.pack([expected]))[0])
            assert not failed.all()
        assert paths == {
            "isolated only", "isolated pair", "component >= 3", "over cap",
            "sector over cap, components within",
        }
        assert x_sector_over_cap

    def test_a_row_that_gives_up_runs_no_dp(self, monkeypatch):
        # The X-error sector has a mixed three-defect component (one side
        # flips, the other does not) for the DP and the Z-error sector,
        # split second, one over the cap: both sectors are split before
        # any DP runs, so the flagged row costs none.
        code = library.surface_code(7)
        decoder = MwpmDecoder(code)
        z_checks, x_checks = decoder._z_checks, decoder._x_checks
        flips, linked = z_checks.boundary_flips, z_checks.neighbours
        k = len(z_checks.ids)
        i, j = next((i, j) for i in range(k) for j in range(k) if linked[i] >> j & 1 and flips[i] != flips[j])
        third = next(h for h in range(k) if h != j and linked[i] >> h & 1)
        triple = sum(1 << int(z_checks.generators[h]) for h in (i, j, third))
        assert [sorted(map(len, sector_components(z_checks, triple)))] == [[3]]
        with pytest.raises(InstanceTooLargeError):
            decoder.decode_value(x_checks.sector_mask)
        calls = []
        optimum = decoders_module._optimum
        monkeypatch.setattr(
            decoders_module, "_optimum", lambda *args: calls.append(args[0]) or optimum(*args)
        )
        _, failed = decoder.decode_batch(packed(code, [triple | x_checks.sector_mask]))
        assert failed.all() and not calls
        _, failed = decoder.decode_batch(packed(code, [triple]))
        assert not failed.any() and calls

    def test_rows_past_uint8_degrees_go_whole_to_the_split(self):
        # d20 Z-checks: with all 380 flagged, some defects have 256 or 257
        # flagged neighbours, and with one check plus 256 of its neighbours
        # flagged, that check has 256.  A uint8 degree reads these as 0 or
        # 1, so such rows skip the numpy pass: it resolves nothing.
        code = library.surface_code(20)
        decoder = MwpmDecoder(code)
        sector = decoder._z_checks
        k = len(sector.ids)
        hub = max(range(k), key=lambda i: sector.neighbours[i].bit_count())
        star = [hub] + [j for j in range(k) if sector.neighbours[hub] >> j & 1][:256]
        present = np.zeros((2, k), dtype=bool)
        present[0] = True
        present[1, star] = True
        flips, rest = sector.shortcut(present)
        assert not flips.any()
        unpacked = np.unpackbits(rest.view(np.uint8), axis=1, bitorder="little")[:, :k]
        assert np.array_equal(unpacked, present)
        values = [sum(1 << int(g) for g in sector.generators[row]) for row in present]
        _, failed = decoder.decode_batch(packed(code, values))
        assert failed.all()
        for value in values:
            with pytest.raises(InstanceTooLargeError):
                decoder.decode_value(value)
