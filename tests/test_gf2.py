"""`_gf2` against brute force: small random row sets, some with rows that
are combinations of earlier ones, checked over every combination."""

import random
from functools import reduce

import pytest

from stabkit._gf2 import RowBasis, right_inverse


def span(rows):
    """The XOR of every subset of rows."""
    out = {0}
    for row in rows:
        out |= {v ^ row for v in out}
    return out


def random_rows(rng):
    """Up to 7 rows of up to 10 bits; a row is the XOR of a random subset
    of the earlier rows (perhaps the empty one) with probability 0.3."""
    bits, rows = rng.randint(1, 10), []
    for _ in range(rng.randint(0, 7)):
        if rows and rng.random() < 0.3:
            rows.append(reduce(int.__xor__, rng.sample(rows, rng.randint(0, len(rows))), 0))
        else:
            rows.append(rng.getrandbits(bits))
    return rows


CASES = [random_rows(random.Random(seed)) for seed in range(400)]


def test_the_cases_mix_independent_and_dependent_sets():
    dependent = sum(any(row in span(rows[:i]) for i, row in enumerate(rows)) for rows in CASES)
    assert 100 < dependent < len(CASES) - 100


def test_dependent_lists_each_row_in_the_span_of_the_rows_before_it():
    for rows in CASES:
        expected = [i for i, row in enumerate(rows) if row in span(rows[:i])]
        assert RowBasis(rows).dependent == expected, rows


def test_contains_is_span_membership():
    for rows in CASES:
        basis, members = RowBasis(rows), span(rows)
        for v in range(1 << (max(rows, default=0).bit_length() + 1)):
            assert basis.contains(v) == (v in members), (rows, v)


def test_right_inverse_against_brute_force():
    # On an independent set, parity(rows[i] & v_t) = [i == t], and each v_t
    # lies on the pivot columns: the highest bits of the span's members.
    # That right inverse is unique.  Otherwise the first dependent row is
    # named.
    for rows in CASES:
        first = next((i for i, row in enumerate(rows) if row in span(rows[:i])), None)
        if first is not None:
            message = f"^row {first} is a combination of earlier rows$"
            with pytest.raises(ValueError, match=message):
                right_inverse(rows)
            continue
        inverse = right_inverse(rows)
        products = [[(row & v).bit_count() & 1 for v in inverse] for row in rows]
        assert products == [[int(i == t) for t in range(len(rows))] for i in range(len(rows))]
        pivots = sum(1 << c for c in {v.bit_length() - 1 for v in span(rows) if v})
        assert all(v & ~pivots == 0 for v in inverse), rows
