"""Linear algebra over GF(2) on machine integers.  Vectors are Python ints
used as bit vectors (bit j = coordinate j), so a row operation is one XOR at
any length.  `RowBasis` is the one elimination: membership, dependence and
`right_inverse` all run on it."""

from __future__ import annotations


class RowBasis:
    """Row-echelon basis of `rows`, pivot = highest set bit of each row.
    `dependent` lists the indices of the rows that are combinations of
    earlier ones, in order."""

    def __init__(self, rows: list[int]):
        self._pivots: dict[int, int] = {}
        self.dependent: list[int] = []
        for i, row in enumerate(rows):
            if v := self.reduce(row):
                self._pivots[v.bit_length() - 1] = v
            else:
                self.dependent.append(i)

    def reduce(self, v: int) -> int:
        """Reduce v against the basis; 0 iff v lies in the span."""
        while v and (row := self._pivots.get(v.bit_length() - 1)):
            v ^= row
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0


def right_inverse(rows: list[int]) -> list[int]:
    """Vectors v_t with parity(rows[i] & v_t) = [i == t]; ValueError names
    the first row that is a combination of earlier rows.

    Row i enters a `RowBasis` tagged, as (rows[i] << r) | 1 << i: the low r
    bits of a basis row record the input rows it combines.  A dependent row
    i reduces to tags alone, pivot i < r.  Otherwise back-reducing the rows
    in ascending pivot order leaves each pivot column set in its own row
    only, and v_t is the set of pivot columns (less r) whose row has tag t.
    """
    r = len(rows)
    pivots = RowBasis([(row << r) | 1 << i for i, row in enumerate(rows)])._pivots
    if min(pivots, default=r) < r:
        raise ValueError(f"row {min(pivots)} is a combination of earlier rows")
    done, inverse = 0, [0] * r
    for col in sorted(pivots):
        low = pivots[col] & done
        while low:  # a reduced row has one pivot column set: its own
            c = low.bit_length() - 1
            pivots[col] ^= pivots[c]
            low ^= 1 << c
        done |= 1 << col
        tags = bin(pivots[col] & ((1 << r) - 1))[:1:-1]
        t = tags.find("1")
        while t >= 0:
            inverse[t] |= 1 << (col - r)
            t = tags.find("1", t + 1)
    return inverse
