"""Linear algebra over GF(2) on machine integers.

Vectors are Python ints used as bit vectors (bit j = coordinate j), so all
row operations are single XORs regardless of length.
"""

from __future__ import annotations


def parity(x: int) -> int:
    return x.bit_count() & 1


class RowBasis:
    """Incremental row-echelon basis, pivot = highest set bit of each row."""

    def __init__(self, rows: list[int] | None = None):
        self._pivots: dict[int, int] = {}
        for row in rows or []:
            self.insert(row)

    def reduce(self, v: int) -> int:
        """Reduce v against the basis; 0 iff v lies in the span."""
        while v:
            pivot = v.bit_length() - 1
            row = self._pivots.get(pivot)
            if row is None:
                break
            v ^= row
        return v

    def insert(self, v: int) -> bool:
        """Add v to the basis. Returns True if v was independent."""
        v = self.reduce(v)
        if v == 0:
            return False
        self._pivots[v.bit_length() - 1] = v
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0


def right_inverse(rows: list[int]) -> list[int]:
    """Vectors v_t with parity(rows[i] & v_t) = [i == t], from one
    Gauss-Jordan pass over [rows | identity].  Raises ValueError if the
    rows are dependent."""
    r = len(rows)
    # Reduced rows keyed by pivot column; the low r bits record which input
    # rows each one combines.  Every pivot column is set in its own row only.
    pivots: dict[int, int] = {}
    for i, row in enumerate(rows):
        v = (row << r) | (1 << i)
        for col, p in pivots.items():
            if (v >> col) & 1:
                v ^= p
        if not v >> r:
            raise ValueError(f"row {i} is a combination of earlier rows")
        col = v.bit_length() - 1
        for c, p in pivots.items():
            if (p >> col) & 1:
                pivots[c] = p ^ v
        pivots[col] = v
    return [
        sum(1 << (col - r) for col, p in pivots.items() if (p >> t) & 1)
        for t in range(r)
    ]
