"""Exact linear algebra over GF(2).

A matrix is a list of Python ints, one int per row, bit j of a row being
the entry in column j.  Everything reduces to integer XOR, so results
are exact and there is no tolerance knob anywhere in the package.
Pivot rows are keyed by their lowest bit's column + 1 inside this
module only: rref returns plain pivot columns, and rank counts rows.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = [
    "low_bit",
    "rref",
    "rank",
    "apply_row",
    "left_kernel",
    "solve_in_span",
]


def low_bit(x: int) -> int:
    """Index of the lowest set bit of a nonzero int."""
    return (x & -x).bit_length() - 1


def _echelon(rows: Sequence[int]) -> dict[int, int]:
    """Forward elimination: the independent rows keyed by (row & -row).bit_length().

    A new row is reduced until its lowest bit is free or it vanishes, so
    every kept row has a different lowest bit; no row is back-reduced.
    The key, the pivot column + 1, is a small int, where a one-bit key as
    wide as the row would be hashed anew on every lookup.  The keys do
    not depend on the row order; the rows under them do.

    >>> {k: bin(r) for k, r in _echelon([0b110, 0b011, 0b101]).items()}
    {2: '0b110', 1: '0b11'}
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = (row & -row).bit_length()
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                break
            row ^= pivot
    return pivots


def rref(rows: Sequence[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of a bit-row matrix.

    Returns (reduced_rows, pivot_columns) with rows sorted by pivot
    column and fully reduced, so every pivot column meets exactly one
    row.  The pivot of a row is its lowest set bit.  The output depends
    only on the row span, which makes it usable as a canonical form.

    The echelon rows are back-reduced from the highest pivot down, on
    the same small keys as the forward elimination: a row's bits in the
    higher pivot columns are XORed out with those columns' rows, which
    are already reduced and have no other pivot bit.
    """
    pivots = _echelon(rows)
    order = sorted(pivots)
    mask = 0
    for key in reversed(order):
        row = pivots[key]
        higher = row & mask
        while higher:
            row ^= pivots[(higher & -higher).bit_length()]
            higher &= higher - 1
        pivots[key] = row
        mask |= 1 << (key - 1)
    return [pivots[k] for k in order], [k - 1 for k in order]


def rank(rows: Sequence[int]) -> int:
    """Rank over GF(2): the number of echelon rows.

    >>> rank([0b10, 0b01])
    2
    >>> rank([0b11, 0b11])
    1
    """
    return len(_echelon(rows))


def apply_row(v: int, rows: Sequence[int]) -> int:
    """XOR of rows[i] over the set bits i of v (row-vector times matrix)."""
    acc = 0
    while v:
        acc ^= rows[low_bit(v)]
        v &= v - 1
    return acc


def left_kernel(rows: Sequence[int]) -> list[int]:
    """Basis of the vectors c with c M = 0, i.e. the dependencies among the rows.

    Forward elimination as in _echelon, on the same small column keys,
    with a tag on every row recording which input rows were XORed into
    it; a row that reduces to zero leaves its tag as a dependency.  The
    dependency found at row i has i as its highest bit, so the
    dependencies are independent, and there are len(rows) - rank(rows)
    of them.

    >>> left_kernel([0b01, 0b11, 0b10, 0b00])
    [7, 8]
    """
    pivots: dict[int, tuple[int, int]] = {}
    deps = []
    for i, row in enumerate(rows):
        tag = 1 << i
        while row:
            low = (row & -row).bit_length()
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = (row, tag)
                break
            row ^= pivot[0]
            tag ^= pivot[1]
        if not row:
            deps.append(tag)
    return deps


def solve_in_span(basis: Sequence[int], target: int) -> Optional[list[int]]:
    """Coefficients expressing target in the given spanning set, or None.

    The result is a 0/1 list aligned with basis order; XORing the chosen
    rows reproduces target exactly.  Dependent spanning sets are fine,
    one valid certificate is returned.  Target is appended as the last
    row: it lies in the span exactly when it reduces to zero, which
    leaves a last dependency with bit len(basis) set.

    >>> solve_in_span([0b011, 0b110, 0b101], 0b101)
    [1, 1, 0]
    >>> solve_in_span([0b011, 0b110], 0b100) is None
    True
    """
    deps = left_kernel([*basis, target])
    if not deps or not deps[-1] >> len(basis) & 1:
        return None
    return [deps[-1] >> i & 1 for i in range(len(basis))]
