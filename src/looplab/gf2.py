"""Exact linear algebra over GF(2).

A matrix is a list of Python ints, one int per row, bit j of a row being
the entry in column j.  Everything reduces to integer XOR, so results
are exact and there is no tolerance knob anywhere in the package.
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
    "quotient_reps",
]


def low_bit(x: int) -> int:
    """Index of the lowest set bit of a nonzero int."""
    return (x & -x).bit_length() - 1


def rref(rows: Sequence[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of a bit-row matrix.

    Returns (reduced_rows, pivot_columns) with rows sorted by pivot
    column and fully reduced, so every pivot column meets exactly one
    row.  The pivot of a row is its lowest set bit.  The output depends
    only on the row span, which makes it usable as a canonical form.
    """
    piv: list[tuple[int, int]] = []
    for row in rows:
        for c, r in piv:
            if row >> c & 1:
                row ^= r
        if row:
            c = low_bit(row)
            for i, (pc, pr) in enumerate(piv):
                if pr >> c & 1:
                    piv[i] = (pc, pr ^ row)
            piv.append((c, row))
    piv.sort()
    return [r for _, r in piv], [c for c, _ in piv]


def rank(rows: Sequence[int]) -> int:
    """Rank over GF(2), by forward elimination only.

    Each independent row is kept under its lowest set bit; a new row is
    reduced until its lowest bit is free or it vanishes.  No row is ever
    back-reduced, since only the count is wanted; use rref for a
    canonical basis.

    >>> rank([0b10, 0b01])
    2
    >>> rank([0b11, 0b11])
    1
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                break
            row ^= pivot
    return len(pivots)


def apply_row(v: int, rows: Sequence[int]) -> int:
    """XOR of rows[i] over the set bits i of v (row-vector times matrix)."""
    acc = 0
    while v:
        acc ^= rows[low_bit(v)]
        v &= v - 1
    return acc


def left_kernel(rows: Sequence[int]) -> list[int]:
    """Basis of the vectors c with c M = 0, i.e. the dependencies among the rows.

    Forward elimination as in rank, with a tag on every row recording
    which input rows were XORed into it; a row that reduces to zero
    leaves its tag as a dependency.  The dependency found at row i has
    i as its highest bit, so the dependencies are independent, and there
    are len(rows) - rank(rows) of them.

    >>> left_kernel([0b01, 0b11, 0b10, 0b00])
    [7, 8]
    """
    pivots: dict[int, tuple[int, int]] = {}
    deps = []
    for i, row in enumerate(rows):
        tag = 1 << i
        while row:
            low = row & -row
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
    one valid certificate is returned.
    """
    piv: list[tuple[int, int, int]] = []
    for i, row in enumerate(basis):
        tag = 1 << i
        for c, r, t in piv:
            if row >> c & 1:
                row ^= r
                tag ^= t
        if row:
            piv.append((low_bit(row), row, tag))
    piv.sort()
    t_acc = 0
    for c, r, t in piv:
        if target >> c & 1:
            target ^= r
            t_acc ^= t
    if target:
        return None
    return [t_acc >> i & 1 for i in range(len(basis))]


def quotient_reps(z_basis: Sequence[int], b_basis: Sequence[int]) -> list[int]:
    """Canonical representatives for span(z) modulo span(b).

    Requires span(b) to lie inside span(z) and checks that up front: a
    violation means the caller's chain structure is broken, and it should
    surface here as an error rather than as a silently wrong dimension.
    Representatives are reduced modulo span(b), so none of them has a
    bit in a pivot column of b, and they stay independent from b jointly.
    """
    z_red, z_piv = rref(z_basis)
    b_red, b_piv = rref(b_basis)
    for b in b_red:
        for c, r in zip(z_piv, z_red):
            if b >> c & 1:
                b ^= r
        if b:
            raise ValueError("quotient by a subspace not contained in the ambient span")
    reduced = []
    for z in z_red:
        for c, r in zip(b_piv, b_red):
            if z >> c & 1:
                z ^= r
        if z:
            reduced.append(z)
    return rref(reduced)[0]

