"""Closed form answers for the free loop homology of one truncated stage.

Everything the chain level computes slice by slice has a predicted
answer with named classes, binomial coefficients mod 2, and a short
multiplication table.  This module states those answers: dimension
counts per level and degree, the label ring with its products and top
diagonals, chain representatives for each label, and a builder that
packages the cohomology with its squaring operations as a finite
module.  The rest of the package treats these as claims to be checked,
never as inputs to the machinery that checks them.
"""

from __future__ import annotations

from typing import Optional

from .algebra import Form, GradingSpec, gen_dx, gen_x
from .simplicial import alpha, beta, omega
from .steenrod import FiniteAModule

__all__ = [
    "lucas",
    "diagonal_coefficient",
    "main1_dims",
    "main1_level_dim",
    "odd_key_degree",
    "even_key_degree",
    "odd_label",
    "even_label",
    "odd_product",
    "even_product",
    "chain_rep",
    "level_keys",
    "loop_module",
]


def lucas(top: int, bottom: int) -> int:
    """Binomial coefficient mod 2 by base 2 digit containment.

    >>> [lucas(4, k) for k in range(5)]
    [1, 0, 0, 0, 1]
    >>> lucas(3, 5)
    0
    """
    if bottom < 0 or bottom > top:
        return 0
    return 1 if bottom & top == bottom else 0


def diagonal_coefficient(q: int) -> int:
    """Coefficient of the top diagonal on a level q generator."""
    return lucas(2 * q - 1, q)


# ---------------------------------------------------------------------------
# The label ring.  Keys are tuples: for odd truncation (a, eps, q) stands
# for x^a (dx)^eps g_q; for even truncation ("one",) is the unit and
# (kind, j, q) with kind "a" or "b" stands for x^j times the level q
# exterior or polynomial class.  A product or operation returning None
# means the value is zero.

OddKey = tuple[int, int, int]
EvenKey = tuple


def odd_key_degree(spec: GradingSpec, key: OddKey) -> int:
    a, eps, q = key
    return spec.m * a + (spec.m - 1) * eps + q * ((spec.n + 1) * spec.m - 1)


def even_key_degree(spec: GradingSpec, key: EvenKey) -> int:
    if key == ("one",):
        return 0
    kind, j, q = key
    base = spec.m - 1 if kind == "a" else spec.m
    return spec.m * j + base + q * ((spec.n + 1) * spec.m - 1)


def odd_label(key: OddKey) -> str:
    a, eps, q = key
    parts = []
    if a == 1:
        parts.append("x")
    elif a > 1:
        parts.append(f"x^{a}")
    if eps:
        parts.append("dx")
    if q:
        parts.append(f"g{q}")
    return "*".join(parts) if parts else "1"

def even_label(key: EvenKey) -> str:
    if key == ("one",):
        return "1"
    kind, j, q = key
    if j == 0:
        return f"{kind}{q}"
    stem = "x" if j == 1 else f"x^{j}"
    return f"{stem}*{kind}{q}"


def odd_product(n: int, u: OddKey, v: OddKey) -> Optional[OddKey]:
    (a1, e1, q1), (a2, e2, q2) = u, v
    if e1 and e2:
        return None
    if a1 + a2 > n:
        return None
    if not lucas(q1 + q2, q1):
        return None
    return (a1 + a2, e1 + e2, q1 + q2)


def even_product(n: int, u: EvenKey, v: EvenKey) -> Optional[EvenKey]:
    if u == ("one",):
        return v
    if v == ("one",):
        return u
    (k1, j1, q1), (k2, j2, q2) = u, v
    if k1 == "a" and k2 == "a":
        return None
    if not lucas(q1 + q2, q1):
        return None
    j = j1 + j2 + 1
    if j > n - 1:
        return None
    return ("b" if k1 == k2 else "a", j, q1 + q2)


def chain_rep(spec: GradingSpec, key) -> Form:
    """Cycle representing a label, in the notation of the chain level."""
    if spec.n % 2:
        a, eps, q = key
        rep = gen_x(q) ** a * omega(q)
        if eps:
            rep = rep * gen_dx(q)
        return rep
    if key == ("one",):
        return Form.one(0)
    kind, j, q = key
    core = alpha(q) if kind == "a" else beta(q)
    return gen_x(q) ** j * core


def level_keys(spec: GradingSpec, q: int) -> list:
    """All label keys living at one level, in degree order."""
    if spec.n % 2:
        keys: list = [(a, eps, q) for a in range(spec.n + 1) for eps in (0, 1)]
        keys.sort(key=lambda k: odd_key_degree(spec, k))
        return keys
    keys = [("one",)] if q == 0 else []
    keys += [(kind, j, q) for j in range(spec.n) for kind in ("a", "b")]
    keys.sort(key=lambda k: even_key_degree(spec, k))
    return keys


def main1_level_dim(spec: GradingSpec, q: int) -> int:
    if spec.n % 2:
        return 2 * (spec.n + 1)
    return 2 * spec.n + 1 if q == 0 else 2 * spec.n


def main1_dims(spec: GradingSpec, q: int, t: int) -> int:
    """Predicted homology dimension at level q, internal degree t."""
    degree = odd_key_degree if spec.n % 2 else even_key_degree
    return sum(1 for key in level_keys(spec, q) if degree(spec, key) == t)


# ---------------------------------------------------------------------------
# The cohomology as a finite module over the squaring operations.  The
# grading here is total degree, which is the internal degree of a class
# minus its level.  Operation values follow one binomial rule per
# family, plus a single odd operation on the divided power generators
# whose on/off switch depends on the space and is passed in by the
# caller.

def _odd_square(n: int, m: int, k: int, key: OddKey, sq_one: bool) -> Optional[OddKey]:
    a, eps, q = key
    if k % m == 0:
        i = k // m
        if a + i <= n and lucas(q * (n + 1) + a, i):
            return (a + i, eps, q)
    elif k == 1 and sq_one and q >= 1 and a == 0 and eps == 0:
        return (n, 1, q - 1)
    return None


def _even_square(
    n: int, m: int, k: int, key: EvenKey, sq_one: bool
) -> Optional[EvenKey]:
    if key == ("one",) or k % m:
        return None
    kind, j, q = key
    i = k // m
    top = q * (n + 1) + j + (0 if kind == "a" else 1)
    if j + i <= n - 1 and lucas(top, i):
        return (kind, j + i, q)
    return None


def loop_module(
    n: int, m: int, deg_max: int, k_store: int, sq_one: bool = False
) -> FiniteAModule:
    """Finite window of the loop cohomology with its operations.

    The labels are the classes of level_keys at every level whose lowest
    total degree, q * ((n + 1) * m - 2), lies in the window.  sq_one
    switches the one odd-degree operation on the divided power
    generators; it only applies when the truncation exponent is odd and
    its value is a property of the underlying space, not of (n, m).
    """
    spec = GradingSpec(n, m)
    label, key_degree, square, times = (
        (odd_label, odd_key_degree, _odd_square, odd_product)
        if n % 2
        else (even_label, even_key_degree, _even_square, even_product)
    )
    elements = []
    for q in range(deg_max // ((n + 1) * m - 2) + 1):
        for key in level_keys(spec, q):
            total = key_degree(spec, key) - q
            if total <= deg_max:
                elements.append((key, total))
    key_of = {label(key): (key, total) for key, total in elements}

    def rule(k: int, name: str):
        # Only Sq^1 and multiples of m act; skip the rest before the lookup.
        if k % m and k > 1:
            return []
        key, total = key_of[name]
        out = square(n, m, k, key, sq_one)
        return [] if out is None else [(label(out), total + k)]

    def product(la: str, lb: str):
        out = times(n, key_of[la][0], key_of[lb][0])
        return [] if out is None else [label(out)]

    labelled = [(label(key), total) for key, total in elements]
    return FiniteAModule(deg_max, labelled, rule, k_store, product=product)
