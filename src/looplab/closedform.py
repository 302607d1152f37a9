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

from typing import Iterable, Optional

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

def _odd_elements(n: int, m: int, deg_max: int):
    q = 0
    while q * ((n + 1) * m - 2) <= deg_max:
        for a in range(n + 1):
            for eps in (0, 1):
                total = m * a + (m - 1) * eps + q * ((n + 1) * m - 2)
                if total <= deg_max:
                    yield (a, eps, q), total
        q += 1


def _even_elements(n: int, m: int, deg_max: int):
    yield ("one",), 0
    q = 0
    while q * ((n + 1) * m - 2) <= deg_max:
        for j in range(n):
            for kind, base in (("a", m - 1), ("b", m)):
                total = m * j + base + q * ((n + 1) * m - 2)
                if total <= deg_max:
                    yield (kind, j, q), total
        q += 1


def loop_module(
    n: int,
    m: int,
    deg_max: int,
    k_store: int,
    sq_one: bool = False,
) -> FiniteAModule:
    """Finite window of the loop cohomology with its operations.

    sq_one switches the one odd-degree operation on the divided power
    generators; it only applies when the truncation exponent is odd and
    its value is a property of the underlying space, not of (n, m).
    """
    odd = n % 2 == 1
    if odd:
        elements = list(_odd_elements(n, m, deg_max))
        key_of = {}
        for key, total in elements:
            key_of[odd_label(key)] = (key, total)

        def rule(k: int, label: str):
            (a, eps, q), total = key_of[label]
            if k % m == 0:
                i = k // m
                if a + i <= n and lucas(q * (n + 1) + a, i):
                    return [(odd_label((a + i, eps, q)), total + k)]
            elif k == 1 and sq_one and q >= 1 and a == 0 and eps == 0:
                return [(odd_label((n, 1, q - 1)), total + 1)]
            return []

        def product(la: str, lb: str):
            out = odd_product(n, key_of[la][0], key_of[lb][0])
            return [] if out is None else [odd_label(out)]

    else:
        elements = list(_even_elements(n, m, deg_max))
        key_of = {}
        for key, total in elements:
            key_of[even_label(key)] = (key, total)

        def rule(k: int, label: str):
            key, total = key_of[label]
            if key == ("one",) or k % m:
                return []
            kind, j, q = key
            i = k // m
            top = q * (n + 1) + j + (0 if kind == "a" else 1)
            if j + i <= n - 1 and lucas(top, i):
                return [(even_label((kind, j + i, q)), total + k)]
            return []

        def product(la: str, lb: str):
            out = even_product(n, key_of[la][0], key_of[lb][0])
            return [] if out is None else [even_label(out)]

    labelled = [(odd_label(k) if odd else even_label(k), d) for k, d in elements]
    return FiniteAModule(deg_max, labelled, rule, k_store, product=product)
