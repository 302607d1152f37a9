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
# The cohomology as a finite module over the squaring operations, graded
# by total degree: the internal degree of a class minus its level.  The
# operations on a key walk its power of x by one binomial rule per family;
# the divided power generators carry one more odd operation, whose on/off
# switch depends on the space and is passed in by the caller.

def _odd_squares(n: int, m: int, key: OddKey, sq_one: bool) -> list:
    """Nonzero (k, value) pairs on an odd key, walking x^a up to x^n.

    >>> _odd_squares(1, 2, (0, 0, 1), True)  # Sq^1 g1 = x*dx
    [(1, (1, 1, 0))]
    """
    a, eps, q = key
    out = [(1, (n, 1, q - 1))] if sq_one and q >= 1 and a == 0 and eps == 0 else []
    top = q * (n + 1) + a
    return out + [(m * i, (a + i, eps, q)) for i in range(1, n - a + 1) if lucas(top, i)]


def _even_squares(n: int, m: int, key: EvenKey, sq_one: bool) -> list:
    """Nonzero (k, value) pairs on an even key, walking x^j up to x^(n-1).

    >>> _even_squares(2, 2, ("b", 0, 0), False)  # Sq^2 b0 = x*b0
    [(2, ('b', 1, 0))]
    """
    if key == ("one",):
        return []
    kind, j, q = key
    top = q * (n + 1) + j + (kind == "b")
    return [(m * i, (kind, j + i, q)) for i in range(1, n - j) if lucas(top, i)]


def loop_module(n: int, m: int, deg_max: int, k_store: int, *, sq_one: bool) -> FiniteAModule:
    """Finite window of the loop cohomology with its operations.

    The labels are the classes of level_keys at every level whose lowest
    total degree, q * ((n + 1) * m - 2), lies in the window.  sq_one
    switches the one odd-degree operation on the divided power
    generators; it only applies when the truncation exponent is odd and
    its value is a property of the underlying space, not of (n, m).
    A label's products are proposed only with the window keys at levels
    q2 that share no binary digit with its own level q1, since
    binom(q1 + q2, q1) is odd exactly then, and only up to the degree
    the window leaves.
    """
    spec = GradingSpec(n, m)
    label, key_degree, squares, times = (
        (odd_label, odd_key_degree, _odd_squares, odd_product)
        if n % 2
        else (even_label, even_key_degree, _even_squares, even_product)
    )
    step = (n + 1) * m - 2
    # Per level, its window keys (key, label, total degree) in degree order.
    levels = []
    for q in range(deg_max // step + 1):
        keys = [(key, label(key), key_degree(spec, key) - q) for key in level_keys(spec, q)]
        levels.append([entry for entry in keys if entry[2] <= deg_max])
    key_of = {name: (key, q, total) for q, keys in enumerate(levels) for key, name, total in keys}
    name_of = {key: name for name, (key, _, _) in key_of.items()}

    def rule(name: str):
        return [(k, label(out)) for k, out in squares(n, m, key_of[name][0], sq_one)]

    def product(name: str):
        key, q1, d = key_of[name]
        for q2 in range((deg_max - d) // step + 1):
            if q1 & q2:
                continue
            for other, partner, e in levels[q2]:
                if d + e > deg_max:
                    break
                out = times(n, key, other)
                if out is not None:
                    yield partner, name_of[out]

    labelled = [(name, total) for name, (_, _, total) in key_of.items()]
    return FiniteAModule(deg_max, labelled, rule, k_store, product=product)
