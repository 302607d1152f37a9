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

from functools import cache
from typing import Optional

from .algebra import Form, GradingSpec, gen_dx, gen_x
from .simplicial import beta, omega
from .steenrod import FiniteAModule

__all__ = [
    "lucas",
    "diagonal_coefficient",
    "main1_dims",
    "main1_level_dim",
    "key_degree",
    "key_label",
    "key_product",
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
# The label ring.  A key (a, eps, q) stands for x^a (dx)^eps g_q with
# 0 <= a <= n, one family for both parities of n.  For odd n every key is
# a class.  For even n the relation's derivative (n + 1) x^n dx is nonzero
# mod 2, so it carries g_(q+1) onto x^n dx g_q and that pair drops out:
# (n, 1, q) and (0, 0, q + 1) are no keys.  A product returning None
# means the value is zero, and neither a product nor an operation ever
# returns a value that is no key.

Key = tuple[int, int, int]


def _is_key(n: int, key: Key) -> bool:
    if n % 2:
        return True
    a, eps, q = key
    return (a, eps) != (n, 1) and not (a == eps == 0 and q > 0)


def key_degree(spec: GradingSpec, key: Key) -> int:
    a, eps, q = key
    return spec.m * a + (spec.m - 1) * eps + q * ((spec.n + 1) * spec.m - 1)


def key_label(key: Key) -> str:
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


def key_product(n: int, u: Key, v: Key) -> Optional[Key]:
    (a1, e1, q1), (a2, e2, q2) = u, v
    if e1 and e2:
        return None
    if a1 + a2 > n:
        return None
    if not lucas(q1 + q2, q1):
        return None
    out = (a1 + a2, e1 + e2, q1 + q2)
    return out if _is_key(n, out) else None


def chain_rep(spec: GradingSpec, key: Key) -> Form:
    """Cycle representing a label, in the notation of the chain level.

    For even n, g_q is no cycle past level zero, so x^a g_q with a >= 1
    is carried by x^(a-1) beta(q) instead of x^a omega(q).
    """
    a, eps, q = key
    if spec.n % 2 == 0 and eps == 0 and a >= 1:
        return gen_x(q) ** (a - 1) * beta(q)
    rep = gen_x(q) ** a * omega(q)
    return rep * gen_dx(q) if eps else rep


def level_keys(spec: GradingSpec, q: int) -> list[Key]:
    """All label keys living at one level, in degree order.

    The degree m a + (m - 1) eps grows with (a, eps) in lexicographic
    order, so listing the keys in that order sorts them.
    """
    keys = [(a, eps, q) for a in range(spec.n + 1) for eps in (0, 1)]
    return [key for key in keys if _is_key(spec.n, key)]


def main1_level_dim(spec: GradingSpec, q: int) -> int:
    if spec.n % 2:
        return 2 * (spec.n + 1)
    return 2 * spec.n + 1 if q == 0 else 2 * spec.n


def main1_dims(spec: GradingSpec, q: int, t: int) -> int:
    """Predicted homology dimension at level q, internal degree t.

    The number of the level's keys of that degree, counted on a cached
    tuple of their degrees, as a job asks each level at every t.
    """
    return _level_degrees(spec, q).count(t)


@cache
def _level_degrees(spec: GradingSpec, q: int) -> tuple[int, ...]:
    return tuple(key_degree(spec, key) for key in level_keys(spec, q))


# ---------------------------------------------------------------------------
# The cohomology as a finite module over the squaring operations, graded
# by total degree: the internal degree of a class minus its level.  The
# operations on a key walk its power of x by one binomial rule; the
# divided power generators carry one more odd operation, whose on/off
# switch depends on the space and is passed in by the caller.

def _squares(n: int, m: int, key: Key, sq_one: bool) -> list:
    """Nonzero (k, value) pairs on a key, walking x^a up to x^n.

    >>> _squares(1, 2, (0, 0, 1), True)  # Sq^1 g1 = x*dx
    [(1, (1, 1, 0))]
    >>> _squares(2, 2, (1, 0, 0), False)  # Sq^2 x = x^2
    [(2, (2, 0, 0))]
    """
    a, eps, q = key
    out = [(1, (n, 1, q - 1))] if sq_one and q >= 1 and a == 0 and eps == 0 else []
    top = q * (n + 1) + a
    out += [(m * i, (a + i, eps, q)) for i in range(1, n - a + 1) if lucas(top, i)]
    return [(k, value) for k, value in out if _is_key(n, value)]


def loop_module(n: int, m: int, deg_max: int, *, sq_one: bool) -> FiniteAModule:
    """Finite window of the loop cohomology with its operations.

    The labels are the classes of level_keys at every level whose lowest
    total degree, q * ((n + 1) * m - 2), lies in the window.  sq_one
    switches the one odd-degree operation on the divided power
    generators; it only applies when the truncation exponent is odd and
    its value is a property of the underlying space, not of (n, m).
    A label's products are proposed only with the window keys at levels
    q2 that share no binary digit with its own level q1, since
    binom(q1 + q2, q1) is odd exactly then, and only up to the degree
    the window leaves.  Every operation inside the window is stored as a
    nonzero row, whatever its k.
    """
    spec = GradingSpec(n, m)
    step = (n + 1) * m - 2
    # Per level, its window keys (key, label, total degree) in degree order.
    levels = []
    for q in range(deg_max // step + 1):
        keys = [(key, key_label(key), key_degree(spec, key) - q) for key in level_keys(spec, q)]
        levels.append([entry for entry in keys if entry[2] <= deg_max])
    key_of = {name: (key, q, total) for q, keys in enumerate(levels) for key, name, total in keys}
    name_of = {key: name for name, (key, _, _) in key_of.items()}

    def rule(name: str):
        return [(k, key_label(out)) for k, out in _squares(n, m, key_of[name][0], sq_one)]

    def product(name: str):
        key, q1, d = key_of[name]
        for q2 in range((deg_max - d) // step + 1):
            if q1 & q2:
                continue
            for other, partner, e in levels[q2]:
                if d + e > deg_max:
                    break
                out = key_product(n, key, other)
                if out is not None:
                    yield partner, name_of[out]

    labelled = [(name, total) for name, (_, _, total) in key_of.items()]
    return FiniteAModule(deg_max, labelled, rule, product=product)
