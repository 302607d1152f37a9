"""Face and degeneracy maps of the simplicial resolution.

Level q is the forms algebra on x, y_1 .. y_q.  A monomial keeps y_j
and dy_j in slot j, and every map acts on whole slots:
- the bottom face d_0 folds the defining relation back in: slot 1
  goes into x (y_1 to x^(n+1), dy_1 to x^n dx, zero for odd n or when
  dx is present) and the remaining slots shift down;
- the top face d_q drops slot q and kills any term that fills it;
- an inner face d_i merges slots i and i+1, adding the y exponents,
  and kills the term when both carry dy;
- the degeneracy s_i inserts an empty slot at the 0-indexed position i.
Images of the exterior generators are declared to be derivatives of
the polynomial images, which is what makes every face commute with the
differential.

All maps here are algebra maps, applied monomial by monomial; a single
monomial always lands on a single monomial or dies, so no map ever
blows a slice up.  A zero form maps to the shared zero of the target
level once the indices have been checked.
"""

from __future__ import annotations

from functools import cache
from itertools import repeat
from typing import Callable, Optional

from .algebra import (
    Form,
    GradingSpec,
    Mono,
    gen_dx,
    gen_dy,
    gen_x,
    gen_y,
    new_mono,
)

__all__ = [
    "mono_face",
    "mono_degeneracy",
    "face",
    "degeneracy",
    "omega",
    "omega_without",
    "omega_without2",
    "alpha",
    "beta",
    "check_simplicial_identities",
    "mono_is_degenerate",
    "mono_normalize",
    "is_degenerate",
]


def mono_face(n: int, i: int, mono: Mono) -> Optional[Mono]:
    """Image of one monomial under face i, or None when it vanishes.

    Slot j holds y_j and dy_j; each face removes one slot:
    - face 0 folds slot 1 into x and drops it: y_1 becomes x^(n+1), and
      dy_1 becomes x^n dx (it differentiates the relation), which is
      zero when n is odd or dx is already present;
    - face q drops the top slot, and the term dies if that slot is not
      empty;
    - face i, 0 < i < q, merges slots i and i+1: the y exponents add,
      and two dy factors square to zero.
    """
    x, dx, y, dy = mono
    q = len(y)
    if i == 0:
        x += (n + 1) * y[0]
        if dy[0]:
            if n % 2 or dx:
                return None
            x += n
            dx = 1
        return new_mono((x, dx, y[1:], dy[1:]))
    if i == q:
        if y[-1] or dy[-1]:
            return None
        return new_mono((x, dx, y[:-1], dy[:-1]))
    if dy[i - 1] and dy[i]:
        return None
    y = y[: i - 1] + (y[i - 1] + y[i],) + y[i + 1 :]
    dy = dy[: i - 1] + (dy[i - 1] | dy[i],) + dy[i + 1 :]
    return new_mono((x, dx, y, dy))


def mono_degeneracy(i: int, mono: Mono) -> Mono:
    """Image of one monomial under degeneracy i; never vanishes.

    s_i inserts an empty slot at the 0-indexed position i: the slots
    1 .. i keep their index and the slots above move up by one.
    """
    x, dx, y, dy = mono
    return new_mono((x, dx, y[:i] + (0,) + y[i:], dy[:i] + (0,) + dy[i:]))


# The Form-level map reads its images through this memo: the shuffle
# trials hand it the same few hundred (i, monomial) pairs tens of
# thousands of times.  It holds only pairs that reached degeneracy();
# mono_normalize and the homology lifts call mono_degeneracy directly,
# so slice-scale work never fills it.
_cached_degeneracy = cache(mono_degeneracy)


def face(n: int, i: int, form: Form) -> Form:
    """Face i as a map from level q forms to level q-1 forms."""
    q = form.level
    if q < 1:
        raise ValueError("faces are defined from level 1 upward")
    if not 0 <= i <= q:
        raise ValueError(f"face index {i} out of range at level {q}")
    if not form.terms:
        return Form.zero(q - 1)
    # Every image is a level q-1 monomial; coincident images cancel.
    acc: set[Mono] = set()
    for mono in form.terms:
        img = mono_face(n, i, mono)
        if img is None:
            continue
        if img in acc:
            acc.remove(img)
        else:
            acc.add(img)
    return Form(q - 1, frozenset(acc))


def degeneracy(i: int, form: Form) -> Form:
    """Degeneracy i as a map from level q forms to level q+1 forms."""
    q = form.level
    if not 0 <= i <= q:
        raise ValueError(f"degeneracy index {i} out of range at level {q}")
    if not form.terms:
        return Form.zero(q + 1)
    # Injective on monomials, so no two images can cancel.
    return Form(q + 1, frozenset(map(_cached_degeneracy, repeat(i), form.terms)))


def omega(q: int) -> Form:
    """The product dy_1 .. dy_q at level q; level zero gives 1."""
    return Form(q, frozenset({Mono(0, 0, (0,) * q, (1,) * q)}))


def omega_without(q: int, i: int) -> Form:
    """omega(q) with the factor dy_i left out."""
    if not 1 <= i <= q:
        raise ValueError(f"index {i} out of range at level {q}")
    dy = [1] * q
    dy[i - 1] = 0
    return Form(q, frozenset({Mono(0, 0, (0,) * q, tuple(dy))}))


def omega_without2(q: int, i: int, j: int) -> Form:
    """omega(q) with the factors dy_i and dy_j left out, i < j."""
    if not 1 <= i < j <= q:
        raise ValueError(f"indices ({i}, {j}) out of range at level {q}")
    dy = [1] * q
    dy[i - 1] = 0
    dy[j - 1] = 0
    return Form(q, frozenset({Mono(0, 0, (0,) * q, tuple(dy))}))


def alpha(q: int) -> Form:
    """dx times omega(q); the level zero case is dx."""
    return Form(q, frozenset({Mono(0, 1, (0,) * q, (1,) * q)}))


def beta(q: int) -> Form:
    """x omega(q) plus dx sum_i y_i omega_without(q, i); level zero gives x."""
    monos = [Mono(1, 0, (0,) * q, (1,) * q)]
    for i in range(q):
        y = [0] * q
        y[i] = 1
        dy = [1] * q
        dy[i] = 0
        monos.append(Mono(0, 1, tuple(y), tuple(dy)))
    return Form.from_monos(q, monos)


def _generators(q: int) -> list[Form]:
    gens = [gen_x(q), gen_dx(q)]
    for j in range(1, q + 1):
        gens.append(gen_y(q, j))
        gens.append(gen_dy(q, j))
    return gens


def check_simplicial_identities(
    n: int,
    max_level: int = 4,
    face_fn: Callable[[int, int, Form], Form] = face,
    degeneracy_fn: Callable[[int, Form], Form] = degeneracy,
) -> list[str]:
    """All face and degeneracy relations, verified on every generator.

    The maps are algebra maps by construction, so a generator check is a
    full check.  Returns human readable failure lines, empty on success.
    The map arguments exist so a test can feed a corrupted table through
    and watch the check catch it.
    """
    bad = []
    for q in range(max_level + 1):
        gens = _generators(q)
        if q >= 2:
            for j in range(q + 1):
                for i in range(j):
                    for g in gens:
                        if face_fn(n, i, face_fn(n, j, g)) != face_fn(n, j - 1, face_fn(n, i, g)):
                            bad.append(f"d{i} d{j} != d{j - 1} d{i} on {g} at level {q}")
        for j in range(q + 1):
            for i in range(j + 1):
                for g in gens:
                    lhs = degeneracy_fn(i, degeneracy_fn(j, g))
                    rhs = degeneracy_fn(j + 1, degeneracy_fn(i, g))
                    if lhs != rhs:
                        bad.append(f"s{i} s{j} != s{j + 1} s{i} on {g} at level {q}")
        for j in range(q + 1):
            for i in range(q + 2):
                for g in gens:
                    lhs = face_fn(n, i, degeneracy_fn(j, g))
                    if i == j or i == j + 1:
                        rhs = g
                    elif i < j:
                        rhs = degeneracy_fn(j - 1, face_fn(n, i, g))
                    else:
                        rhs = degeneracy_fn(j, face_fn(n, i - 1, g))
                    if lhs != rhs:
                        bad.append(f"d{i} s{j} mismatch on {g} at level {q}")
    return bad


def mono_is_degenerate(mono: Mono) -> bool:
    """Whether the monomial is a degeneracy image.

    Degeneracy i leaves slot i+1 empty and fills the others from the
    level below, so the images are exactly the monomials with some slot
    j carrying neither y_j nor dy_j.  The degenerate part of a level is
    therefore spanned by monomials.
    """
    return any(not e and not f for e, f in zip(mono.y, mono.dy))


def mono_normalize(n: int, mono: Mono) -> Form:
    """The normalizing projection applied to one monomial.

    P = (1 + s_0 d_1)(1 + s_1 d_2) .. (1 + s_(q-1) d_q), rightmost factor
    first.  P kills every degeneracy image and lands in the kernel of the
    faces 1 .. q, and P(mono) is mono plus degenerate monomials, so the
    images of the nondegenerate monomials form a basis of the normalized
    subspace (Dold-Kan).
    """
    terms = {mono}
    for i in range(mono.level, 0, -1):
        for term in list(terms):
            img = mono_face(n, i, term)
            if img is not None:
                terms ^= {mono_degeneracy(i - 1, img)}
    return Form(mono.level, frozenset(terms))


def is_degenerate(spec: GradingSpec, form: Form) -> bool:
    """Whether the form lies in the span of degeneracy images.

    That span is spanned by monomials, so a form lies in it exactly when
    every term does; the form need not be homogeneous.  Level zero admits
    no degeneracies, where only the zero form qualifies.
    """
    return all(mono_is_degenerate(m) for m in form.terms)
