"""Face and degeneracy maps of the simplicial resolution.

Level q is the forms algebra on x, y_1 .. y_q.  The bottom face folds
the defining relation back in: d_0 sends y_1 to x^(n+1) and reindexes
the remaining generators, while the top face kills y_q.  Images of the
exterior generators are declared to be derivatives of the polynomial
images, which is what makes every face commute with the differential.

All maps here are algebra maps, applied monomial by monomial; a single
monomial always lands on a single monomial or dies, so no map ever
blows a slice up.
"""

from __future__ import annotations

from typing import Callable, Optional

from .algebra import (
    Form,
    GradingSpec,
    Mono,
    gen_dx,
    gen_dy,
    gen_x,
    gen_y,
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

    The polynomial cases: y_1 goes to x^(n+1) under face 0, y_j drops
    its index when i < j, keeps it when i >= j with j below the top,
    and y_q dies under the top face.  The exterior cases mirror them,
    with two extra ways to die: dy_1 under face 0 differentiates the
    relation (zero outright for odd n), and two dy factors pushed onto
    the same target square to zero.
    """
    q = mono.level
    x_out, dx_out = mono.x, mono.dx
    y_out = [0] * (q - 1)
    dy_out = [0] * (q - 1)
    for j in range(1, q + 1):
        e = mono.y[j - 1]
        if not e:
            continue
        if i == 0 and j == 1:
            x_out += (n + 1) * e
        elif i < j:
            y_out[j - 2] += e
        elif j < q:
            y_out[j - 1] += e
        else:
            return None
    for j in range(1, q + 1):
        if not mono.dy[j - 1]:
            continue
        if i == 0 and j == 1:
            if n % 2 or dx_out:
                return None
            x_out += n
            dx_out = 1
        elif i < j:
            if dy_out[j - 2]:
                return None
            dy_out[j - 2] = 1
        elif j < q:
            if dy_out[j - 1]:
                return None
            dy_out[j - 1] = 1
        else:
            return None
    return Mono(x_out, dx_out, tuple(y_out), tuple(dy_out))


def mono_degeneracy(i: int, mono: Mono) -> Mono:
    """Image of one monomial under degeneracy i; never vanishes."""
    q = mono.level
    y_out = [0] * (q + 1)
    dy_out = [0] * (q + 1)
    for j in range(1, q + 1):
        tgt = j if i >= j else j + 1
        y_out[tgt - 1] += mono.y[j - 1]
        dy_out[tgt - 1] |= mono.dy[j - 1]
    return Mono(mono.x, mono.dx, tuple(y_out), tuple(dy_out))


def face(n: int, i: int, form: Form) -> Form:
    """Face i as a map from level q forms to level q-1 forms."""
    q = form.level
    if q < 1:
        raise ValueError("faces are defined from level 1 upward")
    if not 0 <= i <= q:
        raise ValueError(f"face index {i} out of range at level {q}")
    images = (mono_face(n, i, m) for m in form.terms)
    return Form.from_monos(q - 1, (m for m in images if m is not None))


def degeneracy(i: int, form: Form) -> Form:
    """Degeneracy i as a map from level q forms to level q+1 forms."""
    q = form.level
    if not 0 <= i <= q:
        raise ValueError(f"degeneracy index {i} out of range at level {q}")
    # Injective on monomials, so no two images can cancel.
    return Form(q + 1, frozenset(mono_degeneracy(i, m) for m in form.terms))


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
