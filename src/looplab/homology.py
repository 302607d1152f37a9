"""Homology of the resolution, computed by brute force slice by slice.

A slice is the span of all level q monomials of one internal degree t,
optionally refined by the finer (w, p) grading.  The degenerate
monomials span a subcomplex D, and the normalized complex N (the common
kernel of the faces 1 .. q, with the bottom face as differential) is
isomorphic to the quotient C/D (Dold-Kan).  The two are used for
different things:
- dimensions come from C/D, whose basis is the nondegenerate monomials
  and whose differential is the sum of all faces with degenerate images
  dropped, so a dimension is a monomial count minus two boundary ranks;
- representatives, cycle and boundary certificates come from N, the
  Dold-Kan image of the nondegenerate monomials under the normalizing
  projection, where homology is an exact quotient with canonical
  representatives.
Nothing here knows any closed-form answer; the closed forms live
elsewhere and the two only ever meet in tests and in the command line
cross checks.

The module also carries a deliberately independent oracle: a four-track
complex small enough to differentiate by hand, whose homology must
agree with the brute force answer degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .algebra import (
    Form,
    GradingSpec,
    Mono,
    internal_degree,
    mono_bigrading,
    monomial_basis,
    nondegenerate_basis,
)
from .gf2 import apply_row, left_kernel, quotient_reps, rank, rref, solve_in_span
from .simplicial import face, mono_face, mono_is_degenerate, mono_normalize

__all__ = [
    "SliceHomology",
    "normalized_basis",
    "normalized_rows",
    "homology_at",
    "homology_dim",
    "cache_stats",
    "clear_caches",
    "is_normalized",
    "is_cycle",
    "is_boundary",
    "class_of",
    "koszul_dim",
    "check_pi0",
    "homology_table",
    "table_tsv",
]


@dataclass(frozen=True)
class SliceHomology:
    """Homology of one slice: dimension plus canonical representatives."""

    q: int
    t: int
    dim: int
    reps: tuple[Form, ...]


def _slice_basis(
    spec: GradingSpec,
    q: int,
    t: int,
    wp: Optional[tuple[int, int]],
    poly_only: bool,
) -> tuple[Mono, ...]:
    basis = monomial_basis(q, spec, t)
    if wp is not None:
        basis = [m for m in basis if mono_bigrading(spec.n, m) == wp]
    if poly_only:
        basis = [m for m in basis if not m.dx and not any(m.dy)]
    return tuple(basis)


def _n_vectors(
    spec: GradingSpec,
    q: int,
    t: int,
    wp: Optional[tuple[int, int]],
    poly_only: bool,
) -> tuple[tuple[Mono, ...], list[int]]:
    """Slice basis plus the reduced basis of the normalized subspace.

    The rows are the projections of the nondegenerate monomials.  Faces
    and degeneracies preserve degree, the (w, p) pair and polynomiality,
    so every projection stays inside the slice.
    """
    basis = _slice_basis(spec, q, t, wp, poly_only)
    index = {m: k for k, m in enumerate(basis)}
    vecs = [
        _to_vec(mono_normalize(spec.n, mono), index)
        for mono in basis
        if not mono_is_degenerate(mono)
    ]
    return basis, rref(vecs)[0]


@lru_cache(maxsize=None)
def _pipeline(
    spec: GradingSpec,
    q: int,
    t: int,
    wp: Optional[tuple[int, int]],
    poly_only: bool,
):
    """Slice basis, normalized subspace, cycles, boundaries, representatives.

    All subspaces are bit-row bases over the slice basis.  The normalized
    subspace is the Dold-Kan image of the nondegenerate monomials, not a
    face-kernel intersection.  The boundary space comes from the
    normalized level above, and quotient_reps raises if it ever escapes
    the cycle space, which would mean the face tables are inconsistent.
    """
    basis, n_basis = _n_vectors(spec, q, t, wp, poly_only)
    index = {m: k for k, m in enumerate(basis)}
    dim = len(basis)

    if q == 0:
        z_basis = list(n_basis)
    else:
        down = _slice_basis(spec, q - 1, t, wp, poly_only)
        down_index = {m: k for k, m in enumerate(down)}
        d0 = [_vec_image(spec.n, v, basis, down_index) for v in n_basis]
        z_basis = rref([apply_row(c, n_basis) for c in left_kernel(d0, len(down))])[0]

    up, up_n = _n_vectors(spec, q + 1, t, wp, poly_only)
    b_basis = rref([_vec_image(spec.n, v, up, index) for v in up_n])[0]

    reps = quotient_reps(z_basis, b_basis, dim)
    return basis, tuple(n_basis), tuple(z_basis), tuple(b_basis), tuple(reps)


def _vec_image(n: int, vec: int, basis: tuple[Mono, ...], tgt_index: dict[Mono, int]) -> int:
    out = 0
    v = vec
    while v:
        k = (v & -v).bit_length() - 1
        img = mono_face(n, 0, basis[k])
        if img is not None:
            out ^= 1 << tgt_index[img]
        v &= v - 1
    return out


def _to_vec(form: Form, index: dict[Mono, int]) -> int:
    vec = 0
    for mono in form.terms:
        if mono not in index:
            raise ValueError("form has a term outside the slice")
        vec |= 1 << index[mono]
    return vec


def _to_form(level: int, vec: int, basis: tuple[Mono, ...]) -> Form:
    monos = []
    while vec:
        k = (vec & -vec).bit_length() - 1
        monos.append(basis[k])
        vec &= vec - 1
    return Form.from_monos(level, monos)


def normalized_rows(
    spec: GradingSpec, q: int, t: int
) -> tuple[tuple[Mono, ...], tuple[int, ...]]:
    """The (q, t) slice basis and the cached bit rows of its normalized subspace.

    Bit k of a row stands for basis[k], and row j is the form
    normalized_basis(spec, q, t)[j].
    """
    basis, n_basis, _, _, _ = _pipeline(spec, q, t, None, False)
    return basis, n_basis


def normalized_basis(spec: GradingSpec, q: int, t: int) -> list[Form]:
    """Basis of the normalized subspace of the (q, t) slice."""
    basis, n_basis = normalized_rows(spec, q, t)
    return [_to_form(q, v, basis) for v in n_basis]


def homology_at(
    spec: GradingSpec,
    q: int,
    t: int,
    wp: Optional[tuple[int, int]] = None,
) -> SliceHomology:
    """Homology of the (q, t) slice, optionally refined to one (w, p)."""
    basis, _, _, _, reps = _pipeline(spec, q, t, wp, False)
    forms = tuple(_to_form(q, v, basis) for v in reps)
    return SliceHomology(q, t, len(forms), forms)


@lru_cache(maxsize=None)
def _quotient_level(spec: GradingSpec, q: int, t: int) -> tuple[int, int]:
    """Dimension of C/D at (q, t) and the rank of its differential to level q-1.

    The differential is the sum of the faces 0 .. q on nondegenerate
    monomials, with degenerate images dropped.  No image is degenerate,
    as a face keeps every slot filled (d_0 shifts the slots, an inner
    face merges two filled slots, and d_q kills a filled top slot), so
    every surviving image is looked up in the target basis and one
    missing from it would raise rather than be dropped.
    """
    sources = nondegenerate_basis(q, spec, t)
    if q == 0:
        return len(sources), 0
    n = spec.n
    target = {mono: k for k, mono in enumerate(nondegenerate_basis(q - 1, spec, t))}
    rows = []
    for mono in sources:
        row = 0
        for i in range(q + 1):
            img = mono_face(n, i, mono)
            if img is not None:
                row ^= 1 << target[img]
        rows.append(row)
    return len(sources), rank(rows)


def homology_dim(spec: GradingSpec, q: int, t: int) -> int:
    """Dimension of the (q, t) homology, read off the quotient C/D.

    Equal to homology_at(spec, q, t).dim without building the normalized
    complex.  Each level's dimension and boundary rank are cached as two
    ints, so the slices at q and q+1 eliminate their shared boundary once.
    """
    chains, boundary_out = _quotient_level(spec, q, t)
    return chains - boundary_out - _quotient_level(spec, q + 1, t)[1]


def cache_stats() -> dict[str, dict[str, int]]:
    """Hits and misses of the slice pipeline and the quotient level caches."""
    return {
        name: {"hits": info.hits, "misses": info.misses}
        for name, info in (
            ("pipeline", _pipeline.cache_info()),
            ("quotientLevel", _quotient_level.cache_info()),
        )
    }


def clear_caches() -> None:
    """Empty the slice pipeline and the quotient level caches.

    Both grow without bound across a process; a long-lived caller that
    moves on to other gradings can drop them, and the hit and miss
    counts of ``cache_stats`` restart from zero.
    """
    _pipeline.cache_clear()
    _quotient_level.cache_clear()


def is_normalized(n: int, form: Form) -> bool:
    """Whether every face above the bottom one kills the form."""
    return all(not face(n, i, form) for i in range(1, form.level + 1))


def is_cycle(spec: GradingSpec, form: Form) -> bool:
    """Whether the bottom face kills a normalized form.

    Raises on a form that is not normalized: asking whether such a form
    is a cycle is a sign the caller is off the normalized complex, and
    a plain False would bury that.
    """
    if not is_normalized(spec.n, form):
        raise ValueError("form is not normalized")
    if form.level == 0:
        return True
    return not face(spec.n, 0, form)


def _require_cycle(spec: GradingSpec, form: Form) -> tuple[int, int]:
    if not form:
        raise ValueError("the zero form has no slice; its class is zero everywhere")
    if not is_cycle(spec, form):
        raise ValueError("form is not a cycle")
    return form.level, internal_degree(spec, form)


def is_boundary(spec: GradingSpec, form: Form) -> bool:
    """Whether a normalized cycle bounds; the zero form trivially does."""
    if not form:
        return True
    q, t = _require_cycle(spec, form)
    basis, _, _, b_basis, _ = _pipeline(spec, q, t, None, False)
    index = {m: k for k, m in enumerate(basis)}
    return solve_in_span(b_basis, _to_vec(form, index), len(basis)) is not None


def class_of(spec: GradingSpec, form: Form) -> tuple[int, ...]:
    """Coordinates of a cycle against the canonical representatives.

    The order matches homology_at(spec, q, t).reps.  Requires a nonzero
    homogeneous normalized cycle.
    """
    q, t = _require_cycle(spec, form)
    basis, _, _, b_basis, reps = _pipeline(spec, q, t, None, False)
    index = {m: k for k, m in enumerate(basis)}
    coords = solve_in_span(
        list(b_basis) + list(reps), _to_vec(form, index), len(basis)
    )
    if coords is None:
        raise ValueError("cycle does not reduce against the slice homology")
    return tuple(coords[len(b_basis) :])


def _koszul_basis(spec: GradingSpec, h: int, t: int) -> list[tuple[int, int, int, int]]:
    """Oracle chain basis at homological degree h and internal degree t.

    A chain (e, i, a, d) stands for v^e g_i x^a dx^d where v kills the
    truncating power, g_i is the i-th divided power companion, and e + i
    is the homological degree.  At most four chains share an (h, t).
    """
    n, m = spec.n, spec.m
    out = []
    for e in (0, 1):
        i = h - e
        if i < 0:
            continue
        for d in (0, 1):
            rest = t - e * (n + 1) * m - i * ((n + 1) * m - 1) - d * (m - 1)
            if rest >= 0 and rest % m == 0:
                out.append((e, i, rest // m, d))
    return out


def koszul_boundary(spec: GradingSpec, chain: tuple[int, int, int, int]):
    """Oracle differential: v goes to the truncating power of x, and the
    divided power companion differentiates it, which dies for odd n."""
    n = spec.n
    e, i, a, d = chain
    out = []
    if e:
        out.append((0, i, a + n + 1, d))
    if n % 2 == 0 and i >= 1 and d == 0:
        out.append((e, i - 1, a + n, 1))
    return out


def _koszul_rows(spec: GradingSpec, src, tgt) -> list[int]:
    tgt_index = {c: k for k, c in enumerate(tgt)}
    rows = []
    for chain in src:
        vec = 0
        for img in koszul_boundary(spec, chain):
            vec ^= 1 << tgt_index[img]
        rows.append(vec)
    return rows


def koszul_dim(spec: GradingSpec, q: int, t: int) -> int:
    """Oracle homology dimension at homological degree q, degree t."""
    basis_q = _koszul_basis(spec, q, t)
    if not basis_q:
        return 0
    down = _koszul_basis(spec, q - 1, t) if q else []
    cycles = len(basis_q) - rank(_koszul_rows(spec, basis_q, down))
    up = _koszul_basis(spec, q + 1, t)
    return cycles - rank(_koszul_rows(spec, up, basis_q))


def check_pi0(spec: GradingSpec, max_level: int, max_degree: int) -> list[str]:
    """Connectivity check on the polynomial part of the resolution.

    The bottom homology must be one dimensional exactly at the degrees
    of the surviving powers of x and every homology between level 1 and
    max_level - 1 must vanish.  Returns failure lines, empty on pass.
    """
    n, m = spec.n, spec.m
    bad = []
    survivors = {a * m for a in range(n + 1)}
    for t in range(max_degree + 1):
        basis, _, z, b, reps = _pipeline(spec, 0, t, None, True)
        want = 1 if t in survivors else 0
        if len(reps) != want:
            bad.append(f"level 0 degree {t}: dim {len(reps)}, expected {want}")
        for q in range(1, max_level):
            _, _, _, _, reps_q = _pipeline(spec, q, t, None, True)
            if reps_q:
                bad.append(f"level {q} degree {t}: dim {len(reps_q)}, expected 0")
    return bad


def homology_table(spec: GradingSpec, max_q: int, max_t: int):
    """Rows (q, t, dim, representative strings) with dim > 0."""
    rows = []
    for q in range(max_q + 1):
        for t in range(max_t + 1):
            h = homology_at(spec, q, t)
            if h.dim:
                rows.append((q, t, h.dim, tuple(str(r) for r in h.reps)))
    return rows


def table_tsv(rows) -> str:
    lines = ["q\tt\tdim\trepresentatives"]
    for q, t, dim, reps in rows:
        lines.append(f"{q}\t{t}\t{dim}\t{'; '.join(reps)}")
    return "\n".join(lines) + "\n"
