"""Homology of the resolution, computed by brute force slice by slice.

A slice is the span of all level q monomials of one internal degree t;
faces preserve the word length w, which fixes every other grading given
t, so a slice is the direct sum of its (q, t, w) blocks.  The degenerate
monomials span a subcomplex D, and the normalized complex N (the common
kernel of the faces 1 .. q, with the bottom face as differential) is
isomorphic to the quotient C/D (Dold-Kan).  Homology is computed on C/D,
whose basis is the nondegenerate monomials and whose differential is the
sum of all faces with degenerate images dropped, one block at a time:
- a dimension is a monomial count minus two boundary ranks, summed over w;
- a block's representatives are its cycles with no bit in a pivot column
  of the boundaries' echelon form, reduced to a canonical basis, and
  lifted to normalized cycles by the normalizing projection P; a
  boundary that is not a cycle (d∘d ≠ 0) raises ValueError; a slice
  merges its blocks' representatives by their lowest monomial;
- a normalized cycle's class is read off its nondegenerate terms.
N itself is built only for the rows that the shuffle trials draw from
(normalized_rows).
Nothing here knows any closed-form answer; the closed forms live
elsewhere and the two only ever meet in tests and in the command line
cross checks.

The module also carries a deliberately independent oracle: a four-track
complex small enough to differentiate by hand, whose homology must
agree with the brute force answer degree by degree.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

from .algebra import (
    Form,
    GradingSpec,
    Mono,
    internal_degree,
    mono_word_length,
    monomial_basis,
    nondegenerate_basis,
)
from .gf2 import apply_row, echelon, left_kernel, low_bit, rank, rref, solve_in_span
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
]


class SliceHomology(NamedTuple):
    """Homology of one slice: dimension plus canonical representatives."""

    q: int
    t: int
    dim: int
    reps: tuple[Form, ...]


def _differential_rows(
    n: int, sources: Iterable[Mono], targets: Iterable[Mono]
) -> list[int]:
    """Bit rows of the C/D differential from sources to the level below.

    The differential is the sum of the faces on nondegenerate monomials,
    with degenerate images dropped.  No image is degenerate, as a face
    keeps every slot filled (d_0 shifts the slots and an inner face
    merges two filled slots), and the top face kills a filled top slot,
    so only the faces below the top are applied and every surviving
    image is looked up in targets; one missing from it raises rather
    than being dropped.  Faces preserve degree and word length, so a
    (q, t, w) block maps into the (q - 1, t, w) block.
    """
    index = {mono: k for k, mono in enumerate(targets)}
    rows = []
    for mono in sources:
        row = 0
        for i in range(mono.level):
            img = mono_face(n, i, mono)
            if img is not None:
                row ^= 1 << index[img]
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def _pipeline(
    spec: GradingSpec, q: int, t: int
) -> tuple[tuple[Mono, ...], tuple[int, ...]]:
    """Monomial basis of the (q, t) slice and the reduced basis of N in it.

    The rows are the projections of the nondegenerate monomials, the
    Dold-Kan image of C/D in N, reduced to a canonical basis.
    """
    basis = tuple(monomial_basis(q, spec, t))
    index = {m: k for k, m in enumerate(basis)}
    vecs = [
        _to_vec(mono_normalize(spec.n, mono).terms, index)
        for mono in basis
        if not mono_is_degenerate(mono)
    ]
    return basis, tuple(rref(vecs)[0])


@lru_cache(maxsize=None)
def _classes(
    spec: GradingSpec, q: int, t: int, w: int
) -> tuple[tuple[Mono, ...], tuple[int, ...], tuple[int, ...]]:
    """Nondegenerate basis, boundaries and canonical representatives of a w block.

    The basis is the (q, t, w) block of C/D, sorted; boundaries and
    representatives are bit rows over it, the boundaries being the echelon
    rows of the differential from the block above.  Every cycle reduces
    modulo the boundaries to exactly one cycle with no bit in a pivot column
    of the boundaries, so the cycles off the pivots represent the homology:
    the dependencies among the differential rows of the free (non-pivot)
    basis monomials, reduced to a canonical basis (so the neighbouring
    blocks need no sort).  A boundary that is not a cycle (d∘d ≠ 0) means
    the face tables are inconsistent and raises ValueError.
    """
    basis = tuple(sorted(nondegenerate_basis(q, spec, t, w)))
    down = nondegenerate_basis(q - 1, spec, t, w)
    up = nondegenerate_basis(q + 1, spec, t, w)
    rows = _differential_rows(spec.n, basis, down)
    bounds = echelon(_differential_rows(spec.n, up, basis))
    if any(apply_row(b, rows) for b in bounds.values()):
        raise ValueError("a boundary is not a cycle: the face tables break d∘d = 0")
    pivots = sum(bounds)
    free = [k for k in range(len(basis)) if not pivots >> k & 1]
    units = [1 << k for k in free]
    reps = [apply_row(dep, units) for dep in left_kernel([rows[k] for k in free])]
    return basis, tuple(bounds.values()), tuple(rref(reps)[0])


def _to_vec(monos: Iterable[Mono], index: dict[Mono, int]) -> int:
    vec = 0
    for mono in monos:
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
    return _pipeline(spec, q, t)


def normalized_basis(spec: GradingSpec, q: int, t: int) -> list[Form]:
    """Basis of the normalized subspace of the (q, t) slice."""
    basis, n_basis = normalized_rows(spec, q, t)
    return [_to_form(q, v, basis) for v in n_basis]


def homology_at(
    spec: GradingSpec, q: int, t: int, w: Optional[int] = None
) -> SliceHomology:
    """Homology of the (q, t) slice, or of its w block when w is given.

    Representatives are the canonical ones of each block on C/D, lifted to
    normalized cycles by the normalizing projection.  A slice orders them
    by lowest nondegenerate monomial, the order of its own reduced echelon
    form, which is the union of its blocks' (they sit on disjoint columns).
    """
    reps = []
    for v in range(q + 2) if w is None else (w,):
        basis, _, vecs = _classes(spec, q, t, v)
        reps += [(basis[low_bit(vec)], _to_form(q, vec, basis)) for vec in vecs]
    forms = tuple(
        sum((mono_normalize(spec.n, m) for m in form.terms), Form.zero(q))
        for _, form in sorted(reps, key=lambda rep: rep[0])
    )
    return SliceHomology(q, t, len(forms), forms)


@lru_cache(maxsize=None)
def _quotient_level(spec: GradingSpec, q: int, t: int) -> tuple[int, int]:
    """Dimension of C/D at (q, t) and the rank of its differential to level q-1.

    Faces preserve w, so both are sums over the w blocks, each rank on
    rows as wide as its target block; empty source blocks are skipped.
    The blocks keep nondegenerate_basis's order: a rank does not depend
    on it, so the sort that _classes needs is skipped here.
    """
    chains = boundary = 0
    for w in range(q + 2):
        sources = nondegenerate_basis(q, spec, t, w)
        if sources:
            down = nondegenerate_basis(q - 1, spec, t, w)
            chains += len(sources)
            boundary += rank(_differential_rows(spec.n, sources, down))
    return chains, boundary


def homology_dim(spec: GradingSpec, q: int, t: int) -> int:
    """Dimension of the (q, t) homology, read off the quotient C/D.

    Equal to homology_at(spec, q, t).dim without finding cycles or
    representatives.  Each level's dimension and boundary rank are cached
    as two ints, so the slices at q and q+1 eliminate their shared
    boundary once.

    For x truncated at x^3 with |x| = 2 (n = 2, m = 2), level 0 holds the
    powers of x and dx x^j below the truncation, and level 1 the classes
    x^j alpha and x^j beta in degrees 6 to 9:

    >>> spec = GradingSpec(2, 2)
    >>> [homology_dim(spec, 0, t) for t in range(6)]
    [1, 1, 1, 1, 1, 0]
    >>> [homology_dim(spec, 1, t) for t in range(5, 11)]
    [0, 1, 1, 1, 1, 0]
    """
    chains, boundary_out = _quotient_level(spec, q, t)
    return chains - boundary_out - _quotient_level(spec, q + 1, t)[1]


def cache_stats() -> dict[str, dict[str, int]]:
    """Hits and misses of the slice pipeline, class and quotient level caches."""
    return {
        name: {"hits": info.hits, "misses": info.misses}
        for name, info in (
            ("pipeline", _pipeline.cache_info()),
            ("classes", _classes.cache_info()),
            ("quotientLevel", _quotient_level.cache_info()),
        )
    }


def clear_caches() -> None:
    """Empty the slice pipeline, class and quotient level caches.

    All three grow without bound across a process; a long-lived caller that
    moves on to other gradings can drop them, and the hit and miss
    counts of ``cache_stats`` restart from zero.
    """
    _pipeline.cache_clear()
    _classes.cache_clear()
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
    """Whether a normalized cycle bounds, i.e. its class is zero; the zero form does."""
    return not form or not any(class_of(spec, form))


def class_of(spec: GradingSpec, form: Form) -> tuple[int, ...]:
    """Coordinates of a cycle against the canonical representatives.

    The order matches homology_at(spec, q, t).reps.  Requires a nonzero
    homogeneous normalized cycle.  Its image in C/D drops the degenerate
    terms, and is a cycle there exactly when the form is one in N; the
    image splits by word length and is solved block by block.
    """
    q, t = _require_cycle(spec, form)
    terms = [m for m in form.terms if not mono_is_degenerate(m)]
    coords = []
    for w in range(q + 2):
        basis, b_basis, reps = _classes(spec, q, t, w)
        index = {m: k for k, m in enumerate(basis)}
        vec = _to_vec((m for m in terms if mono_word_length(m) == w), index)
        solved = solve_in_span(b_basis + reps, vec)
        if solved is None:
            raise ValueError("cycle does not reduce against the slice homology")
        coords += zip((basis[low_bit(r)] for r in reps), solved[len(b_basis) :])
    return tuple(c for _, c in sorted(coords))


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
    """Connectivity check on the polynomial part (w = 0) of the resolution.

    The bottom homology must be one dimensional exactly at the degrees
    of the surviving powers of x and every homology between level 1 and
    max_level - 1 must vanish.  Returns failure lines, empty on pass.
    """
    n, m = spec.n, spec.m
    bad = []
    survivors = {a * m for a in range(n + 1)}
    for t in range(max_degree + 1):
        for q in range(max(max_level, 1)):
            dim = len(_classes(spec, q, t, 0)[2])
            want = int(q == 0 and t in survivors)
            if dim != want:
                bad.append(f"level {q} degree {t}: dim {dim}, expected {want}")
    return bad

