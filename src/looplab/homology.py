"""Homology of the resolution, computed by brute force.

A slice is the span of all level q monomials of one internal degree t;
faces preserve the word length w, which fixes every other grading given
t, so a slice is the direct sum of its (q, t, w) blocks.  The degenerate
monomials span a subcomplex D, and the normalized complex N (the common
kernel of the faces 1 .. q, with the bottom face as differential) is
isomorphic to the quotient C/D (Dold-Kan).  Homology is computed on C/D,
whose basis is the nondegenerate monomials and whose differential is the
sum of all faces with degenerate images dropped.  Both halves below
take their bases from algebra's one enumeration of the generators, and
build each row of the differential from one monomial's faces (_face_row):
- dimensions come from one barcode per spec: a nondegenerate monomial is
  x^a g for one x-free generator g, and the faces are F2[x]-linear, so at
  fixed (q, w) C/D is a complex of free graded F2[x]-modules, and its
  homology is persistent (Zomorodian and Carlsson, 2005).  The columns
  of the generators' face images, in degree order, are reduced on their
  highest row, each level before the one below, whose pivot rows skip
  their own columns (clearing; Chen and Kerber, 2011).  A pivot row is a
  cycle born at its degree that dies at its column's, or never if no
  column has it as pivot.  The barcode is built whole, to one (level,
  degree) corner, and keeps only each (q, w)'s set of pivot rows;
- a block's representatives are its cycles with no bit in a pivot column
  of the boundaries' rref, reduced to a canonical basis, and lifted to
  normalized cycles by the normalizing projection P; a boundary that is
  not a cycle (d∘d ≠ 0) raises ValueError; a slice merges by lowest
  monomial the representatives of the blocks that _block_keys yields;
- a normalized cycle's class is read off its nondegenerate terms, at the
  pivots of the reduced boundaries and then of the representatives.
N itself is built only for the rows that the shuffle trials draw from
(normalized_rows).  Nothing here knows any closed-form answer: the
closed forms meet this module only in tests and command line checks.

The module also carries a deliberately independent oracle: a four-track
complex small enough to differentiate by hand, whose homology must
agree with the brute force answer degree by degree.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf, prod
from typing import Iterable, NamedTuple, Optional

from .algebra import (
    Form,
    GradingSpec,
    Mono,
    internal_degree,
    mono_word_length,
    new_mono,
    nondegenerate_generators,
)
from .gf2 import apply_row, low_bit, rank, rref
from .simplicial import face, mono_face, mono_is_degenerate, mono_normalize

__all__ = [
    "SliceHomology",
    "normalized_basis",
    "normalized_rows",
    "homology_at",
    "homology_dim",
    "block_stats",
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


def _face_row(n: int, mono: Mono, index: dict[tuple, int]) -> int:
    """Bit row of the C/D differential on one monomial over the level below.

    The sum of the faces below the top one, which kills a filled top slot;
    no image is degenerate, as a face keeps every slot filled.  Faces keep
    x, degree and word length, so an image lies in the block below and is
    looked up by its x-free part (dx, y, dy), unique within a block; a
    missing one raises KeyError.
    """
    row = 0
    for i in range(mono.level):
        img = mono_face(n, i, mono)
        if img is not None:
            row ^= 1 << index[img[1:]]
    return row


@lru_cache(maxsize=None)
def _pipeline(spec: GradingSpec, q: int, t: int) -> tuple[tuple[Mono, ...], tuple[int, ...]]:
    """The monomials of the normalized (q, t) slice and the reduced basis of N on them.

    The rows are the projections of the nondegenerate monomials x^a g of
    the blocks _block_keys yields, the Dold-Kan image of C/D in N, over the
    sorted union of their terms, reduced to a canonical basis.
    """
    n, m = spec
    images = [
        mono_normalize(n, new_mono(((t - d) // m, *gen))).terms
        for w in _block_keys(spec, q, t)
        for d, gen in nondegenerate_generators(q, spec, w, t)
    ]
    basis = tuple(sorted(frozenset().union(*images)))
    index = {mono: k for k, mono in enumerate(basis)}
    return basis, tuple(rref([_to_vec(terms, index) for terms in images])[0])


@lru_cache(maxsize=None)
def _classes(
    spec: GradingSpec, q: int, t: int, w: int
) -> tuple[tuple[Mono, ...], tuple[int, ...], tuple[int, ...]]:
    """Nondegenerate basis, boundaries and canonical representatives of a w block.

    The block is empty unless m divides t + w; its basis is x^((t - d)/m) g
    over the generators g of degree d <= t, sorted.  The faces keep x, so
    the rows of both differentials (_face_row) need only the x-free parts
    of the levels next to it.  Boundaries (the rref of the rows from above)
    and representatives are bit rows over the basis.  Every cycle reduces
    modulo the boundaries to exactly one with no bit in a pivot column, so
    the representatives are the kernel on the free basis monomials: their
    rows tagged with their own units above the level below, the rref rows
    with no bit below the tags, shifted down.  A boundary that is not a
    cycle (d∘d ≠ 0) means the face tables are inconsistent: ValueError.
    """
    n, m = spec
    if (t + w) % m:
        return (), (), ()
    down, gens, up = (nondegenerate_generators(k, spec, w, t) for k in (q - 1, q, q + 1))
    basis = tuple(sorted(new_mono(((t - d) // m, *gen)) for d, gen in gens))
    below = {gen: k for k, (_, gen) in enumerate(down)}
    here = {mono[1:]: k for k, mono in enumerate(basis)}
    rows = [_face_row(n, mono, below) for mono in basis]
    bounds, pivot_cols = rref([_face_row(n, new_mono((0, *gen)), here) for _, gen in up])
    if any(apply_row(b, rows) for b in bounds):
        raise ValueError("a boundary is not a cycle: the face tables break d∘d = 0")
    width, pivots = len(down), set(pivot_cols)
    tagged = rref([row | 1 << width + k for k, row in enumerate(rows) if k not in pivots])[0]
    reps = tuple(row >> width for row in tagged if not row & (1 << width) - 1)
    return basis, tuple(bounds), reps


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
        monos.append(basis[low_bit(vec)])
        vec &= vec - 1
    return Form.from_monos(level, monos)


def normalized_rows(spec: GradingSpec, q: int, t: int) -> tuple[tuple[Mono, ...], tuple[int, ...]]:
    """The sorted monomials of the normalized (q, t) slice and the cached bit
    rows of its basis.

    Bit k of a row stands for basis[k], and row j is the form
    normalized_basis(spec, q, t)[j].
    """
    return _pipeline(spec, q, t)


def normalized_basis(spec: GradingSpec, q: int, t: int) -> list[Form]:
    """Basis of the normalized subspace of the (q, t) slice."""
    basis, n_basis = normalized_rows(spec, q, t)
    return [_to_form(q, v, basis) for v in n_basis]


def homology_at(spec: GradingSpec, q: int, t: int, w: Optional[int] = None) -> SliceHomology:
    """Homology of the (q, t) slice, or of its w block when w is given.

    Representatives are the canonical ones of each block on C/D, lifted to
    normalized cycles by the normalizing projection.  A slice visits the
    blocks _block_keys yields, as every other w block is empty, and orders
    the representatives by lowest nondegenerate monomial, the order of its
    own reduced echelon form, which is the union of its blocks' (they sit
    on disjoint columns).  A w outside 0 <= w <= q + 1, which no level q
    monomial has, raises ValueError.
    """
    if w is not None and not 0 <= w <= q + 1:
        raise ValueError(f"word length {w} is outside 0 .. {q + 1} at level {q}")
    reps = []
    for v in _block_keys(spec, q, t) if w is None else [w]:
        basis, _, vecs = _classes(spec, q, t, v)
        reps += [(basis[low_bit(vec)], _to_form(q, vec, basis)) for vec in vecs]
    forms = tuple(
        sum((mono_normalize(spec.n, m) for m in form.terms), Form.zero(q))
        for _, form in sorted(reps, key=lambda rep: rep[0])
    )
    return SliceHomology(q, t, len(forms), forms)


def _block_keys(spec: GradingSpec, q: int, t: int) -> range:
    """The w of the (q, t) blocks of C/D that can be nonempty: those where m
    divides rest = t + w - (n+1)m q, the y degree left to set x and the
    extra y exponents (algebra.nondegenerate_generators), and rest >= 0."""
    return range(max(-t % spec.m, (spec.n + 1) * spec.m * q - t), q + 2, spec.m)


class _Barcode:
    """The barcode of C/D over F2[x] for one spec, up to a (level, degree) corner:
    the generators of the levels 0 .. level + 1 up to degree.  Per (q, w)
    each generator's row, the rows' degrees, and the set of pivot rows of
    d_q; per q the bars {(w, row): (birth, death)}, d > b.
    """

    def __init__(self, spec: GradingSpec) -> None:
        self.spec, self.level, self.degree = spec, -1, -1
        self.rows, self.degrees, self.pivots, self.bars = {}, {}, {}, {}

    def build(self, level: int, degree: int) -> None:
        """Reduce the whole barcode to the corner (level, degree), in place of
        the old one.

        Each (q, w) numbers its generators (algebra.nondegenerate_generators)
        in degree order; a column is built, by _face_row on its generator
        with x = 0, only when it is reduced, and the columns of one (q, w)
        are dropped once it is: clearing needs only their pivot rows.  A
        face image that is no generator raises KeyError."""
        n = self.spec.n
        self.rows, self.degrees, self.pivots, self.bars = {}, {}, {}, {}
        for q in range(level + 2):
            for w in range(q + 2):
                gens = nondegenerate_generators(q, self.spec, w, degree)
                self.rows[q, w] = {gen: k for k, (_, gen) in enumerate(gens)}
                self.degrees[q, w] = [deg for deg, _ in gens]
        for q, w in reversed(self.rows):
            skip, pivots, degs = self.pivots.get((q + 1, w), ()), {}, self.degrees[q, w]
            index, births = self.rows.get((q - 1, w), {}), self.degrees.get((q - 1, w))
            bars, below = self.bars.setdefault(q, {}), self.bars.setdefault(q - 1, {})
            for row, (d, gen) in enumerate(zip(degs, self.rows[q, w])):
                if row in skip:
                    continue
                col = _face_row(n, new_mono((0, *gen)), index)
                while col:
                    r = col.bit_length() - 1
                    if r not in pivots:
                        pivots[r] = col
                        if d > births[r]:
                            below[w, r] = (births[r], d)
                        break
                    col ^= pivots[r]
                else:
                    bars[w, row] = (d, inf)
            self.pivots[q, w] = frozenset(pivots)
            _blocks["reduced"] += len(degs) - len(skip)
            _blocks["cleared"] += len(skip)
            size = (len(births or ()), len(degs))
            _blocks["largest"] = max(_blocks["largest"], size, key=prod)
        self.level, self.degree = level, degree


# Since the last clear_caches: each spec's barcode (a lookup misses once
# per spec), and block_stats's counts, largest as (rows, cols).
_barcode = lru_cache(maxsize=None)(_Barcode)
_blocks = {"reduced": 0, "cleared": 0, "largest": (0, 0)}


def block_stats() -> dict[str, object]:
    """Generators whose column the barcodes reduced and cleared, and the first
    of the largest boundary matrices of one (q, w) as [rows, cols]."""
    return {**_blocks, "largest": list(_blocks["largest"])}


def homology_dim(spec: GradingSpec, q: int, t: int) -> int:
    """Dimension of the (q, t) homology: the level q bars [b, d) of the
    spec's barcode with b <= t < d and m | t - b.

    Equal to homology_at(spec, q, t).dim without finding cycles or
    representatives.  When its corner does not hold (q, t), the barcode
    is built anew to the corner (max(q, level), max(t, degree)); a sweep
    that asks for its corner first builds once.

    For x truncated at x^3 with |x| = 2 (n = 2, m = 2), level 0 holds the
    powers of x and dx x^j below the truncation, and level 1 the classes
    x^j alpha and x^j beta in degrees 6 to 9:

    >>> spec = GradingSpec(2, 2)
    >>> [homology_dim(spec, 0, t) for t in range(6)]
    [1, 1, 1, 1, 1, 0]
    >>> [homology_dim(spec, 1, t) for t in range(5, 11)]
    [0, 1, 1, 1, 1, 0]
    """
    code = _barcode(spec)
    if q > code.level or t > code.degree:
        code.build(max(q, code.level), max(t, code.degree))
    bars = code.bars.get(q, {}).values()
    return sum(1 for b, d in bars if b <= t < d and not (t - b) % spec.m)


def cache_stats() -> dict[str, dict[str, int]]:
    """Hits and misses of the slice pipeline, class and barcode caches."""
    return {
        name: {"hits": info.hits, "misses": info.misses}
        for name, info in (
            ("pipeline", _pipeline.cache_info()),
            ("classes", _classes.cache_info()),
            ("barcode", _barcode.cache_info()),
        )
    }


def clear_caches() -> None:
    """Empty the slice pipeline, class, barcode and Koszul level caches.

    All grow without bound across a process; a caller that moves on to
    other gradings can drop them, and the counts of ``cache_stats`` and
    ``block_stats`` restart from zero.
    """
    _pipeline.cache_clear()
    _classes.cache_clear()
    _barcode.cache_clear()
    _koszul_level.cache_clear()
    _blocks.update(reduced=0, cleared=0, largest=(0, 0))


def is_normalized(n: int, form: Form) -> bool:
    """Whether every face above the bottom one kills the form; True at once for zero."""
    return not form.terms or all(not face(n, i, form) for i in range(1, form.level + 1))


def is_cycle(spec: GradingSpec, form: Form) -> bool:
    """Whether the bottom face kills a normalized form.

    Raises on a form that is not normalized: asking whether such a form
    is a cycle is a sign the caller is off the normalized complex, and
    a plain False would bury that.
    """
    if not is_normalized(spec.n, form):
        raise ValueError("form is not normalized")
    return form.level == 0 or not face(spec.n, 0, form)


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
    image splits by word length over the blocks _block_keys yields, which
    hold every term: rest = m(x + dx) + (n+1)m(Σy + Σdy − q) is a multiple
    of m, and not negative as every slot is filled.  Both reduced bases are
    rrefs and the representatives miss the boundaries' pivots, so a
    coefficient is the bit at the row's pivot, boundaries first; a block
    that leaves a residue raises ValueError.
    """
    q, t = _require_cycle(spec, form)
    terms = [m for m in form.terms if not mono_is_degenerate(m)]
    coords = []
    for w in _block_keys(spec, q, t):
        basis, bounds, reps = _classes(spec, q, t, w)
        index = {m: k for k, m in enumerate(basis)}
        vec = _to_vec((m for m in terms if mono_word_length(m) == w), index)
        for row in bounds:
            if vec >> low_bit(row) & 1:
                vec ^= row
        for row in reps:
            low = low_bit(row)
            bit = vec >> low & 1
            coords.append((basis[low], bit))
            if bit:
                vec ^= row
        if vec:
            raise ValueError("cycle does not reduce against the slice homology")
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


@lru_cache(maxsize=None)
def _koszul_level(spec: GradingSpec, h: int, t: int) -> tuple[int, int]:
    """Oracle chain count at (h, t) and the rank of its boundary to h - 1."""
    basis = _koszul_basis(spec, h, t)
    return len(basis), rank(_koszul_rows(spec, basis, _koszul_basis(spec, h - 1, t)))


def koszul_dim(spec: GradingSpec, q: int, t: int) -> int:
    """Oracle homology dimension at homological degree q, degree t; degrees q
    and q+1 share the cached rank (_koszul_level) of the boundary between them."""
    chains, boundary_out = _koszul_level(spec, q, t)
    return chains - boundary_out - _koszul_level(spec, q + 1, t)[1]


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

