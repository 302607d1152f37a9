"""Brute force homology against the small-complex oracle and hand values."""

import time
from math import inf

import pytest

from looplab.algebra import (
    Form,
    GradingSpec,
    Mono,
    gen_x,
    internal_degree,
    mono_word_length,
    nondegenerate_generators,
    parse_form,
    word_length,
)
from looplab.closedform import main1_dims
from looplab.gf2 import apply_row, low_bit, rank, rref
from looplab import homology
from looplab.homology import (
    SliceHomology,
    check_pi0,
    class_of,
    homology_at,
    homology_dim,
    is_boundary,
    is_cycle,
    is_normalized,
    koszul_boundary,
    koszul_dim,
    normalized_basis,
)
from looplab.simplicial import (
    alpha,
    beta,
    face,
    mono_face,
    mono_is_degenerate,
    mono_normalize,
    omega,
)
from support import (
    block_keys,
    differential_rows,
    left_kernel,
    mono_bigrading,
    monomial_basis,
    quotient_reps,
    reference_classes,
    reference_homology_dim,
    reference_koszul_dim,
    reference_nondegenerate_basis,
    reference_normalized_rows,
    reference_quotient_level,
    solve_in_span,
)

ACCEPTANCE_PAIRS = ((1, 2), (1, 3), (2, 2), (2, 4), (3, 2), (3, 4), (4, 2))


def test_oracle_differential_squares_to_zero():
    for spec in (GradingSpec(1, 2), GradingSpec(2, 2), GradingSpec(2, 3), GradingSpec(4, 2)):
        for e in (0, 1):
            for i in range(4):
                for a in range(6):
                    for d in (0, 1):
                        acc = set()
                        for img in koszul_boundary(spec, (e, i, a, d)):
                            for c in koszul_boundary(spec, img):
                                acc ^= {c}
                        assert not acc


@pytest.mark.parametrize("spec", [GradingSpec(1, 2), GradingSpec(2, 2)])
def test_brute_force_matches_oracle_on_a_small_grid(spec):
    for q in range(3):
        for t in range(2 * (spec.n + 1) * spec.m + 1):
            assert homology_dim(spec, q, t) == koszul_dim(spec, q, t), (q, t)


def test_hand_values_odd_truncation():
    spec = GradingSpec(1, 2)
    # level 0 carries 1, x, dx, x dx and nothing else
    assert [homology_dim(spec, 0, t) for t in range(7)] == [1, 1, 1, 1, 0, 0, 0]
    # level 1 carries the four multiples of the exterior generator
    assert [homology_dim(spec, 1, t) for t in range(8)] == [0, 0, 0, 1, 1, 1, 1, 0]


def test_hand_values_even_truncation():
    spec = GradingSpec(2, 2)
    # level 0: powers of x up to n and dx multiples up to n - 1
    assert [homology_dim(spec, 0, t) for t in range(7)] == [1, 1, 1, 1, 1, 0, 0]
    # level 1: x^j alpha at 6, 8 and x^j beta at 7, 9
    assert [homology_dim(spec, 1, t) for t in range(11)] == [0] * 6 + [1, 1, 1, 1, 0]


def test_representatives_are_nonbounding_cycles_with_unit_coordinates():
    for spec in (GradingSpec(1, 2), GradingSpec(2, 2)):
        for q in range(3):
            for t in range(12):
                h = homology_at(spec, q, t)
                for k, rep in enumerate(h.reps):
                    assert is_cycle(spec, rep)
                    assert not is_boundary(spec, rep)
                    coords = class_of(spec, rep)
                    assert coords == tuple(1 if j == k else 0 for j in range(h.dim))


def test_distinguished_cycles_represent_nonzero_classes():
    odd = GradingSpec(1, 2)
    assert not is_boundary(odd, omega(2))
    assert any(class_of(odd, omega(2)))
    even = GradingSpec(2, 2)
    assert not is_boundary(even, alpha(2))
    assert not is_boundary(even, beta(2))
    # for odd n alpha still represents the exterior multiple of the class
    assert not is_boundary(odd, alpha(1))


def test_bottom_face_images_bound():
    spec = GradingSpec(2, 2)
    for f in normalized_basis(spec, 2, 7):
        img = face(spec.n, 0, f)
        if img:
            assert is_boundary(spec, img)


def test_is_cycle_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        is_cycle(GradingSpec(1, 2), gen_x(1))
    assert is_normalized(1, gen_x(0))
    assert not is_normalized(1, gen_x(1))


@pytest.mark.parametrize("n", [1, 2])
def test_the_zero_form_is_normalized_at_every_level(n):
    for q in range(5):
        assert is_normalized(n, Form.zero(q))
        assert is_normalized(n, Form(q, frozenset()))


def test_class_of_rejects_zero_and_noncycles():
    spec = GradingSpec(1, 2)
    with pytest.raises(ValueError):
        class_of(spec, Form.zero(1))
    with pytest.raises(ValueError):
        class_of(spec, parse_form("y1", 1) + parse_form("x*y1", 1))


def test_bigraded_slices_refine_the_degree_slice():
    spec = GradingSpec(2, 2)
    n = spec.n
    for q, t in [(1, 6), (1, 7), (2, 11), (2, 12), (0, 4)]:
        total = homology_dim(spec, q, t)
        # a level q monomial has at most q + 1 exterior factors
        split = sum(homology_at(spec, q, t, w).dim for w in range(q + 2))
        assert split == total, (q, t)


@pytest.mark.parametrize("spec", [GradingSpec(1, 2), GradingSpec(2, 2), GradingSpec(2, 3)])
def test_connectivity_of_the_polynomial_part(spec):
    assert check_pi0(spec, max_level=3, max_degree=3 * (spec.n + 1) * spec.m) == []


def _slice_basis(spec, q, t, wp=None, poly_only=False):
    """The monomials of a slice, optionally refined to one (w, p) or to
    the polynomial part."""
    basis = monomial_basis(q, spec, t)
    if wp is not None:
        basis = [m for m in basis if mono_bigrading(spec.n, m) == wp]
    if poly_only:
        basis = [m for m in basis if not m.dx and not any(m.dy)]
    return tuple(basis)


def _kernel_of_faces(spec, q, t, wp=None, poly_only=False):
    """The normalized subspace by definition: the common kernel of faces 1 .. q.

    Each slice basis row is written as its images under d_1 .. d_q side by
    side, and the dependencies among those rows are the normalized vectors.
    """
    basis = _slice_basis(spec, q, t, wp, poly_only)
    down = _slice_basis(spec, q - 1, t, wp, poly_only) if q else ()
    down_index = {m: k for k, m in enumerate(down)}
    rows = []
    for mono in basis:
        row = 0
        for i in range(1, q + 1):
            img = mono_face(spec.n, i, mono)
            if img is not None:
                row |= 1 << ((i - 1) * len(down) + down_index[img])
        rows.append(row)
    return rref(left_kernel(rows))[0]


def test_normalized_vectors_equal_the_common_kernel_of_the_faces():
    slices = []
    for n, m in ACCEPTANCE_PAIRS:
        spec = GradingSpec(n, m)
        for q in range(4):
            for t in range(3 * (n + 1) * m + 1):
                slices.append((spec, q, t))
    seen = set()
    for args in slices:
        forms = normalized_basis(*args)
        slice_basis = _slice_basis(*args)
        vecs = rref([_vec(f, slice_basis) for f in forms])[0]
        assert len(vecs) == len(forms), args
        assert list(vecs) == list(_kernel_of_faces(*args)), args
        if vecs:
            seen.add(args[1])
    assert seen == set(range(4))


def test_normalized_basis_is_a_basis_of_the_reference_rows_as_it_stands():
    # The P images of the nondegenerate monomials are independent, each one
    # normalized, and span what the reference's elimination over the whole
    # slice basis spans: the trials draw from them with no elimination.
    cases = [
        (GradingSpec(n, m), q, t)
        for n, m in ACCEPTANCE_PAIRS
        for q in range(5)
        for t in range(3 * (n + 1) * m + 1)
    ]
    assert len(cases) == 965
    nonempty = 0
    for spec, q, t in cases:
        forms = normalized_basis(spec, q, t)
        basis, vecs = reference_normalized_rows(spec, q, t)
        assert len(forms) == len(vecs), (spec, q, t)
        assert all(is_normalized(spec.n, f) for f in forms), (spec, q, t)
        assert tuple(rref([_vec(f, basis) for f in forms])[0]) == vecs, (spec, q, t)
        nonempty += bool(forms)
    assert nonempty == 381


def _vec(form, basis):
    index = {m: k for k, m in enumerate(basis)}
    return sum(1 << index[m] for m in form.terms)


def _form(q, vec, basis):
    return Form.from_monos(q, [basis[k] for k in range(len(basis)) if vec >> k & 1])


def _bottom_face_rows(spec, q, vecs, basis, target):
    return [_vec(face(spec.n, 0, _form(q, v, basis)), target) for v in vecs]


def _normalized_classes(spec, q, t, wp=None, poly_only=False):
    """Slice homology on N, the reference for the classes read on C/D.

    N is the common kernel of the faces 1 .. q over the monomial slice
    basis, its differential the bottom face; the cycles are the left
    kernel of the bottom face rows, the boundaries the bottom face images
    of N one level up.  Returns the basis, boundaries and representatives
    as bit rows over the basis.
    """
    basis = _slice_basis(spec, q, t, wp, poly_only)
    n_basis = _kernel_of_faces(spec, q, t, wp, poly_only)
    cycles = n_basis
    if q:
        down = _slice_basis(spec, q - 1, t, wp, poly_only)
        d0 = _bottom_face_rows(spec, q, n_basis, basis, down)
        cycles = [apply_row(c, n_basis) for c in left_kernel(d0)]
    up = _slice_basis(spec, q + 1, t, wp, poly_only)
    up_n = _kernel_of_faces(spec, q + 1, t, wp, poly_only)
    b_basis = rref(_bottom_face_rows(spec, q + 1, up_n, up, basis))[0]
    return basis, b_basis, quotient_reps(cycles, b_basis)


def _assert_matches_the_normalized_route(spec, q, t, w=None, poly_only=False):
    """Compare homology_at(spec, q, t, w) with _normalized_classes; returns
    the number of representatives and of classified boundaries met.

    The reference is refined to the (w, p) that w fixes given t, and with
    poly_only to its own polynomial filter, which homology_at reads as w = 0.
    """
    wp = None if w is None else (w, 2 * (t + w) // spec.m - w)
    basis, b_basis, reps = _normalized_classes(spec, q, t, wp, poly_only)
    forms = [_form(q, v, basis) for v in reps]
    h = homology_at(spec, q, t, 0 if poly_only else w)
    assert [str(r) for r in h.reps] == [str(f) for f in forms], (spec, q, t, w, poly_only)
    if wp is not None or poly_only:
        return len(forms), 0
    # cycles to classify: the representatives, some boundaries, and their sums
    bounds = [_form(q, b, basis) for b in b_basis[:3]]
    for cycle in forms + bounds + [f + b for f, b in zip(forms, bounds)]:
        vec = _vec(cycle, basis)
        bounding = solve_in_span(b_basis, vec) is not None
        assert is_boundary(spec, cycle) == bounding, (spec, q, t, cycle)
        coords = solve_in_span(b_basis + reps, vec)
        assert class_of(spec, cycle) == tuple(coords[len(b_basis) :]), (spec, q, t, cycle)
    return len(forms), len(bounds)


def _normalized_pi0(spec, max_level, max_degree):
    """check_pi0's failure lines, read off _normalized_classes."""
    bad = []
    survivors = {a * spec.m for a in range(spec.n + 1)}
    for t in range(max_degree + 1):
        dim = len(_normalized_classes(spec, 0, t, poly_only=True)[2])
        want = 1 if t in survivors else 0
        if dim != want:
            bad.append(f"level 0 degree {t}: dim {dim}, expected {want}")
        for q in range(1, max_level):
            dim = len(_normalized_classes(spec, q, t, poly_only=True)[2])
            if dim:
                bad.append(f"level {q} degree {t}: dim {dim}, expected 0")
    return bad


def test_quotient_classes_equal_the_normalized_route_on_the_acceptance_grid():
    met = {False: [0, 0], True: [0, 0]}
    for n, m in ACCEPTANCE_PAIRS:
        spec = GradingSpec(n, m)
        max_t = 3 * (n + 1) * m
        for q in range(4):
            for t in range(max_t + 1):
                for poly_only in (False, True):
                    got = _assert_matches_the_normalized_route(spec, q, t, None, poly_only)
                    met[poly_only] = [a + b for a, b in zip(met[poly_only], got)]
        assert check_pi0(spec, 3, max_t) == _normalized_pi0(spec, 3, max_t)
    # representatives and classified boundaries were met, polynomial ones too
    assert all(met[False]) and met[True][0]


def test_bigraded_classes_equal_the_normalized_route():
    met = [0, 0]
    for spec, q, t in (
        (GradingSpec(1, 2), 2, 7),
        (GradingSpec(2, 2), 2, 12),
        (GradingSpec(2, 2), 3, 18),
        (GradingSpec(3, 2), 1, 12),
        (GradingSpec(3, 2), 2, 16),
        (GradingSpec(2, 3), 2, 19),
        (GradingSpec(2, 3), 2, 20),
    ):
        pairs = {mono_bigrading(spec.n, m) for m in monomial_basis(q, spec, t)}
        for w, p in sorted(pairs):
            assert p == 2 * (t + w) // spec.m - w, (spec, q, t, w, p)
            met[0] += _assert_matches_the_normalized_route(spec, q, t, w)[0]
            if w == 0:
                met[1] += _assert_matches_the_normalized_route(spec, q, t, w, True)[0]
    assert met[0] >= 6


def test_even_pair_dimensions_agree_to_level_five_and_degree_forty():
    spec = GradingSpec(2, 2)
    start = time.monotonic()
    for q in range(6):
        for t in range(41):
            chain = homology_dim(spec, q, t)
            assert chain == main1_dims(spec, q, t) == koszul_dim(spec, q, t), (q, t)
    assert time.monotonic() - start < 120.0


def _block(spec, q, t, w):
    """The (q, t, w) block of C/D from the generators: x^((t - d)/m) g for
    each generator g of degree d <= t with m dividing t - d, sorted."""
    m = spec.m
    gens = nondegenerate_generators(q, spec, w, t)
    return sorted(Mono((t - d) // m, *gen) for d, gen in gens if not (t - d) % m)


def _whole_slice(spec, q, t):
    """The nondegenerate monomials of a whole (q, t) slice, its w blocks chained."""
    return [mono for w in range(q + 2) for mono in _block(spec, q, t, w)]


def test_faces_of_nondegenerate_monomials_are_nondegenerate_or_vanish():
    # Why the C/D differential never meets a degenerate image, and why
    # its top face contributes nothing.
    count = 0
    for n, m in ((1, 2), (2, 2), (3, 2), (2, 3)):
        spec = GradingSpec(n, m)
        for q in range(1, 5):
            for t in range(41):
                for mono in _whole_slice(spec, q, t):
                    assert mono_face(n, q, mono) is None
                    for i in range(q):
                        img = mono_face(n, i, mono)
                        assert img is None or not mono_is_degenerate(img), (mono, i)
                        count += img is not None
    assert count


def test_quotient_dimensions_equal_the_normalized_homology_on_the_acceptance_grid():
    # homology_dim counts ranks on C/D; homology_at eliminates to cycles there.
    for n, m in ACCEPTANCE_PAIRS:
        spec = GradingSpec(n, m)
        for q in range(4):
            for t in range(3 * (n + 1) * m + 1):
                assert homology_dim(spec, q, t) == homology_at(spec, q, t).dim, (n, m, q, t)


def test_dimensions_agree_to_level_eight_and_degree_forty_eight():
    start = time.monotonic()
    # each spec's corner first, so that each barcode is built once
    homology_dim(GradingSpec(2, 2), 8, 48)
    homology_dim(GradingSpec(3, 2), 6, 48)
    for spec, max_q, max_t in (
        (GradingSpec(2, 2), 8, 40),
        (GradingSpec(2, 2), 6, 48),
        (GradingSpec(3, 2), 6, 48),
    ):
        for q in range(max_q + 1):
            for t in range(max_t + 1):
                chain = homology_dim(spec, q, t)
                assert chain == main1_dims(spec, q, t) == koszul_dim(spec, q, t), (spec, q, t)
    assert time.monotonic() - start < 60.0


def _one_matrix_quotient_level(spec, q, t):
    """reference_quotient_level as one rank over the whole slice, the
    reference for the rank taken block by block in w."""
    sources = _whole_slice(spec, q, t)
    down = _whole_slice(spec, q - 1, t)
    return len(sources), rank(differential_rows(spec.n, sources, down))


def test_block_ranks_equal_the_one_matrix_rank():
    levels = [
        (GradingSpec(n, m), q, t)
        for n, m in ACCEPTANCE_PAIRS
        for q in range(5)
        for t in range(3 * (n + 1) * m + 1)
    ]
    levels += [(GradingSpec(2, 2), q, t) for q in range(8) for t in range(49)]
    split = 0
    for spec, q, t in levels:
        got = reference_quotient_level(spec, q, t)
        assert got == _one_matrix_quotient_level(spec, q, t), (spec, q, t)
        lengths = {mono_word_length(m) for m in _whole_slice(spec, q, t)}
        split += got[1] > 0 and len(lengths) > 1
    # the check meets many levels whose nonzero rank spans several w blocks
    assert split > 100


def test_blocks_that_share_a_key_have_the_same_differential():
    # reference_quotient_level ranks each key once, so every block under
    # one key, across degrees and specs of one parity of n, must be the
    # same matrix, and every w that block_keys skips must hold no monomial.
    seen = {}
    shared = 0
    for n, m in ACCEPTANCE_PAIRS + ((5, 2), (6, 3), (1, 5), (2, 3)):
        spec = GradingSpec(n, m)
        for q in range(6):
            for t in range(5 * (n + 1) * m):
                keys = dict(block_keys(spec, q, t))
                assert list(keys) == list(homology._block_keys(spec, q, t)), (spec, q, t)
                for w in range(q + 3):
                    sources = reference_nondegenerate_basis(q, spec, t, w)
                    if w not in keys:
                        assert not sources, (spec, q, t, w)
                        continue
                    down = reference_nondegenerate_basis(q - 1, spec, t, w)
                    block = len(sources), differential_rows(n, sources, down)
                    first = seen.setdefault(keys[w], block)
                    assert block == first, (spec, q, t, w)
                    shared += bool(sources) and first is not block
    # most nonempty blocks are read back under a key met before
    assert shared > 2000


def test_barcode_dimensions_equal_the_block_reference():
    cases = [(GradingSpec(n, m), 5, 6 * (n + 1) * m) for n, m in ACCEPTANCE_PAIRS]
    cases.append((GradingSpec(2, 2), 8, 56))
    nonzero = 0
    for spec, max_q, max_t in cases:
        homology.clear_caches()
        homology_dim(spec, max_q, max_t)
        for q in range(max_q + 1):
            for t in range(max_t + 1):
                dim = homology_dim(spec, q, t)
                assert dim == reference_homology_dim(spec, q, t), (spec, q, t)
                nonzero += dim > 0
    homology.clear_caches()
    assert nonzero > 250


@pytest.fixture(scope="module")
def corners():
    """A barcode built in one call at the corner (6, 40), for three specs."""
    out = {}
    for spec in (GradingSpec(1, 2), GradingSpec(2, 2), GradingSpec(3, 4)):
        out[spec] = homology._Barcode(spec)
        out[spec].build(6, 40)
    return out


def test_a_barcode_rebuilt_on_each_miss_equals_one_built_at_its_corner(corners):
    # homology_dim degree by degree at level 3, then level by level at
    # degree 40, each query a miss that builds anew, against one build at
    # (6, 40): the rows land in the same places, so the bars, keyed by
    # (w, row), must be equal, and so must the dimensions.
    for spec, corner in corners.items():
        homology.clear_caches()
        steps = homology._barcode(spec)
        # each miss builds to the exact corner of the query, no further
        for t in range(41):
            assert homology_dim(spec, 3, t) == koszul_dim(spec, 3, t), (spec, t)
            assert (steps.level, steps.degree) == (3, t), (spec, t)
        for q in range(4, 7):
            assert homology_dim(spec, q, 40) == koszul_dim(spec, q, 40), (spec, q)
            assert (steps.level, steps.degree) == (q, 40), (spec, q)
        assert (corner.level, corner.degree) == (6, 40)
        assert steps.bars == corner.bars, spec
        assert set(vars(steps)) == {"spec", "level", "degree", "bars"}, spec
        assert any(d != inf for bars in corner.bars.values() for _, d in bars.values())
        # and the bars give the oracle's dimensions
        for q in range(7):
            for t in range(41):
                assert homology_dim(spec, q, t) == koszul_dim(spec, q, t), (spec, q, t)
        assert homology._barcode(spec) is steps and (steps.level, steps.degree) == (6, 40)
    homology.clear_caches()


def test_a_negative_level_or_degree_answers_zero_without_a_build():
    # No generator has a negative level or degree; such a query used to
    # rebuild the barcode out to its other coordinate.
    spec = GradingSpec(2, 2)
    homology.clear_caches()
    code = homology._barcode(spec)
    assert homology_dim(spec, 3, 20) == koszul_dim(spec, 3, 20)
    for q, t in [(-1, 57), (9, -1), (-2, -3)]:
        assert homology_dim(spec, q, t) == 0, (q, t)
        assert (code.level, code.degree) == (3, 20), (q, t)
    assert homology._barcode(spec) is code
    homology.clear_caches()


def test_a_face_image_outside_the_generators_raises(monkeypatch):
    # A face that lands on a monomial no generator of the level below is
    # (here a degenerate one, its first slot emptied) must not be dropped.
    def broken_face(n, i, mono):
        img = mono_face(n, i, mono)
        if img is None or not img.y:
            return img
        return img._replace(y=(0,) + img.y[1:], dy=(0,) + img.dy[1:])

    monkeypatch.setattr(homology, "mono_face", broken_face)
    with pytest.raises(KeyError):
        homology._Barcode(GradingSpec(1, 2)).build(2, 8)


def test_dimensions_agree_at_level_seven_and_degree_sixty_two():
    spec = GradingSpec(2, 2)
    start = time.monotonic()
    assert homology_dim(spec, 7, 62) == main1_dims(spec, 7, 62) == koszul_dim(spec, 7, 62)
    assert time.monotonic() - start < 60.0


def test_dimensions_agree_at_level_eight_to_degree_sixty_one():
    # Level 8 holds classes in degrees 41 to 44.  Above them the blocks
    # grow fast: the largest, at t = 61 and w = 5, maps 12,390 level 8
    # monomials onto 11,130 at level 7.
    spec = GradingSpec(2, 2)
    start = time.monotonic()
    homology_dim(spec, 8, 61)  # the sweep's corner, built once
    dims = [homology_dim(spec, 8, t) for t in range(62)]
    assert dims == [main1_dims(spec, 8, t) for t in range(62)]
    assert dims == [koszul_dim(spec, 8, t) for t in range(62)]
    assert [t for t, dim in enumerate(dims) if dim] == [41, 42, 43, 44]
    assert time.monotonic() - start < 60.0


def test_dimensions_agree_at_level_eight_to_degree_sixty_six():
    # One build to the corner (8, 66) reduces levels 0 .. 9 up to t = 66,
    # about 4 s on a 2-core VM (t = 68 takes twice that).  The state is
    # dropped afterwards.
    spec = GradingSpec(2, 2)
    homology.clear_caches()
    start = time.monotonic()
    try:
        homology_dim(spec, 8, 66)
        dims = [homology_dim(spec, 8, t) for t in range(67)]
    finally:
        homology.clear_caches()
    assert dims == [main1_dims(spec, 8, t) for t in range(67)]
    assert dims == [koszul_dim(spec, 8, t) for t in range(67)]
    assert [t for t, dim in enumerate(dims) if dim] == [41, 42, 43, 44]
    assert time.monotonic() - start < 60.0


def test_classes_certify_every_representative_to_level_six_and_degree_forty_eight():
    spec = GradingSpec(2, 2)
    start = time.monotonic()
    for q in range(7):
        for t in range(49):
            h = homology_at(spec, q, t)
            assert h.dim == homology_dim(spec, q, t), (q, t)
            for k, rep in enumerate(h.reps):
                assert class_of(spec, rep) == tuple(int(j == k) for j in range(h.dim))
                assert not is_boundary(spec, rep), (q, t)
    assert check_pi0(spec, 6, 48) == []
    assert time.monotonic() - start < 60.0


def test_koszul_levels_give_the_three_basis_recount():
    levels = [
        (GradingSpec(n, m), q, t)
        for n, m in ACCEPTANCE_PAIRS
        for q in range(7)
        for t in range(6 * (n + 1) * m + 1)
    ]
    levels += [(GradingSpec(2, 2), q, t) for q in range(10) for t in range(65)]
    for spec, q, t in levels:
        assert koszul_dim(spec, q, t) == reference_koszul_dim(spec, q, t), (spec, q, t)
    assert any(koszul_dim(spec, q, t) for spec, q, t in levels if q == 9)


def test_slice_homology_is_a_frozen_value():
    h = homology_at(GradingSpec(1, 2), 1, 4)
    rep = Form(1, frozenset({Mono(0, 1, (0,), (1,))}))
    assert h == SliceHomology(q=1, t=4, dim=1, reps=(rep,))
    assert hash(h) == hash(SliceHomology(1, 4, 1, (rep,)))
    for other in (SliceHomology(1, 5, 1, (rep,)), SliceHomology(1, 4, 0, ())):
        assert h != other and hash(h) != hash(other)
    assert repr(h) == (
        "SliceHomology(q=1, t=4, dim=1, reps=(Form(level=1, terms=frozenset("
        "{Mono(x=0, dx=1, y=(0,), dy=(1,))})),))"
    )
    with pytest.raises(AttributeError):
        h.dim = 2
    with pytest.raises(AttributeError):
        h.extra = 1
    assert h.dim == 1


def test_a_boundary_that_is_not_a_cycle_raises(monkeypatch):
    # Without face 1 on level 2 the C/D differential from level 2 is d_0
    # alone, and d_0 d_0 is not zero on the (1, 2) slice at q = 1, t = 8.
    def broken_face(n, i, mono):
        return None if mono.level == 2 and i == 1 else mono_face(n, i, mono)

    monkeypatch.setattr(homology, "mono_face", broken_face)
    homology.clear_caches()
    try:
        with pytest.raises(ValueError, match="d∘d"):
            homology_at(GradingSpec(1, 2), 1, 8)
    finally:
        homology.clear_caches()


def test_whole_slices_merge_their_blocks_by_lowest_monomial(monkeypatch):
    # On every real slice checked the homology sits in one w block (the
    # closed-form classes of a level differ in w by at most one, and t + w
    # is a multiple of m), so the merge order is pinned here on two faked
    # one-class blocks whose lowest monomials run against w.
    spec, q, t = GradingSpec(1, 2), 1, 8
    short, long_ = (tuple(_block(spec, q, t, w)) for w in (0, 2))
    assert long_[0] < short[1]
    fake = {0: (short, (), (0b10,)), 2: (long_, (), (0b01,))}
    monkeypatch.setattr(homology, "_classes", lambda s, q, t, w: fake.get(w, ((), (), ())))
    monkeypatch.setattr(homology, "_require_cycle", lambda s, form: (q, t))
    lifts = [mono_normalize(spec.n, mono) for mono in (long_[0], short[1])]
    assert homology_at(spec, q, t).reps == tuple(lifts)
    assert class_of(spec, Form.from_monos(q, [long_[0]])) == (1, 0)
    assert class_of(spec, Form.from_monos(q, [short[1]])) == (0, 1)


# homology_at and class_of as they were, visiting every w in range(q + 2),
# kept as the reference for the _block_keys walk; classes is _classes.
def every_w_reps(classes, spec, q, t):
    reps = []
    for w in range(q + 2):
        basis, _, vecs = classes(spec, q, t, w)
        reps += [(basis[low_bit(vec)], homology._to_form(q, vec, basis)) for vec in vecs]
    return tuple(
        sum((mono_normalize(spec.n, m) for m in form.terms), Form.zero(q))
        for _, form in sorted(reps, key=lambda rep: rep[0])
    )


def every_w_class_of(classes, spec, form):
    q, t = form.level, internal_degree(spec, form)
    terms = [m for m in form.terms if not mono_is_degenerate(m)]
    coords = []
    for w in range(q + 2):
        basis, b_basis, reps = classes(spec, q, t, w)
        index = {m: k for k, m in enumerate(basis)}
        vec = homology._to_vec((m for m in terms if mono_word_length(m) == w), index)
        solved = solve_in_span(b_basis + reps, vec)
        assert solved is not None
        coords += zip((basis[low_bit(r)] for r in reps), solved[len(b_basis) :])
    return tuple(c for _, c in sorted(coords))


def test_the_class_route_asks_only_for_the_blocks_block_keys_yields(monkeypatch):
    classes = homology._classes
    asked = []

    def recording(spec, q, t, w):
        asked.append((spec, q, t, w))
        return classes(spec, q, t, w)

    monkeypatch.setattr(homology, "_classes", recording)
    checked = skipped = 0
    for n, m in ACCEPTANCE_PAIRS:
        spec = GradingSpec(n, m)
        for q in range(5):
            for t in range(4 * (n + 1) * m + 1):
                reps = homology_at(spec, q, t).reps
                assert reps == every_w_reps(classes, spec, q, t), (spec, q, t)
                for rep in reps:
                    assert class_of(spec, rep) == every_w_class_of(classes, spec, rep)
                checked += len(reps)
                skipped += q + 2 - len(homology._block_keys(spec, q, t))
    assert all(w in homology._block_keys(spec, q, t) for spec, q, t, w in asked)
    # the walk is not vacuous: many classes are checked and many w skipped
    assert checked > 100 and skipped > 1000


def test_classes_equal_the_per_block_reference():
    # Blocks read off the generators and representatives read off one
    # tagged rref give the old route's bases, boundaries and canonical
    # representatives exactly, in every w block, empty ones included.
    cases = [(GradingSpec(n, m), 5, 4 * (n + 1) * m) for n, m in ACCEPTANCE_PAIRS]
    cases.append((GradingSpec(2, 2), 7, 40))
    reps = bounds = 0
    for spec, max_q, max_t in cases:
        for q in range(max_q + 1):
            for t in range(max_t + 1):
                for w in range(q + 2):
                    got = homology._classes(spec, q, t, w)
                    assert got == reference_classes(spec, q, t, w), (spec, q, t, w)
                    bounds += len(got[1])
                    reps += len(got[2])
    homology.clear_caches()
    assert reps > 200 and bounds > 5000


def test_class_of_reads_a_representative_plus_a_boundary_as_the_representative(monkeypatch):
    # No real block checked holds both boundaries and representatives (a
    # level's classes sit below its boundaries in degree), so every block
    # with boundaries gets one free basis monomial as a faked representative,
    # and the pass over the boundaries must strip each boundary added to it.
    classes, fake = homology._classes, {}
    monkeypatch.setattr(homology, "_classes", lambda *key: fake.get(key) or classes(*key))
    monkeypatch.setattr(
        homology, "_require_cycle", lambda spec, form: (form.level, internal_degree(spec, form))
    )
    met = 0
    for n, m in ACCEPTANCE_PAIRS:
        spec = GradingSpec(n, m)
        for q in range(4):
            for t in range(3 * (n + 1) * m + 1):
                for w in homology._block_keys(spec, q, t):
                    basis, bounds, reps = classes(spec, q, t, w)
                    pivots = {low_bit(b) for b in bounds}
                    free = [k for k in range(len(basis)) if k not in pivots]
                    if not bounds or not free:
                        continue
                    assert not reps
                    rep = 1 << free[0]
                    fake[spec, q, t, w] = basis, bounds, (rep,)
                    for b in bounds:
                        cycle = homology._to_form(q, rep ^ b, basis)
                        assert class_of(spec, cycle) == (1,), (spec, q, t, w)
                        assert class_of(spec, homology._to_form(q, b, basis)) == (0,)
                        met += 1
                    del fake[spec, q, t, w]
    assert met > 150


def test_class_of_raises_on_a_cycle_the_representatives_miss(monkeypatch):
    # With the last representative of every block dropped, the sum of a
    # slice's representatives leaves a residue in each block that had one.
    spec = GradingSpec(2, 2)
    slices = [(q, t) for q in range(5) for t in range(41) if homology_dim(spec, q, t)]
    sums = [sum(homology_at(spec, q, t).reps, Form.zero(q)) for q, t in slices]
    for (q, t), cycle in zip(slices, sums):
        assert class_of(spec, cycle) == (1,) * homology_dim(spec, q, t), (q, t)
    classes = homology._classes
    monkeypatch.setattr(
        homology, "_classes", lambda *key: (*classes(*key)[:2], classes(*key)[2][:-1])
    )
    for (q, t), cycle in zip(slices, sums):
        with pytest.raises(ValueError, match="does not reduce"):
            class_of(spec, cycle)
    assert len(slices) > 20


def test_every_route_is_zero_below_level_zero():
    # No level below zero holds a class, whatever the degree, by any route.
    for n, m in ACCEPTANCE_PAIRS:
        spec = GradingSpec(n, m)
        for q in (-3, -2, -1):
            for t in range(-3 * (n + 1) * m, 4 * (n + 1) * m + 1):
                dims = homology_dim(spec, q, t), main1_dims(spec, q, t), koszul_dim(spec, q, t)
                assert dims == (0, 0, 0), (spec, q, t)
            assert homology_at(spec, q, (n + 1) * m).dim == 0


def test_homology_at_refuses_a_word_length_outside_the_level():
    spec = GradingSpec(2, 2)
    for q, t in ((0, 2), (1, 6), (3, 20)):
        for w in (-1, q + 2, 99):
            with pytest.raises(ValueError, match="word length"):
                homology_at(spec, q, t, w)
    # every w in range answers with its block's share of the whole slice
    met = 0
    for n, m in ACCEPTANCE_PAIRS:
        spec = GradingSpec(n, m)
        for q in range(4):
            for t in range(3 * (n + 1) * m + 1):
                blocks = [homology_at(spec, q, t, w) for w in range(q + 2)]
                whole = homology_at(spec, q, t)
                assert sorted(map(str, (r for h in blocks for r in h.reps))) == sorted(
                    map(str, whole.reps)
                ), (spec, q, t)
                for w, h in enumerate(blocks):
                    assert h.dim == len(h.reps) and {word_length(r) for r in h.reps} <= {w}
                    met += h.dim > 0
    assert met > 100


def test_clear_caches_zeroes_the_counts_and_the_next_lookups_miss():
    spec = GradingSpec(1, 2)
    homology_at(spec, 1, 6)
    homology_dim(spec, 1, 6)
    homology.clear_caches()
    zero = {"hits": 0, "misses": 0}
    assert homology.cache_stats() == {"normalized": zero, "classes": zero, "barcode": zero}
    homology_at(spec, 1, 6)
    homology_dim(spec, 1, 6)
    normalized_basis(spec, 1, 6)
    assert homology.cache_stats() == {
        "normalized": {"hits": 0, "misses": 1},
        # w = 0 and w = 2 only: at (1,2), q = 1, t = 6, m = 2 does not
        # divide t + w for w = 1, so homology_at never asks for that block.
        "classes": {"hits": 0, "misses": 2},
        "barcode": {"hits": 0, "misses": 1},
    }


def test_cache_stats_reads_the_caches_when_their_names_are_rebound(monkeypatch):
    # perfbench's tracer rebinds normalized_basis in every looplab module to
    # a plain wrapper, and a traced --format json job still reports the
    # counts of the cache behind it and can clear it.
    cached = homology.normalized_basis
    monkeypatch.setattr(homology, "normalized_basis", lambda *args: cached(*args))
    homology.clear_caches()
    homology.normalized_basis(GradingSpec(1, 2), 1, 6)
    homology.normalized_basis(GradingSpec(1, 2), 1, 6)
    assert homology.cache_stats()["normalized"] == {"hits": 1, "misses": 1}
    homology.clear_caches()
    assert homology.cache_stats()["normalized"] == {"hits": 0, "misses": 0}
