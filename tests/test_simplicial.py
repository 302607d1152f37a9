"""Face and degeneracy layer: table values, relations, compatibility."""

import random
from operator import add, and_, or_

import pytest

from looplab.algebra import (
    Form,
    GradingSpec,
    Mono,
    derham_d,
    gen_dx,
    gen_dy,
    gen_x,
    gen_y,
    internal_degree,
    mono_degree,
    mono_mul,
    parse_form,
    word_length,
)
from looplab.simplicial import (
    alpha,
    beta,
    check_simplicial_identities,
    degeneracy,
    face,
    is_degenerate,
    mono_degeneracy,
    mono_face,
    mono_is_degenerate,
    mono_normalize,
    omega,
    omega_without,
    omega_without2,
)
from support import monomial_basis, random_form, solve_in_span


def test_face_values_on_polynomial_generators():
    n = 2
    assert face(n, 0, gen_y(1, 1)) == gen_x(0) ** 3
    assert face(n, 1, gen_y(1, 1)) == Form.zero(0)
    assert face(n, 0, gen_y(3, 2)) == gen_y(2, 1)
    assert face(n, 1, gen_y(3, 2)) == gen_y(2, 1)
    assert face(n, 2, gen_y(3, 2)) == gen_y(2, 2)
    assert face(n, 3, gen_y(3, 2)) == gen_y(2, 2)
    assert face(n, 3, gen_y(3, 3)) == Form.zero(2)
    assert face(n, 0, gen_x(2)) == gen_x(1)
    assert face(n, 2, gen_dx(2)) == gen_dx(1)


def test_face_values_on_exterior_generators():
    assert face(2, 0, gen_dy(1, 1)) == gen_x(0) ** 2 * gen_dx(0)
    assert face(4, 0, gen_dy(1, 1)) == gen_x(0) ** 4 * gen_dx(0)
    assert face(1, 0, gen_dy(1, 1)) == Form.zero(0)
    assert face(3, 0, gen_dy(1, 1)) == Form.zero(0)
    assert face(2, 1, gen_dy(2, 2)) == gen_dy(1, 1)
    assert face(2, 2, gen_dy(2, 2)) == Form.zero(1)


def test_face_collision_squares_to_zero():
    # d_1 pushes dy_1 and dy_2 onto the same target
    assert face(2, 1, gen_dy(2, 1) * gen_dy(2, 2)) == Form.zero(1)


def test_degeneracy_values():
    assert degeneracy(0, gen_y(1, 1)) == gen_y(2, 2)
    assert degeneracy(1, gen_y(1, 1)) == gen_y(2, 1)
    assert degeneracy(0, gen_x(0)) == gen_x(1)
    assert degeneracy(1, gen_dy(2, 2)) == gen_dy(3, 3)
    assert degeneracy(2, gen_dy(2, 2)) == gen_dy(3, 2)


def test_index_validation():
    with pytest.raises(ValueError):
        face(1, 3, gen_x(2))
    with pytest.raises(ValueError):
        face(1, 0, gen_x(0))
    with pytest.raises(ValueError):
        degeneracy(3, gen_x(2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_simplicial_identities_hold(n):
    assert check_simplicial_identities(n, max_level=4) == []


def test_identity_check_catches_a_corrupted_table():
    def swapped(n, i, form):
        q = form.level
        if i == 0:
            i = q
        elif i == q:
            i = 0
        return face(n, i, form)

    assert check_simplicial_identities(2, max_level=3, face_fn=swapped)


def test_maps_commute_with_the_differential():
    rng = random.Random(81)
    for n in (1, 2):
        for _ in range(25):
            q = rng.randint(1, 3)
            f = random_form(rng, q, n_terms=3)
            for i in range(q + 1):
                assert face(n, i, derham_d(f)) == derham_d(face(n, i, f))
                assert degeneracy(i, derham_d(f)) == derham_d(degeneracy(i, f))


def test_maps_are_algebra_maps():
    rng = random.Random(82)
    for _ in range(20):
        q = rng.randint(1, 3)
        a, b = random_form(rng, q, n_terms=2), random_form(rng, q, n_terms=2)
        for i in range(q + 1):
            assert face(2, i, a * b) == face(2, i, a) * face(2, i, b)
            assert degeneracy(i, a * b) == degeneracy(i, a) * degeneracy(i, b)


def test_maps_preserve_both_gradings():
    rng = random.Random(83)
    for spec in (GradingSpec(1, 2), GradingSpec(2, 3)):
        for _ in range(20):
            q = rng.randint(1, 3)
            f = random_form(rng, q, n_terms=1)
            for i in range(q + 1):
                for image in (face(spec.n, i, f), degeneracy(i, f)):
                    if f and image:
                        assert internal_degree(spec, image) == internal_degree(spec, f)
                        assert word_length(image) == word_length(f)


def test_distinguished_elements_render_as_expected():
    assert str(omega(0)) == "1"
    assert str(omega(2)) == "dy1*dy2"
    assert str(alpha(0)) == "dx"
    assert str(beta(0)) == "x"
    assert beta(2) == parse_form("x*dy1*dy2 + dx*y1*dy2 + dx*y2*dy1", 2)
    assert omega_without(3, 2) == parse_form("dy1*dy3", 3)
    assert omega_without2(3, 1, 3) == parse_form("dy2", 3)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_omega_is_normalized_for_every_n_and_closed_for_odd_n(q):
    for n in (1, 2, 3, 4):
        for i in range(1, q + 1):
            assert face(n, i, omega(q)) == Form.zero(q - 1)
        bottom = face(n, 0, omega(q))
        if n % 2:
            assert bottom == Form.zero(q - 1)
        else:
            assert bottom == gen_x(q - 1) ** n * alpha(q - 1)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_alpha_is_a_cycle_and_beta_closes_only_for_even_n(q):
    for n in (1, 2, 3, 4):
        for i in range(1, q + 1):
            assert face(n, i, alpha(q)) == Form.zero(q - 1)
            assert face(n, i, beta(q)) == Form.zero(q - 1)
        assert face(n, 0, alpha(q)) == Form.zero(q - 1)
        if n % 2 == 0:
            assert face(n, 0, beta(q)) == Form.zero(q - 1)
        else:
            assert face(n, 0, beta(q)) == gen_x(q - 1) ** (n + 1) * alpha(q - 1)


def test_degeneracy_images_are_degenerate():
    spec = GradingSpec(2, 2)
    rng = random.Random(84)
    for _ in range(15):
        q = rng.randint(1, 3)
        f = random_form(rng, q - 1, n_terms=2)
        i = rng.randrange(q)
        assert is_degenerate(spec, degeneracy(i, f))


def test_degenerate_membership_separates_the_hats_from_omega():
    spec = GradingSpec(1, 2)
    assert not is_degenerate(spec, omega(2))
    assert not is_degenerate(spec, omega(3))
    assert is_degenerate(spec, omega_without(3, 2))
    assert is_degenerate(spec, omega_without2(3, 1, 2))
    assert is_degenerate(spec, gen_y(3, 2) * omega_without2(3, 1, 3))
    assert not is_degenerate(spec, gen_x(0))
    assert is_degenerate(spec, Form.zero(0))


def _degenerate_by_span(spec, form):
    """Reference: membership in the span of all degeneracy images, solved
    degree by degree inside the monomial basis."""
    q = form.level
    if not form:
        return True
    if q == 0:
        return False
    by_degree = {}
    for mono in form.terms:
        by_degree.setdefault(mono_degree(spec, mono), []).append(mono)
    for t, monos in by_degree.items():
        basis = monomial_basis(q, spec, t)
        index = {m: k for k, m in enumerate(basis)}
        target = 0
        for mono in monos:
            target |= 1 << index[mono]
        span = [
            1 << index[mono_degeneracy(i, mono)]
            for mono in monomial_basis(q - 1, spec, t)
            for i in range(q)
        ]
        if solve_in_span(span, target) is None:
            return False
    return True


DEGENERACY_SPECS = (GradingSpec(1, 2), GradingSpec(2, 2), GradingSpec(2, 3))


def _all_monos(spec, q):
    degrees = range(2 * (spec.n + 1) * spec.m + 1)
    return [mono for t in degrees for mono in monomial_basis(q, spec, t)]


def test_closed_degeneracy_criterion_matches_the_span_reference():
    rng = random.Random(85)
    both = set()
    for spec in DEGENERACY_SPECS:
        for q in range(5):
            monos = _all_monos(spec, q)
            for mono in monos:
                form = Form(q, frozenset({mono}))
                got = is_degenerate(spec, form)
                assert got == _degenerate_by_span(spec, form), (spec, mono)
                both.add(got)
            for _ in range(40):
                form = Form.from_monos(q, rng.sample(monos, min(len(monos), rng.randint(1, 4))))
                assert is_degenerate(spec, form) == _degenerate_by_span(spec, form), (spec, form)
            if q:
                lower = _all_monos(spec, q - 1)
                for _ in range(10):
                    picks = [(rng.randrange(q), rng.choice(lower)) for _ in range(3)]
                    form = Form.from_monos(q, (mono_degeneracy(i, m) for i, m in picks))
                    assert is_degenerate(spec, form) and _degenerate_by_span(spec, form)
    assert both == {True, False}


def test_normalizing_projection():
    for spec in DEGENERACY_SPECS:
        n = spec.n
        for q in range(5):
            for mono in _all_monos(spec, q):
                image = mono_normalize(n, mono)
                for i in range(1, q + 1):
                    assert not face(n, i, image), (spec, mono, i)
                scrap = image + Form(q, frozenset({mono}))
                assert all(mono_is_degenerate(m) for m in scrap.terms), (spec, mono)
                for i in range(q + 1):
                    assert not mono_normalize(n, mono_degeneracy(i, mono)), (spec, mono, i)


# The per-slot loops that the slicing kernels replaced, kept as references,
# with the maps and the arithmetic of forms built on them the old way.


def reference_mono_face(n, i, mono):
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


def reference_mono_degeneracy(i, mono):
    q = mono.level
    y_out = [0] * (q + 1)
    dy_out = [0] * (q + 1)
    for j in range(1, q + 1):
        tgt = j if i >= j else j + 1
        y_out[tgt - 1] += mono.y[j - 1]
        dy_out[tgt - 1] |= mono.dy[j - 1]
    return Mono(mono.x, mono.dx, tuple(y_out), tuple(dy_out))


def reference_face(n, i, form):
    images = (reference_mono_face(n, i, m) for m in form.terms)
    return Form.from_monos(form.level - 1, (m for m in images if m is not None))


def reference_degeneracy(i, form):
    images = (reference_mono_degeneracy(i, m) for m in form.terms)
    return Form.from_monos(form.level + 1, images)


def reference_mono_mul(a, b):
    if a.dx and b.dx:
        return None
    for s, t in zip(a.dy, b.dy):
        if s and t:
            return None
    return Mono(
        a.x + b.x,
        a.dx | b.dx,
        tuple(u + v for u, v in zip(a.y, b.y)),
        tuple(s | t for s, t in zip(a.dy, b.dy)),
    )


def attribute_mono_mul(a, b):
    # mono_mul as it read eight attributes and built through Mono(...).
    if a.dx and b.dx or any(map(and_, a.dy, b.dy)):
        return None
    return Mono(
        a.x + b.x,
        a.dx | b.dx,
        tuple(map(add, a.y, b.y)),
        tuple(map(or_, a.dy, b.dy)),
    )


def reference_product(a, b):
    acc = set()
    for u in a.terms:
        for v in b.terms:
            p = reference_mono_mul(u, v)
            if p is not None:
                acc ^= {p}
    return Form(a.level, frozenset(acc))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_slot_kernels_equal_the_loop_reference_on_every_monomial(n):
    # Both parities of n matter: dy_1 dies under face 0 exactly for odd n.
    spec = GradingSpec(n, 2)
    dead = 0
    for q in range(5):
        for t in range(41):
            for mono in monomial_basis(q, spec, t):
                for i in range(q + 1):
                    got = mono_degeneracy(i, mono)
                    assert got == reference_mono_degeneracy(i, mono), (i, mono)
                    if not q:
                        continue
                    got = mono_face(n, i, mono)
                    assert got == reference_mono_face(n, i, mono), (n, i, mono)
                    dead += got is None
    assert dead > 0


@pytest.mark.parametrize("n", [1, 2])
def test_mono_mul_equals_the_loop_reference_on_every_pair(n):
    # Every pair of level q <= 3 monomials whose product has degree at
    # most 24; both exterior deaths occur, dx * dx and a shared dy_j.  The
    # attribute version is the one mono_mul replaced: the same Mono, or None.
    spec = GradingSpec(n, 2)
    deaths = {"dx": 0, "dy": 0}
    for q in range(4):
        slices = [monomial_basis(q, spec, t) for t in range(25)]
        for t, left in enumerate(slices):
            right = [v for block in slices[: 25 - t] for v in block]
            for u in left:
                for v in right:
                    got, before = mono_mul(u, v), attribute_mono_mul(u, v)
                    assert got == reference_mono_mul(u, v), (u, v)
                    assert got == before and type(got) is type(before), (u, v)
                    if got is None:
                        deaths["dx" if u.dx and v.dx else "dy"] += 1
    assert deaths["dx"] > 0 and deaths["dy"] > 0, deaths


def test_maps_and_arithmetic_equal_the_loop_reference_on_random_forms():
    rng = random.Random(86)
    for n in (1, 2, 3, 4):
        for q in range(4):
            forms = [Form.zero(q), Form(q, frozenset())]
            forms += [random_form(rng, q, n_terms=k) for k in (1, 2, 3, 5) for _ in range(3)]
            for a in forms:
                for i in range(q + 1):
                    assert degeneracy(i, a) == reference_degeneracy(i, a), (i, a)
                    if q:
                        assert face(n, i, a) == reference_face(n, i, a), (n, i, a)
                for b in forms:
                    assert a * b == reference_product(a, b), (a, b)
                    assert a + b == Form(q, a.terms ^ b.terms), (a, b)


def test_zero_forms_still_check_levels_and_indices():
    with pytest.raises(ValueError):
        face(1, 3, Form.zero(2))
    with pytest.raises(ValueError):
        face(1, 0, Form.zero(0))
    with pytest.raises(ValueError):
        degeneracy(3, Form.zero(2))
    with pytest.raises(ValueError):
        Form.zero(1) + Form.zero(2)
    with pytest.raises(ValueError):
        Form.zero(1) * gen_x(2)


def test_zero_is_one_frozen_instance_per_level():
    zero = Form.zero(3)
    assert zero is Form.zero(3)
    assert zero == Form(3, frozenset()) != Form.zero(2)
    with pytest.raises(AttributeError):
        zero.terms = frozenset({Mono(1, 0, (0, 0, 0), (0, 0, 0))})
    assert face(2, 1, zero) is Form.zero(2)
    assert degeneracy(0, zero) is Form.zero(4)
    assert zero * gen_x(3) is zero
    assert not zero
