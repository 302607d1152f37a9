"""Forms algebra: ring axioms, the differential, gradings, the basis."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looplab.algebra import (
    Form,
    GradingSpec,
    Mono,
    bigrading,
    derham_d,
    gen_dx,
    gen_dy,
    gen_x,
    gen_y,
    internal_degree,
    mono_degree,
    mono_str,
    monomial_basis,
    nondegenerate_basis,
    parse_form,
    parse_mono,
)
from looplab.simplicial import mono_is_degenerate

from support import random_form

SPEC = GradingSpec(n=2, m=2)


def test_spec_validation():
    with pytest.raises(ValueError):
        GradingSpec(n=0, m=2)
    with pytest.raises(ValueError):
        GradingSpec(n=1, m=1)


def test_exterior_squares_vanish():
    assert not gen_dx(2) * gen_dx(2)
    assert not gen_dy(2, 1) * gen_dy(2, 1)
    assert gen_x(2) * gen_x(2) == gen_x(2) ** 2


def test_char_two_addition():
    f = gen_x(1) + gen_dy(1, 1)
    assert not f + f


def test_level_mismatch_rejected():
    with pytest.raises(ValueError):
        gen_x(1) + gen_x(2)
    with pytest.raises(ValueError):
        gen_x(1) * gen_x(2)


def test_ring_axioms_on_random_forms():
    rng = random.Random(71)
    for _ in range(30):
        level = rng.randrange(4)
        a, b, c = (random_form(rng, level) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert Form.one(level) * a == a


def test_differential_on_generators():
    assert derham_d(gen_x(2)) == gen_dx(2)
    assert derham_d(gen_y(2, 2)) == gen_dy(2, 2)
    assert not derham_d(gen_dx(2))
    assert not derham_d(gen_dy(2, 1))
    assert not derham_d(gen_x(0) ** 2)
    assert derham_d(gen_x(0) ** 3) == gen_x(0) ** 2 * gen_dx(0)


def test_differential_squares_to_zero():
    rng = random.Random(72)
    for _ in range(40):
        f = random_form(rng, rng.randrange(4), n_terms=4)
        assert not derham_d(derham_d(f))


def test_leibniz_rule():
    rng = random.Random(73)
    for _ in range(40):
        level = rng.randrange(4)
        a, b = random_form(rng, level), random_form(rng, level)
        assert derham_d(a * b) == derham_d(a) * b + a * derham_d(b)


def test_internal_degree_weights():
    spec = GradingSpec(n=3, m=4)
    assert internal_degree(spec, gen_x(1)) == 4
    assert internal_degree(spec, gen_dx(1)) == 3
    assert internal_degree(spec, gen_y(1, 1)) == 16
    assert internal_degree(spec, gen_dy(1, 1)) == 15
    assert internal_degree(spec, Form.zero(1)) is None
    with pytest.raises(ValueError):
        internal_degree(spec, gen_x(1) + gen_dx(1))


def test_degree_additivity_and_d_shift():
    rng = random.Random(74)
    for _ in range(30):
        mono_a = random_form(rng, 2, n_terms=1)
        mono_b = random_form(rng, 2, n_terms=1)
        prod = mono_a * mono_b
        if prod:
            assert internal_degree(SPEC, prod) == internal_degree(
                SPEC, mono_a
            ) + internal_degree(SPEC, mono_b)
        df = derham_d(mono_a)
        if df:
            assert internal_degree(SPEC, df) == internal_degree(SPEC, mono_a) - 1


def test_bigrading_values_and_d_shift():
    assert bigrading(2, gen_y(1, 1)) == (0, 6)
    assert bigrading(2, gen_dy(1, 1)) == (1, 5)
    assert bigrading(2, gen_x(1) * gen_dx(1)) == (1, 3)
    rng = random.Random(75)
    for _ in range(30):
        f = random_form(rng, 2, n_terms=1)
        df = derham_d(f)
        if f and df:
            w, p = bigrading(2, f)
            assert bigrading(2, df) == (w + 1, p - 1)


def test_gradings_are_consistent():
    # doubling the internal degree must equal m*p + (m-2)*w termwise
    rng = random.Random(76)
    for spec in (GradingSpec(1, 2), GradingSpec(2, 3), GradingSpec(3, 4)):
        for _ in range(20):
            f = random_form(rng, 3, n_terms=1)
            if not f:
                continue
            (term,) = f.terms
            w, p = bigrading(spec.n, f)
            assert 2 * mono_degree(spec, term) == spec.m * p + (spec.m - 2) * w


def test_monomial_basis_is_complete_and_sorted():
    spec = GradingSpec(n=1, m=2)
    for q, t in [(0, 6), (1, 7), (2, 9)]:
        basis = monomial_basis(q, spec, t)
        assert basis == sorted(basis)
        assert len(set(basis)) == len(basis)
        for mono in basis:
            assert mono_degree(spec, mono) == t
        # brute force: scan a box of exponents large enough to hold degree t
        found = set()
        for x in range(t + 1):
            for dx in (0, 1):
                for y_mask in _tuples(q, t // (4 - 1) + 1):
                    for dy_mask in range(1 << q):
                        dy = tuple(dy_mask >> j & 1 for j in range(q))
                        mono = Mono(x, dx, y_mask, dy)
                        if mono_degree(spec, mono) == t:
                            found.add(mono)
        assert set(basis) == found


def _tuples(q, bound):
    if q == 0:
        yield ()
        return
    for head in range(bound):
        for tail in _tuples(q - 1, bound):
            yield (head,) + tail


def test_monomial_basis_degree_zero_and_impossible():
    spec = GradingSpec(n=1, m=3)
    assert monomial_basis(2, spec, 0) == [Mono(0, 0, (0, 0), (0, 0))]
    assert monomial_basis(0, spec, 1) == []


@pytest.mark.parametrize(("n", "m"), [(1, 3), (2, 3), (1, 5), (3, 5)])
def test_monomial_basis_is_complete_for_weights_above_two(n, m):
    spec = GradingSpec(n, m)
    # x, dx and dy carry degrees m, m - 1 and (n+1)m - 1, so most degrees
    # mix monomials with and without exterior factors, or have none.
    y_deg = (n + 1) * m
    for q in range(4):
        for t in range(3 * y_deg + 1):
            found = set()
            for x, dx, y, dy in itertools.product(
                range(t // m + 1),
                (0, 1),
                itertools.product(range(t // y_deg + 1), repeat=q),
                itertools.product((0, 1), repeat=q),
            ):
                mono = Mono(x, dx, y, dy)
                if mono_degree(spec, mono) == t:
                    found.add(mono)
            basis = monomial_basis(q, spec, t)
            assert basis == sorted(found), (q, t)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_nondegenerate_basis_is_the_nondegenerate_part_of_the_basis(m):
    seen = 0
    for n in range(1, 5):
        spec = GradingSpec(n, m)
        for q in range(5):
            for t in range(41):
                direct = nondegenerate_basis(q, spec, t)
                want = [mono for mono in monomial_basis(q, spec, t) if not mono_is_degenerate(mono)]
                assert sorted(direct) == want, (n, q, t)
                seen += len(want)
    assert seen


mono_strategy = st.builds(
    Mono,
    st.integers(0, 9),
    st.integers(0, 1),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
)


@settings(max_examples=200, deadline=None)
@given(mono_strategy)
def test_mono_text_round_trip(mono):
    assert parse_mono(mono_str(mono), 3) == mono


@settings(max_examples=100, deadline=None)
@given(st.lists(mono_strategy, max_size=4))
def test_form_text_round_trip(monos):
    form = Form.from_monos(3, monos)
    assert parse_form(str(form), 3) == form


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_mono("dy3", 2)
    with pytest.raises(ValueError):
        parse_mono("z^2", 1)
    with pytest.raises(ValueError):
        parse_mono("dx*dx", 1)
    assert parse_form("0", 2) == Form.zero(2)
