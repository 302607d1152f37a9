"""Forms algebra: ring axioms, the differential, gradings, the basis."""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    mono_str,
    mono_word_length,
    new_mono,
    nondegenerate_generators,
    parse_form,
    parse_mono,
    word_length,
)
from looplab.simplicial import mono_is_degenerate

from support import mono_bigrading, monomial_basis, random_form, reference_nondegenerate_basis

SPEC = GradingSpec(n=2, m=2)
ACCEPTANCE_PAIRS = ((1, 2), (1, 3), (2, 2), (2, 4), (3, 2), (3, 4), (4, 2))


def test_spec_validation():
    for n, m in ((0, 2), (1, 1)):
        with pytest.raises(ValueError) as err:
            GradingSpec(n=n, m=m)
        assert str(err.value) == (
            f"grading spec needs n >= 1 and m >= 2, got GradingSpec(n={n}, m={m})"
        )
        with pytest.raises(ValueError):
            SPEC._replace(n=n, m=m)


def test_spec_is_a_frozen_value():
    assert SPEC == GradingSpec(2, 2) and hash(SPEC) == hash(GradingSpec(2, 2))
    for other in (GradingSpec(2, 3), GradingSpec(3, 2)):
        assert SPEC != other and hash(SPEC) != hash(other)
    assert repr(SPEC) == "GradingSpec(n=2, m=2)"
    assert (SPEC.n, SPEC.m) == (2, 2)
    with pytest.raises(AttributeError):
        SPEC.n = 3
    with pytest.raises(AttributeError):
        SPEC.extra = 1
    assert SPEC == GradingSpec(2, 2)
    assert pickle.loads(pickle.dumps(SPEC)) == SPEC


def test_form_is_a_frozen_value_and_not_a_tuple():
    terms = frozenset({Mono(1, 0, (0,), (1,)), Mono(0, 0, (1,), (0,))})
    form = Form(1, terms)
    assert form == Form(level=1, terms=frozenset(terms)) == parse_form("x*dy1 + y1", 1)
    assert hash(form) == hash(Form(1, frozenset(terms)))
    for other in (Form(2, terms), Form(1, terms - {Mono(0, 0, (1,), (0,))}), Form.zero(1)):
        assert form != other and hash(form) != hash(other)
    assert Form.zero(1) != Form.zero(2)
    assert repr(gen_x(1)) == "Form(level=1, terms=frozenset({Mono(x=1, dx=0, y=(0,), dy=(0,))}))"
    assert repr(Form.zero(2)) == "Form(level=2, terms=frozenset())"
    assert (form.level, form.terms) == (1, terms)
    with pytest.raises(AttributeError, match="cannot assign to field 'terms'"):
        form.terms = frozenset()
    with pytest.raises(AttributeError, match="cannot assign to field 'level'"):
        form.level = 2
    with pytest.raises(AttributeError):
        form.extra = 1
    with pytest.raises(AttributeError, match="cannot delete field 'terms'"):
        del form.terms
    assert form == Form(1, terms)
    # A tuple base would make each of these a silent wrong answer.
    assert form != (1, terms) and (1, terms) != form
    with pytest.raises(TypeError):
        list(form)
    with pytest.raises(TypeError):
        len(form)
    with pytest.raises(TypeError):
        2 * form
    with pytest.raises(TypeError):
        form < Form.zero(1)
    assert copy.copy(form) == form == pickle.loads(pickle.dumps(form))


def test_exterior_squares_vanish():
    assert not gen_dx(2) * gen_dx(2)
    assert not gen_dy(2, 1) * gen_dy(2, 1)
    assert gen_x(2) * gen_x(2) == gen_x(2) ** 2


def test_powers_from_zero_up_and_no_negative_power():
    assert gen_x(1) ** 0 == Form.one(1)
    assert gen_x(1) ** 3 == gen_x(1) * gen_x(1) * gen_x(1)
    for k in (-1, -2):
        with pytest.raises(ValueError):
            gen_x(1) ** k


def test_new_mono_builds_the_mono_the_constructor_builds():
    cases = [(0, 0, (), ()), (3, 1, (2, 0), (0, 1)), (1, 0, (0, 1, 4), (1, 0, 0))]
    cases += [tuple(mono) for t in range(12) for mono in monomial_basis(2, SPEC, t)]
    for fields in cases:
        got, want = new_mono(fields), Mono(*fields)
        assert type(got) is Mono and got == want and hash(got) == hash(want)
        assert repr(got) == repr(want) and got.level == want.level
        assert (got.x, got.dx, got.y, got.dy) == fields


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


def _bigrading(form):
    """(w, p) of a form under SPEC, with p read off t and w alone:
    t + w = m*S and p = 2*S - w."""
    w = word_length(form)
    return w, 2 * (internal_degree(SPEC, form) + w) // SPEC.m - w


def test_bigrading_values_and_d_shift():
    assert _bigrading(gen_y(1, 1)) == (0, 6)
    assert _bigrading(gen_dy(1, 1)) == (1, 5)
    assert _bigrading(gen_x(1) * gen_dx(1)) == (1, 3)
    assert word_length(Form.zero(1)) is None
    with pytest.raises(ValueError):
        word_length(gen_x(1) + gen_dx(1))
    rng = random.Random(75)
    for _ in range(30):
        f = random_form(rng, 2, n_terms=1)
        df = derham_d(f)
        if f and df:
            w, p = _bigrading(f)
            assert _bigrading(df) == (w + 1, p - 1)


def test_gradings_are_consistent():
    # t + w is a multiple of m, so t and w fix the reference p; doubling
    # the internal degree must equal m*p + (m-2)*w termwise
    rng = random.Random(76)
    for spec in (GradingSpec(1, 2), GradingSpec(2, 3), GradingSpec(3, 4)):
        for _ in range(20):
            f = random_form(rng, 3, n_terms=1)
            if not f:
                continue
            (term,) = f.terms
            t, w = mono_degree(spec, term), word_length(f)
            assert (t + w) % spec.m == 0
            w_ref, p = mono_bigrading(spec.n, term)
            assert w_ref == w and p == 2 * (t + w) // spec.m - w
            assert 2 * t == spec.m * p + (spec.m - 2) * w


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


def x_free_block(gens, t, m):
    """The x-free parts of the (q, t, w) block of C/D from the (q, w)
    generators: those of degree d <= t with m dividing t - d."""
    return {gen for d, gen in gens if d <= t and not (t - d) % m}


@pytest.mark.parametrize("m", [2, 3, 5])
def test_nondegenerate_basis_is_the_nondegenerate_part_of_the_basis(m):
    # Within a block the degree fixes x, so the x-free parts name the
    # monomials: each block is x^((t - d)/m) times the generators above.
    seen = 0
    for n in range(1, 5):
        spec = GradingSpec(n, m)
        for q in range(5):
            gens = [nondegenerate_generators(q, spec, w, 40) for w in range(q + 3)]
            assert all(len({gen for _, gen in g}) == len(g) for g in gens)
            for t in range(41):
                want = [mono for mono in monomial_basis(q, spec, t) if not mono_is_degenerate(mono)]
                for w in range(q + 2):
                    length_w = [x[1:] for x in want if mono_word_length(x) == w]
                    assert x_free_block(gens[w], t, m) == set(length_w), (n, q, t, w)
                seen += len(want)
            # no generator has a word length past q + 1
            assert gens[q + 2] == []
        assert all(nondegenerate_generators(-1, spec, w, 40) == [] for w in range(3))
    assert seen


def test_nondegenerate_basis_equals_the_per_block_reference():
    # The generators give the x-free parts of the blocks of the old per-block
    # enumeration, including the empty ones (w outside 0 .. q + 1, q = -1),
    # each with its own degree, in order of degree: the barcode's rows.
    cases = [(GradingSpec(n, m), 5, 6 * (n + 1) * m) for n, m in ACCEPTANCE_PAIRS]
    cases.append((GradingSpec(2, 2), 9, 64))
    seen = 0
    for spec, max_q, max_t in cases:
        for q in range(-1, max_q + 1):
            for w in range(-1, q + 3):
                gens = nondegenerate_generators(q, spec, w, max_t)
                assert len({gen for _, gen in gens}) == len(gens)
                degrees = [d for d, _ in gens]
                assert degrees == sorted(degrees), (spec, q, w)
                assert all(d == mono_degree(spec, Mono(0, *gen)) for d, gen in gens)
                for t in range(max_t + 1):
                    block = reference_nondegenerate_basis(q, spec, t, w)
                    want = {mono[1:] for mono in block}
                    assert x_free_block(gens, t, spec.m) == want, (spec, q, t, w)
                    assert len(want) == len(block)
                    seen += len(block)
    assert seen > 100_000


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
