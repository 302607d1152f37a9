"""Shuffle product identities, the diagonal operation, the face lemmas."""

import random
import time
from math import comb

import pytest

from looplab.algebra import Form, GradingSpec, Mono, gen_x, parse_form
from looplab.ez import (
    _killed_by_faces,
    degeneracy_chain,
    delta_top,
    ez_bottom_check,
    ez_face_checks,
    lemma_products_check,
    lemma_squares_check,
    m_form,
    q_form,
    run_trials,
    shuffle_product,
    shuffles,
)
from looplab.homology import homology_at, is_cycle, normalized_basis
from looplab.simplicial import alpha, beta, degeneracy, face, omega
from support import random_form

ODD = GradingSpec(1, 2)
EVEN = GradingSpec(2, 2)


def test_shuffle_enumeration():
    assert list(shuffles(1, 1)) == [((0,), (1,)), ((1,), (0,))]
    for p, q in [(0, 3), (2, 2), (3, 1), (2, 3)]:
        pairs = list(shuffles(p, q))
        assert len(pairs) == comb(p + q, p)
        assert len(set(pairs)) == len(pairs)
        for mu, nu in pairs:
            assert sorted(mu + nu) == list(range(p + q))


def test_product_unit_and_symmetry():
    rng = random.Random(91)
    for _ in range(10):
        b = random_form(rng, 2)
        assert shuffle_product(Form.one(0), b) == b
        assert shuffle_product(b, Form.one(0)) == b
        a = random_form(rng, 1)
        assert shuffle_product(a, b) == shuffle_product(b, a)


def test_product_associativity():
    rng = random.Random(92)
    for _ in range(8):
        a = random_form(rng, 1, n_terms=2)
        b = random_form(rng, 1, n_terms=2)
        c = random_form(rng, 1, n_terms=2)
        assert shuffle_product(shuffle_product(a, b), c) == shuffle_product(
            a, shuffle_product(b, c)
        )


def test_product_of_omegas_is_binomial():
    for p in range(4):
        for q in range(4 - p):
            expect = omega(p + q) if comb(p + q, p) % 2 else Form.zero(p + q)
            assert shuffle_product(omega(p), omega(q)) == expect


def test_products_of_alpha_and_beta():
    for p in range(3):
        for q in range(3 - p + 1):
            level = p + q
            x = gen_x(level)
            odd_binom = comb(p + q, p) % 2
            assert shuffle_product(alpha(p), alpha(q)) == Form.zero(level)
            expect_b = x * beta(level) if odd_binom else Form.zero(level)
            assert shuffle_product(beta(p), beta(q)) == expect_b
            expect_ab = x * alpha(level) if odd_binom else Form.zero(level)
            assert shuffle_product(alpha(p), beta(q)) == expect_ab


def test_diagonal_on_omega_tracks_the_binomial():
    assert delta_top(ODD, omega(2)) == omega(4)
    assert delta_top(ODD, omega(3)) == Form.zero(6)
    assert delta_top(ODD, omega(4)) == omega(8)


def test_diagonal_on_alpha_and_beta():
    assert delta_top(EVEN, beta(2)) == gen_x(4) * beta(4)
    assert delta_top(EVEN, alpha(2)) == Form.zero(4)


def test_diagonal_shuffle_count():
    for q in (2, 3, 4):
        kept = sum(1 for mu, _ in shuffles(q, q) if mu[0] == 0)
        assert kept == comb(2 * q - 1, q - 1)


def test_diagonal_preconditions():
    with pytest.raises(ValueError):
        delta_top(ODD, omega(1))
    with pytest.raises(ValueError):
        delta_top(ODD, beta(2))  # not a cycle for odd truncation


def test_m_and_q_identities():
    rng = random.Random(93)
    for _ in range(10):
        a = random_form(rng, 2, n_terms=2)
        b = random_form(rng, 2, n_terms=2)
        assert not m_form(a, a)
        assert m_form(a, b) == m_form(b, a)
        assert q_form(a + b) == q_form(a) + q_form(b) + m_form(a, b)


def test_bottom_face_identity_on_arbitrary_forms():
    rng = random.Random(94)
    for spec in (ODD, EVEN):
        for _ in range(15):
            p, q = rng.randrange(3), rng.randrange(1, 3)
            assert ez_bottom_check(spec, random_form(rng, p), random_form(rng, q))


def test_higher_faces_vanish_for_normalized_factors():
    for spec in (ODD, EVEN):
        for t_a, t_b in [(3, 5), (5, 5), (6, 7)]:
            for a in normalized_basis(spec, 1, t_a)[:3]:
                for b in normalized_basis(spec, 2, t_b)[:3]:
                    for i, verdict in ez_face_checks(spec, a, b):
                        assert verdict == "pass", (spec, i)


def test_face_checks_never_fail_even_unnormalized():
    rng = random.Random(95)
    for _ in range(10):
        a, b = random_form(rng, 2), random_form(rng, 2)
        verdicts = [v for _, v in ez_face_checks(EVEN, a, b)]
        assert "fail" not in verdicts


def test_products_lemma_full_pass():
    a = alpha(1)
    x = omega(2)
    b = face(EVEN.n, 0, x)
    c = gen_x(0)
    out = lemma_products_check(EVEN, a, b, c, x)
    assert out == {"membership": "pass", "cycle": "pass", "boundary": "pass"}


def test_products_lemma_validation():
    with pytest.raises(ValueError):
        lemma_products_check(EVEN, gen_x(1), alpha(1), gen_x(0))
    with pytest.raises(ValueError):
        lemma_products_check(EVEN, alpha(1), alpha(1), gen_x(1))


def test_squares_lemma_identities_always_hold():
    rng = random.Random(96)
    hits = 0
    for spec in (ODD, EVEN):
        for t_a in range(3, 9):
            for a in normalized_basis(spec, 1, t_a)[:2]:
                for t_b in range(3, 9):
                    for b in normalized_basis(spec, 2, t_b)[:2]:
                        c = random_form(rng, 1, n_terms=2)
                        out = lemma_squares_check(spec, a, b, c)
                        assert out["identities"] == "pass"
                        assert "fail" not in out.values()
                        if out["boundary"] == "pass":
                            hits += 1
    assert hits > 0


def test_squares_lemma_nontrivial_boundary_branch():
    # hunt for a case where the certified element is actually nonzero
    found = False
    c = Form.one(1)
    for spec in (EVEN, ODD):
        for t in range(4, 12):
            for b in normalized_basis(spec, 2, t):
                hypothesis = not degeneracy(0, c) * b * b
                target = degeneracy(0, c) * q_form(face(spec.n, 0, b))
                if hypothesis and target:
                    out = lemma_squares_check(spec, alpha(1), b, c)
                    assert out["boundary"] == "pass"
                    found = True
    assert found


def test_trials_are_deterministic_and_clean():
    one = run_trials(ODD, max_level=2, trials=20, seed=11)
    two = run_trials(ODD, max_level=2, trials=20, seed=11)
    assert one == two
    assert one["failures"] == []
    assert one["passed"] > 0
    other = run_trials(ODD, max_level=2, trials=20, seed=12)
    assert other != one


def test_trial_failures_are_named_by_trial_and_branch(monkeypatch):
    # Every checker is swapped for one that fails a named branch, so the
    # report must name each failure as "trial <t>: <branch>".
    monkeypatch.setattr("looplab.ez.ez_bottom_check", lambda spec, a, b: False)
    monkeypatch.setattr(
        "looplab.ez.ez_face_checks", lambda spec, a, b: [(1, "pass"), (2, "fail")]
    )
    monkeypatch.setattr(
        "looplab.ez.lemma_products_check",
        lambda spec, a, b, c, x: {"membership": "fail", "cycle": "vacuous"},
    )
    monkeypatch.setattr(
        "looplab.ez.lemma_squares_check", lambda spec, a, b, c: {"boundary": "fail"}
    )
    report = run_trials(ODD, max_level=2, trials=2, seed=0)
    assert report["passed"] == 2 and report["vacuous"] == 2
    assert report["failures"] == [
        f"trial {t}: {branch}"
        for t in range(2)
        for branch in (
            "bottom face", "face 2 of product", "products membership", "squares boundary"
        )
    ]


# The definitional shuffle product and diagonal, composing degeneracies
# over whole forms; the library computes both by interleaving slots.


def reference_shuffle_product(a, b):
    p, q = a.level, b.level
    out = Form.zero(p + q)
    for mu, nu in shuffles(p, q):
        out = out + degeneracy_chain(nu, a) * degeneracy_chain(mu, b)
    return out


def reference_delta_top(z):
    q = z.level
    out = Form.zero(2 * q)
    for mu, nu in shuffles(q, q):
        if mu[0] == 0:
            out = out + degeneracy_chain(nu, z) * degeneracy_chain(mu, z)
    return out


def with_dx(form):
    return Form.from_monos(form.level, (m._replace(dx=1) for m in form.terms))


def test_shuffle_product_equals_the_degeneracy_reference():
    rng = random.Random(97)
    nonzero = 0
    for p in range(7):
        for q in range(7 - p):
            cases = [(Form.zero(p), random_form(rng, q))]
            cases.append((random_form(rng, p), Form.zero(q)))
            for _ in range(4):
                a, b = random_form(rng, p), random_form(rng, q)
                cases += [(a, b), (with_dx(a), b), (a, with_dx(b))]
                cases.append((with_dx(a), with_dx(b)))
            for a, b in cases:
                got = shuffle_product(a, b)
                assert got == reference_shuffle_product(a, b), (a, b)
                assert got.level == p + q
                nonzero += bool(got)
                if a and b and all(m.dx for m in a.terms | b.terms):
                    assert not got
    assert nonzero > 100


def test_squares_cancel_in_the_shuffle_product():
    # s_nu(u) s_mu(v) and s_mu(v) s_nu(u) coincide, so a square is a sum
    # of terms that all meet their twin and cancel.
    rng = random.Random(98)
    for p in range(1, 4):
        for _ in range(5):
            a = random_form(rng, p, n_terms=4)
            monos = [m for m in a.terms if not m.dx]
            single = Form.from_monos(p, monos[:1])
            for f in (a, single):
                assert shuffle_product(f, f) == Form.zero(2 * p)
                assert reference_shuffle_product(f, f) == Form.zero(2 * p)
    # The level zero square is the ordinary square, where nothing cancels.
    a = Form.from_monos(0, [Mono(1, 0, (), ()), Mono(2, 0, (), ())])
    assert shuffle_product(a, a) == a * a == Form.from_monos(
        0, [Mono(2, 0, (), ()), Mono(4, 0, (), ())]
    )


def _random_cycles(spec, q, rng, count):
    """Random sums of homology representatives and bottom faces of chains."""
    out = []
    for t in range((q + 1) * (spec.n + 1) * spec.m + 1):
        pool = list(homology_at(spec, q, t).reps)
        chains = normalized_basis(spec, q + 1, t)
        pool += [f for f in (face(spec.n, 0, g) for g in chains) if f][:4]
        for _ in range(count if pool else 0):
            z = Form.zero(q)
            for f in pool:
                if rng.randrange(2):
                    z = z + f
            out.append(z)
    return out


def test_delta_top_equals_the_degeneracy_reference():
    rng = random.Random(99)
    for spec in (ODD, EVEN):
        for q in (2, 3, 4):
            cycles = [z for z in (omega(q), alpha(q), beta(q)) if is_cycle(spec, z)]
            cycles += [z for z in _random_cycles(spec, q, rng, 2) if z]
            assert len(cycles) > 4
            nonzero = 0
            for z in cycles:
                got = delta_top(spec, z)
                assert got == reference_delta_top(z), (spec, q, z)
                nonzero += bool(got)
            assert nonzero > 0


def test_benchmark_trial_counts_are_pinned():
    # The three verify ez jobs of the benchmark's trials workload; the
    # counts were read off the degeneracy-chain product they replace.
    expect = {1: (11380, 676), 2: (11350, 668), 3: (11439, 558)}
    for n, (passed, vacuous) in expect.items():
        report = run_trials(GradingSpec(n, 2), max_level=3, trials=1000, seed=0)
        assert report == {
            "trials": 1000, "passed": passed, "vacuous": vacuous, "failures": []
        }


def test_trials_run_clean_at_level_six():
    start = time.perf_counter()
    for spec in (ODD, EVEN):
        report = run_trials(spec, max_level=6, trials=200, seed=0)
        assert report["failures"] == [], report["failures"][:3]
        assert report["passed"] > report["vacuous"]
    assert time.perf_counter() - start < 60


def test_trials_run_clean_at_level_eight():
    start = time.perf_counter()
    for spec in (ODD, EVEN):
        report = run_trials(spec, max_level=8, trials=200, seed=0)
        assert report["failures"] == [], report["failures"][:3]
        assert report["passed"] > report["vacuous"]
    assert time.perf_counter() - start < 60


# The sweep only hands ez_face_checks normalized factors, so its vacuous
# branch is pinned here on crafted forms.  Faces 1 .. q do not see n.
KILLS_FACE_1 = parse_form("y1 + y2", 2)
KILLS_FACES_1_2 = parse_form("dy2*dy3 + dy1*dy3 + dy1*dy2", 3)


def test_killed_by_faces_counts_the_leading_faces_that_vanish():
    cases = [
        (gen_x(2), 0),
        (KILLS_FACE_1, 1),
        (omega(2), 2),
        (gen_x(3), 0),
        (parse_form("y1 + y2", 3), 1),
        (KILLS_FACES_1_2, 2),
        (omega(3), 3),
        (Form.zero(3), 3),
    ]
    for n in (1, 2):
        for form, killed in cases:
            assert _killed_by_faces(n, form) == killed, (n, form)
    # y2 dies under face 2 but not under face 1; the count stops at the
    # first face that leaves something.
    assert _killed_by_faces(2, parse_form("y2", 2)) == 0


def test_face_checks_mark_the_faces_beyond_a_partial_kill_vacuous():
    got = ez_face_checks(EVEN, KILLS_FACE_1, omega(1))
    assert got == [(1, "pass"), (2, "vacuous"), (3, "vacuous")]
    expect = [(1, "pass"), (2, "pass"), (3, "vacuous"), (4, "vacuous"), (5, "vacuous")]
    assert ez_face_checks(EVEN, KILLS_FACES_1_2, omega(2)) == expect
    assert ez_face_checks(EVEN, omega(2), KILLS_FACES_1_2) == expect
    assert ez_face_checks(EVEN, gen_x(2), omega(1)) == [(i, "vacuous") for i in (1, 2, 3)]
