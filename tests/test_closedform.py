"""The predicted answers against the machinery that knows nothing of them."""

import math

from looplab.algebra import GradingSpec, internal_degree
from looplab.closedform import (
    chain_rep,
    diagonal_coefficient,
    key_degree,
    key_label,
    key_product,
    level_keys,
    loop_module,
    lucas,
    main1_dims,
    main1_level_dim,
)
from looplab.ez import delta_top, shuffle_product
from looplab.homology import (
    class_of,
    homology_dim,
    is_boundary,
    is_cycle,
    is_normalized,
    koszul_dim,
)
from looplab.simplicial import alpha, beta, omega
from looplab.steenrod import check_adem, check_cartan, check_instability

ODD = GradingSpec(1, 2)
EVEN = GradingSpec(2, 2)


def test_lucas_is_binomial_parity():
    for top in range(40):
        for bottom in range(44):
            assert lucas(top, bottom) == math.comb(top, bottom) % 2


def test_diagonal_coefficient_detects_powers_of_two():
    for q in range(1, 513):
        expected = 1 if q & (q - 1) == 0 else 0
        assert diagonal_coefficient(q) == expected


def test_dims_match_brute_force_and_resolution():
    for spec in (ODD, EVEN, GradingSpec(1, 3), GradingSpec(2, 3)):
        for q in range(3):
            for t in range(2 * (spec.n + 1) * spec.m + 1):
                predicted = main1_dims(spec, q, t)
                assert predicted == homology_dim(spec, q, t), (spec, q, t)
                assert predicted == koszul_dim(spec, q, t), (spec, q, t)


def test_level_dimension_totals():
    for spec in (ODD, EVEN, GradingSpec(3, 2), GradingSpec(4, 5)):
        for q in range(4):
            keys = level_keys(spec, q)
            assert len(keys) == main1_level_dim(spec, q)
            total = sum(
                main1_dims(spec, q, t)
                for t in range(max(key_degree(spec, k) for k in keys) + 1)
            )
            assert total == main1_level_dim(spec, q)


def test_even_truncation_drops_the_pair_the_relation_joins():
    # (n + 1) x^n dx is nonzero mod 2 exactly for even n, and it carries
    # g_(q+1) onto x^n dx g_q: both drop out, and no other key does.  The
    # keys left come in strictly increasing degree.
    for n in range(1, 9):
        for m in (2, 3, 4):
            spec = GradingSpec(n, m)
            for q in range(6):
                below, above = set(level_keys(spec, q)), set(level_keys(spec, q + 1))
                assert ((n, 1, q) in below) == ((0, 0, q + 1) in above) == (n % 2 == 1)
                full = {(a, eps, q) for a in range(n + 1) for eps in (0, 1)}
                dropped = {(n, 1, q), (0, 0, q)} - {(0, 0, 0)} if n % 2 == 0 else set()
                assert below == full - dropped, (n, m, q)
                degrees = [key_degree(spec, key) for key in level_keys(spec, q)]
                assert degrees == sorted(set(degrees)), (n, m, q)


def test_labels_render_cleanly():
    assert key_label((0, 0, 0)) == "1"
    assert key_label((2, 1, 3)) == "x^2*dx*g3"
    assert key_label((1, 0, 0)) == "x"
    assert key_label((0, 1, 2)) == "dx*g2"
    assert key_label((4, 0, 1)) == "x^4*g1"


def test_chain_reps_are_normalized_cycles_of_the_right_degree():
    for spec in (ODD, EVEN, GradingSpec(3, 2), GradingSpec(2, 4)):
        for q in range(3):
            for key in level_keys(spec, q):
                rep = chain_rep(spec, key)
                assert internal_degree(spec, rep) == key_degree(spec, key)
                assert is_normalized(spec.n, rep)
                assert is_cycle(spec, rep)
                assert not is_boundary(spec, rep)


def _check_product(spec, keys):
    for u in keys:
        for v in keys:
            w = shuffle_product(chain_rep(spec, u), chain_rep(spec, v))
            expected = key_product(spec.n, u, v)
            if expected is None:
                assert is_boundary(spec, w), (u, v)
            else:
                assert internal_degree(spec, w) == key_degree(spec, expected)
                assert class_of(spec, w) == class_of(spec, chain_rep(spec, expected)), (u, v)


def test_odd_products_through_homology():
    keys = [k for q in range(3) for k in level_keys(ODD, q)]
    _check_product(ODD, keys)


def test_even_products_through_homology():
    keys = [k for q in range(3) for k in level_keys(EVEN, q)]
    _check_product(EVEN, keys)


def test_even_products_are_consistent_at_level_zero():
    # The level zero classes are x^{j+1} and x^j dx; their products must
    # agree with plain truncated multiplication, less x^n dx.
    n = EVEN.n
    for j1 in range(n):
        for j2 in range(n):
            out = key_product(n, (j1 + 1, 0, 0), (j2 + 1, 0, 0))
            if j1 + j2 + 2 <= n:
                assert out == (j1 + j2 + 2, 0, 0)
            else:
                assert out is None
            out = key_product(n, (j1, 1, 0), (j2 + 1, 0, 0))
            if j1 + j2 + 1 <= n - 1:
                assert out == (j1 + j2 + 1, 1, 0)
            else:
                assert out is None
    assert key_product(n, (0, 0, 0), (1, 1, 2)) == (1, 1, 2)


def test_top_diagonal_matches_the_coefficient():
    assert diagonal_coefficient(2) == 1
    assert diagonal_coefficient(3) == 0
    got = class_of(ODD, delta_top(ODD, omega(2)))
    want = class_of(ODD, chain_rep(ODD, (0, 0, 4)))
    assert got == want
    assert is_boundary(ODD, delta_top(ODD, omega(3)))
    got = class_of(EVEN, delta_top(EVEN, beta(2)))
    want = class_of(EVEN, chain_rep(EVEN, (2, 0, 4)))
    assert got == want
    assert is_boundary(EVEN, delta_top(EVEN, alpha(2)))


def test_loop_module_dimensions_recount_the_levels():
    for spec, sq_one in ((ODD, True), (EVEN, False), (GradingSpec(3, 2), False)):
        module = loop_module(spec.n, spec.m, 24, 8, sq_one=sq_one)
        for total in range(25):
            by_levels = 0
            q = 0
            while q * ((spec.n + 1) * spec.m - 2) <= total + q:
                by_levels += main1_dims(spec, q, total + q)
                q += 1
            assert module.dims().get(total, 0) == by_levels, (spec, total)


def test_loop_module_operation_values():
    # Odd truncation at exponent three, so squaring can land inside.
    mod = loop_module(3, 2, 30, 8, sq_one=True)
    assert mod.sq_label(2, "x") == frozenset({"x^2"})
    assert mod.sq_label(1, "g1") == frozenset({"x^3*dx"})
    assert mod.sq_label(1, "g2") == frozenset({"x^3*dx*g1"})
    assert mod.sq_label(1, "x*g1") == frozenset()
    assert mod.sq_label(2, "x*g1") == frozenset({"x^2*g1"})
    silent = loop_module(3, 2, 30, 8, sq_one=False)
    assert silent.sq_label(1, "g1") == frozenset()
    # Even truncation: the same binomial rule, less the value x^n dx.
    mod = loop_module(2, 2, 30, 8, sq_one=False)
    assert mod.sq_label(2, "x") == frozenset({"x^2"})
    assert mod.sq_label(2, "dx") == frozenset()
    assert mod.sq_label(2, "dx*g1") == frozenset({"x*dx*g1"})
    assert mod.sq_label(2, "x^2*g1") == frozenset()


def test_loop_modules_pass_the_operation_checks():
    cases = [
        (1, 2, True),
        (1, 2, False),
        (3, 2, True),
        (2, 2, False),
        (2, 4, False),
        (1, 5, False),
        (1, 4, True),
    ]
    for n, m, sq_one in cases:
        module = loop_module(n, m, 30, 12, sq_one=sq_one)
        for report in (
            check_instability(module, 6),
            check_cartan(module, 6),
            check_adem(module, 6),
        ):
            assert report["pass"], (n, m, sq_one, report)
            assert report["checked"] > 0
