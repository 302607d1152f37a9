"""The release gate: every advertised equality at full advertised scale.

One test per gate line, in order, each pinned to exact equality; the
rest of the suite covers the same machinery at unit scale.  Nothing in
here tolerates an approximation, because nothing in the library is
approximate.
"""

import time

from looplab.algebra import GradingSpec, gen_y, internal_degree
from looplab.closedform import (
    chain_rep,
    diagonal_coefficient,
    key_degree,
    key_product,
    level_keys,
    loop_module,
    main1_dims,
)
from looplab.ez import delta_top, run_trials, shuffle_product
from looplab.homology import (
    class_of,
    homology_dim,
    is_boundary,
    is_cycle,
    is_normalized,
    koszul_dim,
)
from looplab.simplicial import (
    alpha,
    beta,
    is_degenerate,
    omega,
    omega_without,
    omega_without2,
)
from looplab.steenrod import check_adem, check_cartan, check_instability, module_iso
from looplab.thom import (
    SPACES,
    Space,
    loop_dictionary,
    merge_groups,
    model_homology_z,
    model_module_f2,
    reference_loop_homology,
    sphere_layer,
)

GRID_PAIRS = ((1, 2), (1, 3), (2, 2), (2, 4), (3, 2), (3, 4), (4, 2))
ODD = GradingSpec(1, 2)
EVEN = GradingSpec(2, 2)


def _grid(spec):
    for q in range(4):
        for t in range(3 * (spec.n + 1) * spec.m + 1):
            yield q, t


def test_criterion_01_brute_force_dimensions_match_the_closed_form():
    for n, m in GRID_PAIRS:
        spec = GradingSpec(n, m)
        start = time.monotonic()
        for q, t in _grid(spec):
            assert homology_dim(spec, q, t) == main1_dims(spec, q, t), (n, m, q, t)
        assert time.monotonic() - start < 180.0, (n, m)


def test_criterion_02_resolution_recount_agrees_with_the_face_pipeline():
    # Two routes that share no code past the grading arithmetic.
    for n, m in GRID_PAIRS:
        spec = GradingSpec(n, m)
        for q, t in _grid(spec):
            assert koszul_dim(spec, q, t) == homology_dim(spec, q, t), (n, m, q, t)


def test_criterion_03_representatives_are_honest_cycles_with_degenerate_scraps():
    odd_specs = (GradingSpec(1, 2), GradingSpec(3, 2))
    even_specs = (GradingSpec(2, 2), GradingSpec(2, 4))
    for q in range(4):
        for spec in odd_specs:
            for rep in (omega(q), alpha(q)):
                assert is_normalized(spec.n, rep)
                assert is_cycle(spec, rep), (spec, q)
                assert not is_boundary(spec, rep), (spec, q)
            if q:
                assert not is_cycle(spec, beta(q)), (spec, q)
        for spec in even_specs:
            for rep in (alpha(q), beta(q)):
                assert is_normalized(spec.n, rep)
                assert is_cycle(spec, rep), (spec, q)
                assert not is_boundary(spec, rep), (spec, q)
            if q:
                assert not is_cycle(spec, omega(q)), (spec, q)
    # Every stripped-down copy of omega one level up is degenerate,
    # with or without a stray polynomial generator in front.
    for spec in (ODD, EVEN):
        for level in range(1, 5):
            for r in range(1, level + 1):
                assert is_degenerate(spec, omega_without(level, r)), (spec, level, r)
            for j in range(1, level + 1):
                for k in range(j + 1, level + 1):
                    scrap = omega_without2(level, j, k)
                    assert is_degenerate(spec, scrap), (spec, level, j, k)
                    for r in range(1, level + 1):
                        assert is_degenerate(spec, gen_y(level, r) * scrap), (
                            spec,
                            level,
                            r,
                            j,
                            k,
                        )


def _classify_products(spec, product, degree, max_sum):
    by_level = {q: level_keys(spec, q) for q in range(max_sum + 1)}
    for p in range(max_sum + 1):
        for q in range(max_sum + 1 - p):
            for u in by_level[p]:
                for v in by_level[q]:
                    w = shuffle_product(chain_rep(spec, u), chain_rep(spec, v))
                    expected = product(spec.n, u, v)
                    if expected is None:
                        assert is_boundary(spec, w), (spec, u, v)
                    else:
                        assert internal_degree(spec, w) == degree(spec, expected)
                        want = class_of(spec, chain_rep(spec, expected))
                        assert class_of(spec, w) == want, (spec, u, v)


def test_criterion_04_products_and_the_top_diagonal_classify_correctly():
    for q in range(1, 4097):
        power_of_two = q & (q - 1) == 0
        assert diagonal_coefficient(q) == (1 if power_of_two else 0), q
    _classify_products(ODD, key_product, key_degree, 4)
    _classify_products(EVEN, key_product, key_degree, 4)
    got = class_of(ODD, delta_top(ODD, omega(2)))
    assert got == class_of(ODD, chain_rep(ODD, (0, 0, 4)))
    got = class_of(EVEN, delta_top(EVEN, beta(2)))
    assert got == class_of(EVEN, chain_rep(EVEN, (2, 0, 4)))
    assert is_boundary(EVEN, delta_top(EVEN, alpha(2)))


def test_criterion_05_seeded_shuffle_trials_run_clean_and_deterministic():
    for n, m in ((1, 2), (2, 2), (3, 2)):
        spec = GradingSpec(n, m)
        first = run_trials(spec, max_level=3, trials=200, seed=7)
        again = run_trials(spec, max_level=3, trials=200, seed=7)
        assert first == again, (n, m)
        assert first["trials"] == 200
        assert first["failures"] == [], (n, m, first["failures"][:3])
        assert first["passed"] > first["vacuous"], (n, m)


def test_criterion_06_operation_axioms_hold_for_every_space():
    for name in sorted(SPACES):
        sp = SPACES[name]
        module = loop_module(sp.n, sp.r, 80, sq_one=sp.odd_op)
        for report in (
            check_instability(module, 16),
            check_cartan(module, 16),
            check_adem(module, 16),
        ):
            assert report["pass"], (name, report["check"], report["failures"][:3])
            assert report["checked"] > 0, (name, report["check"])
            assert report["skipped"] >= 0


def test_criterion_07_the_dictionary_is_an_operation_isomorphism():
    for name in sorted(SPACES):
        sp = SPACES[name]
        model = model_module_f2(sp, 100)
        loop = loop_module(sp.n, sp.r, 100, sq_one=sp.odd_op)
        report = module_iso(model, loop, loop_dictionary(sp, 100), 16)
        assert report["pass"], (name, report["failures"][:3])
        assert report["checked"] > 0, name


def test_criterion_08_integral_wedge_agrees_with_the_reference_tables():
    for name in sorted(SPACES):
        sp = SPACES[name]
        got = model_homology_z(sp, 120)
        want = reference_loop_homology(sp, 120)
        for deg in range(121):
            assert got.get(deg, (0, ())) == want.get(deg, (0, ())), (name, deg)
    # Pin the headline torsion spots to literal numbers as well.
    for name, period in (("cp1", 2), ("cp2", 4), ("cp3", 6), ("cp4", 8)):
        table = model_homology_z(SPACES[name], 120)
        order = SPACES[name].n + 1
        for deg in range(period, 121, period):
            assert table[deg] == (1, (order,)), (name, deg)
    for name, period in (("hp1", 6), ("hp2", 10), ("hp3", 14)):
        table = model_homology_z(SPACES[name], 120)
        order = SPACES[name].n + 1
        for deg in range(period, 121, period):
            assert table.get(deg, (0, ()))[1] == (order,), (name, deg)
    cay = model_homology_z(SPACES["cayley"], 120)
    free_degrees = {0, 8, 16}
    for a in range(1, 7):
        free_degrees |= {22 * a - 15, 22 * a - 7, 22 * a + 8, 22 * a + 16}
    for deg in range(121):
        free, torsion = cay.get(deg, (0, ()))
        assert free == (1 if deg in free_degrees else 0), deg
        assert torsion == ((3,) if deg and deg % 22 == 0 else ()), deg


def test_criterion_09_sphere_wedge_rebuilds_from_its_layers():
    for m in range(2, 7):
        layers = [{0: (1, ())}]
        k = 1
        while (m - 1) * k <= 60:
            layers.append(sphere_layer(m, k))
            k += 1
        total = merge_groups(*layers)
        model = model_homology_z(SPACES[f"s{m}"], 60)
        for deg in range(61):
            assert total.get(deg, (0, ())) == model.get(deg, (0, ())), (m, deg)


def test_criterion_10_the_odd_operation_tracks_the_euler_characteristic():
    for name in sorted(SPACES):
        sp = SPACES[name]
        assert sp.odd_op == sp.odd_op_from_euler, name
    # The rule is sharp: flip the switch on the cell side only and the
    # dictionary stops commuting, in either direction of the flip.
    for name in ("cp1", "cp3", "s3", "s4"):
        sp = SPACES[name]
        flipped = Space(sp.name, sp.n, sp.r, sp.chi, not sp.odd_op, sp.family)
        model = model_module_f2(flipped, 40)
        loop = loop_module(sp.n, sp.r, 40, sq_one=sp.odd_op)
        report = module_iso(model, loop, loop_dictionary(flipped, 40), 1)
        assert not report["pass"], name
        assert any("commute" in line for line in report["failures"]), name
