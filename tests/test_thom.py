"""Wedge model internals and the reference tables they must reproduce."""

import re
from collections import Counter

import pytest

from looplab.algebra import GradingSpec
from looplab.closedform import loop_module, lucas
from looplab.gf2 import rank
from looplab.homology import homology_dim
from looplab.steenrod import check_adem, check_instability, module_iso
from looplab.thom import (
    FAMILIES,
    SPACES,
    Space,
    abelian_tsv,
    loop_dictionary,
    merge_groups,
    model_homology_z,
    model_module_f2,
    reference_loop_homology,
    space,
    sw_classes,
)


def test_space_table():
    assert len(SPACES) == 13
    cp3 = space("cp3")
    assert (cp3.n, cp3.r, cp3.chi, cp3.dim) == (3, 2, 4, 6)
    assert space("CAYLEY").chi == 3
    assert space("s5").chi == 0
    assert space("s4").chi == 2
    with pytest.raises(ValueError):
        space("rp2")


def test_reference_table_rejects_a_space_outside_the_shipped_families():
    with pytest.raises(ValueError):
        reference_loop_homology(Space("rp2", 1, 1, 1, False, "rp"), 10)


def test_an_unknown_family_is_rejected():
    for family in ("rp", "s", "CP", ""):
        with pytest.raises(ValueError) as err:
            Space("x", 1, 2, 2, False, family)
        assert str(err.value) == (
            f"unknown space family {family!r}; known: sphere, cp, hp, cayley"
        )
        with pytest.raises(ValueError):
            space("cp2")._replace(family=family)


def test_a_shape_outside_the_family_is_rejected():
    bad = {
        "cp": ((2, 2, 0), "n >= 1, r = 2 and chi = n + 1"),
        "hp": ((2, 2, 3), "n >= 1, r = 4 and chi = n + 1"),
        "cayley": ((1, 8, 3), "n = 2, r = 8 and chi = 3"),
        "sphere": ((1, 3, 2), "n = 1, r >= 2 and chi = 2 for even r, 0 for odd r"),
    }
    assert set(bad) == set(FAMILIES)
    for family, ((n, r, chi), shape) in bad.items():
        with pytest.raises(ValueError) as err:
            Space("x", n, r, chi, False, family)
        assert str(err.value) == f"{family} space needs {shape}, got n={n}, r={r}, chi={chi}"
    for sp in SPACES.values():
        assert Space(*sp) == sp
        with pytest.raises(ValueError):
            sp._replace(chi=sp.chi + 1)


def test_space_is_a_frozen_value():
    cp2 = space("cp2")
    same = Space(name="cp2", n=2, r=2, chi=3, odd_op=False, family="cp")
    assert cp2 == same and hash(cp2) == hash(same)
    for other in (cp2._replace(name="s2"), cp2._replace(odd_op=True), space("cp3")):
        assert cp2 != other and hash(cp2) != hash(other)
    assert repr(cp2) == "Space(name='cp2', n=2, r=2, chi=3, odd_op=False, family='cp')"
    assert (cp2.dim, cp2.odd_op_from_euler) == (4, False)
    with pytest.raises(AttributeError):
        cp2.name = "s2"
    with pytest.raises(AttributeError):
        cp2.extra = 1
    assert cp2 == same


def test_every_shipped_space_names_its_family():
    families = {sp.family for sp in SPACES.values()}
    assert families == set(FAMILIES)
    assert space("s4").family == "sphere"
    assert space("hp2").family == "hp"


def test_the_family_not_the_name_picks_the_branches():
    cp2 = space("cp2")
    named_like_a_sphere = Space("s2", cp2.n, cp2.r, cp2.chi, cp2.odd_op, "cp")
    assert model_homology_z(named_like_a_sphere, 60) == model_homology_z(cp2, 60)
    assert reference_loop_homology(named_like_a_sphere, 60) == reference_loop_homology(
        cp2, 60
    )
    # The sphere reference table would give s2's answer instead.
    s2 = space("s2")
    assert model_homology_z(named_like_a_sphere, 60) != model_homology_z(s2, 60)


def test_odd_switch_agrees_with_the_euler_characteristic():
    for sp in SPACES.values():
        assert sp.odd_op == sp.odd_op_from_euler, sp.name


def test_odd_chi_cancels_the_pair_its_map_joins():
    # The degree chi map of the level q piece joins c_q^n to d_(q+1)^0;
    # mod 2 that pair survives exactly when chi is even, and every other
    # cell of the piece always does.
    for sp in SPACES.values():
        labels = set(model_module_f2(sp, 200).index)
        for q in range(3):
            cells = {f"{family}{q + (family == 'd')}^{j}" for family in "cd" for j in range(sp.n + 1)}
            pair = {f"c{q}^{sp.n}", f"d{q + 1}^0"}
            assert cells & labels == (cells if sp.chi % 2 == 0 else cells - pair), sp.name


def test_bundle_classes_explain_the_operation_rule():
    # Each stored operation on a cofiber cell x^j u_level must be the
    # convolution of the base coefficient with the characteristic classes
    # of the level's bundle, at the Thom index j.  Rows with i > n must be
    # empty, as no cell x^(j+i) exists there, and so must rows that would
    # reach the cell c^n, which odd chi cancels against d^0.
    cell = re.compile(r"([cd])(\d+)\^(\d+)")
    rows = hits = 0
    for sp in SPACES.values():
        mod = model_module_f2(sp, 120)
        for label, d in mod.labels():
            match = cell.fullmatch(label)
            if match is None:
                continue
            family, level, j = match[1], int(match[2]), int(match[3])
            sw = sw_classes(sp, level)
            i = 1
            while d + i * sp.r <= 120 and i * sp.r <= 40:
                folded = 0
                for s in range(i + 1):
                    if i - s <= sp.n:
                        folded ^= lucas(j, s) & sw[i - s]
                target = mod.index.get(f"{family}{level}^{j + i}")
                want = 1 << target if folded and target is not None else 0
                got = mod.sq.get(i * sp.r, {}).get(mod.index[label], 0)
                assert got == want, (sp.name, label, i)
                rows += 1
                hits += bool(want)
                i += 1
    assert (rows, hits) == (18336, 179)


def test_cofiber_groups():
    # The lowest pieces written out: the joined pair of each level is one
    # Z/chi, and the wedge's other cells are free classes.
    assert model_homology_z(space("cp2"), 8) == {
        0: (1, ()),
        1: (1, ()),
        2: (1, ()),
        3: (1, ()),
        4: (1, (3,)),
        5: (1, ()),
        6: (1, ()),
        7: (1, ()),
        8: (1, (3,)),
    }
    assert model_homology_z(space("s4"), 8) == {
        0: (1, ()),
        3: (1, ()),
        4: (1, ()),
        6: (0, (2,)),
    }


def test_suspended_degree_sets():
    # For chi != 0 the pair that the level q map joins is one Z/chi in
    # degree (q+1)((n+1)r - 2), and every other cell is a free class.
    for name in ("cp2", "hp2", "cayley"):
        sp = space(name)
        stride = (sp.n + 1) * sp.r - 2
        deg_max = 4 * stride
        free = Counter(sp.r * j for j in range(sp.n + 1))
        for q in range(4):
            free.update(stride * q + sp.r * j + sp.r - 1 for j in range(sp.n))
            free.update(stride * (q + 1) + sp.r * (j + 1) for j in range(sp.n))
        groups = model_homology_z(sp, deg_max)
        assert {d: f for d, (f, _) in groups.items() if f} == {
            d: k for d, k in free.items() if d <= deg_max
        }, name
        assert {d: t for d, (_, t) in groups.items() if t} == {
            stride * (q + 1): (sp.chi,) for q in range(4)
        }, name


def test_sphere_wedges_are_pinned_for_both_parities():
    # An odd sphere has chi = 0: the joined pair is two free classes one
    # degree apart, where an even sphere has a single Z/2.
    for m in range(2, 7):
        sp = space(f"s{m}")
        deg_max = 10 * (m - 1)
        parts = [{0: (1, ()), m: (1, ())}]
        for q in range(5):
            lower = (2 * q + 1) * (m - 1)
            upper = 2 * (q + 1) * (m - 1)
            parts.append({lower: (1, ()), upper + m: (1, ())})
            parts.append({upper: (1, ()), upper + 1: (1, ())} if m % 2 else {upper: (0, (2,))})
        want = {d: g for d, g in merge_groups(*parts).items() if d <= deg_max}
        assert model_homology_z(sp, deg_max) == want, m


def test_model_matches_the_reference_tables():
    for name, sp in SPACES.items():
        assert model_homology_z(sp, 40) == reference_loop_homology(sp, 40), name


def test_two_descriptions_of_the_same_space_agree():
    assert model_homology_z(space("cp1"), 48) == model_homology_z(space("s2"), 48)
    assert model_homology_z(space("hp1"), 48) == model_homology_z(space("s4"), 48)


def test_model_module_dimensions_match_the_loop_side():
    for name in ("cp2", "cp3", "hp1", "s2", "s3"):
        sp = space(name)
        model = model_module_f2(sp, 40)
        loop = loop_module(sp.n, sp.r, 40, sq_one=sp.odd_op)
        assert model.dims() == loop.dims(), name


def test_dictionary_gives_an_isomorphism():
    for name in ("cp1", "cp2", "cp3", "hp1", "hp2", "cayley", "s2", "s3", "s5"):
        sp = space(name)
        model = model_module_f2(sp, 40)
        loop = loop_module(sp.n, sp.r, 40, sq_one=sp.odd_op)
        report = module_iso(model, loop, loop_dictionary(sp, 40), 8)
        assert report["pass"], (name, report["failures"][:3])
        assert report["checked"] > 0


def test_dictionary_fails_when_the_odd_switch_is_wrong():
    fake = Space("s2", 1, 2, 2, False, "sphere")
    model = model_module_f2(fake, 30)
    loop = loop_module(1, 2, 30, sq_one=True)
    report = module_iso(model, loop, loop_dictionary(fake, 30), 4)
    assert not report["pass"]
    assert any("commute" in f for f in report["failures"])


def test_model_modules_pass_the_operation_checks():
    for name in ("cp2", "hp2", "s2", "s4", "cayley"):
        mod = model_module_f2(space(name), 40)
        assert check_instability(mod, 8)["pass"], name
        assert check_adem(mod, 8)["pass"], name


def test_abelian_rows_render_plainly():
    text = abelian_tsv({0: (1, ()), 2: (1, (2,)), 3: (0, (2, 4))}, 3)
    assert text == (
        "degree\tfreeRank\ttorsion\n"
        "0\t1\t-\n"
        "1\t0\t-\n"
        "2\t1\t2\n"
        "3\t0\t2,4\n"
    )


def _even_orders(groups, deg):
    return sum(order % 2 == 0 for order in groups.get(deg, (0, ()))[1])


def test_chain_homology_meets_the_stable_splitting_in_total_degree():
    # Total degree is internal degree minus level, and a nondegenerate
    # level q monomial has total degree at least q((n+1)r - 2), so the
    # chain sum over levels is finite.  The reference is integral: its
    # mod 2 Betti numbers follow from the universal coefficient theorem.
    checked = 0
    for sp in SPACES.values():
        spec = GradingSpec(sp.n, sp.r)
        step = (sp.n + 1) * sp.r - 2
        deg_max = 8 * step
        loop = loop_module(sp.n, sp.r, deg_max, sq_one=sp.odd_op).dims()
        model = model_module_f2(sp, deg_max).dims()
        ref = reference_loop_homology(sp, deg_max)
        homology_dim(spec, deg_max // step, deg_max + deg_max // step)  # the sweep's corner
        for d in range(deg_max + 1):
            chain = sum(homology_dim(spec, q, d + q) for q in range(d // step + 1))
            uct = ref.get(d, (0, ()))[0] + _even_orders(ref, d) + _even_orders(ref, d - 1)
            assert chain == loop.get(d, 0) == model.get(d, 0) == uct, (sp.name, d)
            checked += 1
    assert checked == 829


def test_the_wedge_reads_the_same_cells_both_ways_at_depth():
    # The integral and the mod 2 readings of one cell list must meet
    # through the universal coefficient theorem, far past the windows
    # that the chain sweep and the reference tables reach.
    checked = 0
    for sp in SPACES.values():
        groups = model_homology_z(sp, 400)
        dims = model_module_f2(sp, 400).dims()
        for d in range(401):
            free = groups.get(d, (0, ()))[0]
            uct = free + _even_orders(groups, d) + _even_orders(groups, d - 1)
            assert dims.get(d, 0) == uct, (sp.name, d)
            checked += 1
    assert checked == 5213


def _bockstein_rows(sp, deg_max):
    """Per degree d <= deg_max: the Z/2 summand counts of H_d(-; Z) in
    both integral tables, then the rank of Sq^1 out of degree d in both
    operation modules."""
    loop = loop_module(sp.n, sp.r, deg_max + 1, sq_one=sp.odd_op)
    model = model_module_f2(sp, deg_max + 1)
    tables = (reference_loop_homology(sp, deg_max), model_homology_z(sp, deg_max))
    rows = []
    for d in range(deg_max + 1):
        # 2-adic valuation exactly 1: Z/4, Z/8, ... carry higher Bocksteins.
        want = [sum(order % 4 == 2 for order in t.get(d, (0, ()))[1]) for t in tables]
        got = [
            rank([v for x, v in mod.sq.get(1, {}).items() if mod.deg[x] == d])
            for mod in (loop, model)
        ]
        rows.append((d, *want, *got))
    return rows


def test_sq1_is_the_bockstein_of_the_integral_homology():
    # Sq^1 is the mod 2 Bockstein, so its rank out of degree d counts the
    # cyclic summands of H_d(-; Z) whose order is 2 times an odd number.
    ranked = 0
    for name in sorted(SPACES):
        rows = _bockstein_rows(SPACES[name], 120)
        assert [r for r in rows if len(set(r[1:])) > 1] == [], name
        ranked += sum(r[1] for r in rows)
    assert ranked > 0
    # Negative control: the odd switch changes Sq^1 exactly where it acts.
    broken = set()
    for name in sorted(SPACES):
        sp = SPACES[name]
        rows = _bockstein_rows(sp._replace(odd_op=not sp.odd_op), 120)
        if any(len(set(r[1:])) > 1 for r in rows):
            broken.add(name)
    assert broken == {"cp1", "cp3", "hp1", "hp3", "s2", "s3", "s4", "s5", "s6"}
