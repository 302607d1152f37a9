"""Wedge model internals and the reference tables they must reproduce."""

import pytest

from looplab.closedform import loop_module, lucas
from looplab.steenrod import check_adem, check_cartan, check_instability, module_iso
from looplab.thom import (
    FAMILIES,
    SPACES,
    Space,
    abelian_tsv,
    cofiber_z,
    loop_dictionary,
    model_homology_z,
    model_module_f2,
    reference_loop_homology,
    space,
    sphere_piece,
    suspended_cofiber_z,
    sw_classes,
    thom_module,
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
        with pytest.raises(ValueError, match="unknown space family"):
            Space("x", 1, 2, 2, False, family)


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
    # The sphere branches would give s2's answer instead.
    s2 = space("s2")
    assert model_homology_z(named_like_a_sphere, 60) != model_homology_z(s2, 60)


def test_odd_switch_agrees_with_the_euler_characteristic():
    for sp in SPACES.values():
        assert sp.odd_op == sp.odd_op_from_euler, sp.name


def test_bundle_classes_explain_the_operation_rule():
    # The coefficient on each operation must be the convolution of the
    # base coefficient with the bundle's characteristic classes.
    for name in ("cp2", "cp3", "hp2", "cayley", "s4"):
        sp = space(name)
        for q in range(4):
            sw = sw_classes(sp, q)
            for j in range(sp.n + 1):
                for i in range(sp.n + 1):
                    direct = lucas(q * (sp.n + 1) + j, i)
                    folded = 0
                    for s in range(i + 1):
                        if i - s <= sp.n:
                            folded ^= lucas(j, s) & sw[i - s]
                    assert direct == folded, (name, q, j, i)


def test_level_zero_module_is_the_space_itself():
    mod = thom_module(space("cp2"), 0, 10, 8)
    assert mod.dims() == {0: 1, 2: 1, 4: 1}
    assert mod.sq_label(2, "x") == frozenset({"x^2"})
    assert check_instability(mod, 4)["pass"]
    assert check_cartan(mod, 4)["pass"]
    assert check_adem(mod, 4)["pass"]


def test_higher_level_module_values():
    mod = thom_module(space("cp2"), 1, 20, 8)
    assert mod.dims() == {4: 1, 6: 1, 8: 1}
    assert mod.sq_label(2, "u1") == frozenset({"x*u1"})
    assert mod.sq_label(2, "x*u1") == frozenset()
    assert mod.sq_label(4, "u1") == frozenset({"x^2*u1"})
    assert mod.sq_label(1, "u1") == frozenset()
    mod = thom_module(space("s3"), 2, 20, 4)
    assert mod.dims() == {6: 1, 9: 1}
    assert mod.sq_label(3, "u2") == frozenset()


def test_cofiber_groups():
    assert cofiber_z(space("cp2"), 0) == {
        1: (1, ()),
        3: (1, ()),
        6: (1, ()),
        8: (1, ()),
        4: (0, (3,)),
    }
    assert cofiber_z(space("s4"), 0) == {1: (1, ()), 8: (1, ()), 4: (0, (2,))}
    with pytest.raises(ValueError):
        cofiber_z(space("s3"), 0)


def test_suspended_degree_sets():
    for name in ("cp2", "hp2", "cayley"):
        sp = space(name)
        stride = (sp.n + 1) * sp.r - 2
        for q in range(4):
            groups = suspended_cofiber_z(sp, q)
            frees = {d for d, (f, _) in groups.items() if f}
            lower = {stride * q + sp.r * j + sp.r - 1 for j in range(sp.n)}
            upper = {stride * (q + 1) + sp.r * (j + 1) for j in range(sp.n)}
            assert frees == lower | upper
            torsions = {d for d, (_, t) in groups.items() if t}
            assert torsions == {stride * (q + 1)}
            assert groups[stride * (q + 1)][1] == (sp.chi,)


def test_even_sphere_pieces_agree_with_the_cofiber_route():
    for name in ("s2", "s4", "s6"):
        sp = space(name)
        for q in range(5):
            assert sphere_piece(sp.r, q) == suspended_cofiber_z(sp, q), (name, q)


def test_model_matches_the_reference_tables():
    for name, sp in SPACES.items():
        assert model_homology_z(sp, 40) == reference_loop_homology(sp, 40), name


def test_two_descriptions_of_the_same_space_agree():
    assert model_homology_z(space("cp1"), 48) == model_homology_z(space("s2"), 48)
    assert model_homology_z(space("hp1"), 48) == model_homology_z(space("s4"), 48)


def test_model_module_dimensions_match_the_loop_side():
    for name in ("cp2", "cp3", "hp1", "s2", "s3"):
        sp = space(name)
        model = model_module_f2(sp, 40, 2)
        loop = loop_module(sp.n, sp.r, 40, 2, sq_one=sp.odd_op)
        assert model.dims() == loop.dims(), name


def test_dictionary_gives_an_isomorphism():
    for name in ("cp1", "cp2", "cp3", "hp1", "hp2", "cayley", "s2", "s3", "s5"):
        sp = space(name)
        model = model_module_f2(sp, 40, 8)
        loop = loop_module(sp.n, sp.r, 40, 8, sq_one=sp.odd_op)
        report = module_iso(model, loop, loop_dictionary(sp, 40), 8)
        assert report["pass"], (name, report["failures"][:3])
        assert report["checked"] > 0


def test_dictionary_fails_when_the_odd_switch_is_wrong():
    fake = Space("s2", 1, 2, 2, False, "sphere")
    model = model_module_f2(fake, 30, 4)
    loop = loop_module(1, 2, 30, 4, sq_one=True)
    report = module_iso(model, loop, loop_dictionary(fake, 30), 4)
    assert not report["pass"]
    assert any("commute" in f for f in report["failures"])


def test_model_modules_pass_the_operation_checks():
    for name in ("cp2", "hp2", "s2", "s4", "cayley"):
        mod = model_module_f2(space(name), 40, 16)
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
