"""Generic operation-module machinery, exercised on known small modules."""

import math
import time

import pytest

from looplab.closedform import loop_module
from looplab.steenrod import (
    FiniteAModule,
    check_adem,
    check_cartan,
    check_instability,
    module_iso,
)
from looplab.thom import SPACES, loop_dictionary, model_module_f2
from support import reference_loop_rows, reference_model_rows


def truncated_polynomial(top: int, deg_max: int, k_store: int, stem: str = "x"):
    """Truncated polynomial algebra on a degree one class, full action."""
    elements = [(f"{stem}{j}", j) for j in range(min(top, deg_max + 1))]

    def rule(label):
        j = int(label[len(stem):])
        return [(k, f"{stem}{j + k}") for k in range(1, top - j) if math.comb(j, k) % 2]

    def product(la, lb):
        j = int(la[len(stem):]) + int(lb[len(stem):])
        return [f"{stem}{j}"] if j < top else []

    return FiniteAModule(deg_max, elements, rule, k_store, product=product)


def test_truncated_polynomial_passes_all_checks():
    mod = truncated_polynomial(8, 7, 8)
    for report in (
        check_instability(mod, 4),
        check_cartan(mod, 4),
        check_adem(mod, 4),
    ):
        assert report["pass"], report
        assert report["checked"] > 0
        assert report["failures"] == []


def test_skip_accounting_is_visible():
    mod = truncated_polynomial(8, 4, 8)
    assert mod.skipped > 0
    report = check_adem(mod, 4)
    assert report["pass"]
    assert report["skipped"] > 0
    assert mod.sq_label(2, "x3") is None


def test_instability_negative_control():
    def rule(label):
        return [(2, "y")] if label == "x" else []

    mod = FiniteAModule(5, [("x", 1), ("y", 3)], rule, 6)
    report = check_instability(mod, 4)
    assert not report["pass"]
    assert any("Sq^2 x" in f for f in report["failures"])


def test_instability_checks_the_top_square():
    def rule(label):
        return []

    def product(la, lb):
        return ["z2"] if (la, lb) == ("z1", "z1") else []

    mod = FiniteAModule(4, [("z1", 1), ("z2", 2)], rule, 4, product=product)
    report = check_instability(mod, 4)
    assert not report["pass"]
    assert any("not the square" in f for f in report["failures"])


def test_cartan_negative_control():
    # Sq^1 x^2 should vanish; making it x^3 breaks multiplicativity on (x, x).
    def rule(label):
        if label == "x1":
            return [(1, "x2")]
        if label == "x2":
            return [(1, "x3")]
        return []

    def product(la, lb):
        j = int(la[1]) + int(lb[1])
        return [f"x{j}"] if j < 4 else []

    mod = FiniteAModule(3, [(f"x{j}", j) for j in range(4)], rule, 4, product=product)
    report = check_cartan(mod, 2)
    assert not report["pass"]


def test_cartan_requires_a_product():
    mod = FiniteAModule(3, [("x", 1)], lambda label: [], 4)
    with pytest.raises(ValueError):
        check_cartan(mod, 2)


def test_adem_negative_control():
    # A composite Sq^1 Sq^1 that fails to vanish, placed high enough that
    # the instability condition cannot be what catches it.
    def rule(label):
        if label == "u":
            return [(1, "v")]
        if label == "v":
            return [(1, "w")]
        return []

    mod = FiniteAModule(7, [("u", 5), ("v", 6), ("w", 7)], rule, 4)
    assert check_instability(mod, 2)["pass"]
    report = check_adem(mod, 2)
    assert not report["pass"]
    assert any("Sq^1 Sq^1" in f for f in report["failures"])


def test_adem_needs_doubled_storage():
    mod = truncated_polynomial(4, 3, 4)
    with pytest.raises(ValueError):
        check_adem(mod, 4)


def test_module_iso_accepts_a_relabelling():
    a = truncated_polynomial(6, 5, 6)
    b = truncated_polynomial(6, 5, 6, stem="y")
    dictionary = {f"x{j}": f"y{j}" for j in range(6)}
    report = module_iso(a, b, dictionary, 3)
    assert report["pass"], report
    assert report["checked"] > 0


def test_module_iso_rejects_an_action_mismatch():
    a = truncated_polynomial(4, 3, 4)
    elements = [(f"y{j}", j) for j in range(4)]
    b = FiniteAModule(3, elements, lambda label: [], 4)
    report = module_iso(a, b, {f"x{j}": f"y{j}" for j in range(4)}, 3)
    assert not report["pass"]
    assert any("commute" in f for f in report["failures"])


def test_module_iso_rejects_a_degree_shift():
    a = truncated_polynomial(3, 2, 4)
    b = FiniteAModule(2, [("y0", 0), ("y1", 2), ("y2", 1)], lambda l: [], 4)
    report = module_iso(a, b, {"x0": "y0", "x1": "y1", "x2": "y2"}, 2)
    assert not report["pass"]


def test_module_iso_rejects_a_non_bijection():
    a = truncated_polynomial(3, 2, 4)
    b = truncated_polynomial(3, 2, 4, stem="y")
    report = module_iso(a, b, {"x0": "y0", "x1": "y1", "x2": "y1"}, 2)
    assert not report["pass"]
    report = module_iso(a, b, {"x0": "y0", "x1": "y1"}, 2)
    assert not report["pass"]


def test_skipped_counts_the_nonzero_values_beyond_the_cutoff():
    mod = truncated_polynomial(8, 4, 8)
    dropped = [
        (j, k)
        for j in range(5)
        for k in range(1, 9)
        if 4 < j + k < 8 and math.comb(j, k) % 2
    ]
    assert mod.skipped == len(dropped) > 0


def test_module_iso_follows_the_dictionary_across_positions():
    def rule(label):
        targets = {"p": "r", "q": "s", "P": "R", "Q": "S"}
        return [(1, targets[label])] if label in targets else []

    a = FiniteAModule(2, [("p", 1), ("q", 1), ("r", 2), ("s", 2)], rule, 2)
    b = FiniteAModule(2, [("P", 1), ("Q", 1), ("R", 2), ("S", 2)], rule, 2)
    crossed = {"p": "Q", "q": "P", "r": "S", "s": "R"}
    assert module_iso(a, b, crossed, 1)["pass"]
    half = {"p": "P", "q": "Q", "r": "S", "s": "R"}
    report = module_iso(a, b, half, 1)
    assert not report["pass"]
    assert report["failures"] == [
        "Sq^1 does not commute with the dictionary on p",
        "Sq^1 does not commute with the dictionary on q",
    ]


def test_constructor_validates_its_inputs():
    with pytest.raises(ValueError):
        FiniteAModule(3, [("x", 1), ("x", 2)], lambda l: [], 2)
    with pytest.raises(ValueError):
        FiniteAModule(3, [("x", 5)], lambda l: [], 2)
    with pytest.raises(ValueError):
        FiniteAModule(3, [("x", 1)], lambda l: [(1, "ghost")], 2)
    with pytest.raises(ValueError):
        FiniteAModule(3, [("x", 1), ("y", 3)], lambda l: [(1, "y")], 2)


@pytest.mark.parametrize("k", [0, -1])
def test_operations_below_one_are_refused(k):
    with pytest.raises(ValueError, match="start at k = 1"):
        FiniteAModule(3, [("x", 1), ("y", 1)], lambda l: [(k, "y")], 2)


def test_operations_above_the_store_are_ignored():
    # Sq^3 x would be y, and "ghost" is no label at all; neither is read.
    mod = FiniteAModule(4, [("x", 1), ("y", 4)], lambda l: [(3, "y"), (5, "ghost")], 2)
    assert mod.sq[1:] == [[0, None], [0, None]]
    assert mod.skipped == 0


def test_an_unknown_value_beyond_the_window_is_counted_not_looked_up():
    # Two summands of one Sq^k count once, as one value beyond the window.
    rule = {"x": [(1, "x2"), (3, "ghost"), (3, "ghost2")], "x2": [(2, "ghost")]}
    mod = FiniteAModule(3, [("x", 1), ("x2", 2)], rule.__getitem__, 4)
    assert mod.skipped == 2
    assert mod.sq_label(1, "x") == frozenset({"x2"})
    assert mod.sq_label(3, "x") is None and mod.sq_label(2, "x2") is None


def test_a_target_of_the_wrong_degree_inside_the_window_is_refused():
    with pytest.raises(ValueError, match=r"Sq\^1 x hit 'z', not a label of degree 2"):
        FiniteAModule(4, [("x", 1), ("y", 2), ("z", 3)], lambda l: [(1, "z")] if l == "x" else [], 2)


def test_sq_label_contract():
    mod = truncated_polynomial(8, 7, 4)
    assert mod.sq_label(0, "x3") == frozenset({"x3"})
    assert mod.sq_label(1, "x3") == frozenset({"x4"})
    assert mod.sq_label(1, "x2") == frozenset()
    assert mod.sq_label(2, "x2") == frozenset({"x4"})
    assert mod.sq_label(4, "x6") is None
    with pytest.raises(ValueError):
        mod.sq_label(5, "x1")
    with pytest.raises(ValueError):
        check_instability(mod, 5)


def test_product_to_an_unknown_label_is_rejected():
    def ghost(la, lb):
        return ["ghost"]

    mod = FiniteAModule(4, [("x", 1), ("y", 2)], lambda l: [], 4, product=ghost)
    with pytest.raises(ValueError):
        check_cartan(mod, 2)
    with pytest.raises(ValueError):
        check_instability(mod, 2)


def test_product_of_the_wrong_degree_is_rejected():
    def product(la, lb):
        return ["y"]

    mod = FiniteAModule(4, [("x", 1), ("y", 2)], lambda l: [], 4, product=product)
    with pytest.raises(ValueError):
        check_cartan(mod, 2)


def test_products_beyond_the_cutoff_are_dropped():
    # The rule names x5 and x6, which lie past the window; they are not errors.
    mod = truncated_polynomial(8, 4, 8)
    for report in (check_instability(mod, 4), check_cartan(mod, 4)):
        assert report["pass"], report
        assert report["skipped"] > 0


def test_modules_equal_the_per_pair_reference_on_the_full_grid():
    # Both builders against the construction that asked the rule once per
    # (k, label), with the odd switch as shipped and flipped.
    skipped = 0
    for deg_max, k_store in ((320, 128), (120, 40), (30, 4)):
        for name in sorted(SPACES):
            sp = SPACES[name]
            for odd_op in (sp.odd_op, not sp.odd_op):
                built = (
                    loop_module(sp.n, sp.r, deg_max, k_store, sq_one=odd_op),
                    model_module_f2(sp._replace(odd_op=odd_op), deg_max, k_store),
                )
                want = (
                    reference_loop_rows(sp.n, sp.r, deg_max, k_store, sq_one=odd_op),
                    reference_model_rows(sp._replace(odd_op=odd_op), deg_max, k_store),
                )
                for module, rows in zip(built, want):
                    got = (module.label, module.deg, module.sq, module.skipped)
                    assert got == rows, (name, deg_max, k_store, odd_op)
                    skipped += module.skipped
    assert skipped > 0


# Reference checkers: the label-set implementation that the bit-vector
# checkers replaced.  They read a module only through labels(), sq_label
# and its product rule, so they share no arithmetic with the checkers.


def ref_product_set(module, a, b):
    acc = set()
    for la in a:
        for lb in b:
            for out in module.product(la, lb):
                acc ^= {out}
    return frozenset(acc)


def ref_sq_set(module, k, labels):
    acc = set()
    for label in labels:
        value = module.sq_label(k, label)
        if value is None:
            return None
        acc ^= value
    return frozenset(acc)


def ref_report(name, checked, skipped, failures):
    return {
        "check": name,
        "pass": not failures,
        "checked": checked,
        "skipped": skipped,
        "failures": failures,
    }


def ref_instability(module, k_max):
    checked = skipped = 0
    failures = []
    for label, d in module.labels():
        for k in range(d + 1, k_max + 1):
            value = module.sq_label(k, label)
            if value is None:
                skipped += 1
            else:
                checked += 1
                if value:
                    failures.append(f"Sq^{k} {label} is nonzero above the degree")
        if module.product is not None and 1 <= d <= k_max:
            value = module.sq_label(d, label)
            if value is None:
                skipped += 1
            else:
                checked += 1
                if value != ref_product_set(module, [label], [label]):
                    failures.append(f"Sq^{d} {label} is not the square")
    return ref_report("instability", checked, skipped, failures)


def ref_cartan(module, k_max):
    labels = module.labels()
    checked = skipped = 0
    failures = []
    for ia, (la, da) in enumerate(labels):
        for lb, db in labels[ia:]:
            ab = ref_product_set(module, [la], [lb])
            for k in range(1, k_max + 1):
                if da + db + k > module.deg_max:
                    skipped += 1
                    continue
                checked += 1
                lhs = ref_sq_set(module, k, ab)
                rhs = set()
                for i in range(k + 1):
                    left = module.sq_label(i, la)
                    right = module.sq_label(k - i, lb)
                    rhs ^= ref_product_set(module, left, right)
                if lhs != frozenset(rhs):
                    failures.append(f"Sq^{k} of {la}*{lb} breaks multiplicativity")
    return ref_report("cartan", checked, skipped, failures)


def ref_adem(module, k_max):
    checked = skipped = 0
    failures = []
    for a in range(1, k_max + 1):
        for b in range(1, k_max + 1):
            if a >= 2 * b:
                continue
            js = [j for j in range(a // 2 + 1) if 0 <= a - 2 * j <= b - 1 - j
                  and math.comb(b - 1 - j, a - 2 * j) % 2]
            for label, d in module.labels():
                if d + a + b > module.deg_max:
                    skipped += 1
                    continue
                checked += 1
                lhs = ref_sq_set(module, a, module.sq_label(b, label))
                rhs = set()
                for j in js:
                    rhs ^= ref_sq_set(module, a + b - j, module.sq_label(j, label))
                if lhs != frozenset(rhs):
                    failures.append(f"Sq^{a} Sq^{b} on {label} breaks the rewrite rule")
    return ref_report("adem", checked, skipped, failures)


def ref_module_iso(mod_a, mod_b, dictionary, k_max):
    checked = skipped = 0
    failures = []
    deg_a, deg_b = dict(mod_a.labels()), dict(mod_b.labels())
    if set(dictionary) != set(deg_a):
        failures.append("dictionary does not cover the source basis exactly")
    values = [v for k, v in dictionary.items() if k in deg_a]
    if len(set(values)) != len(values) or set(values) != set(deg_b):
        failures.append("dictionary is not a bijection onto the target basis")
    for label in sorted(set(deg_a) & set(dictionary)):
        image = dictionary[label]
        if image in deg_b and deg_b[image] != deg_a[label]:
            failures.append(f"{label} -> {image} changes degree")
    if failures:
        return ref_report("module_iso", checked, skipped, failures)
    horizon = min(mod_a.deg_max, mod_b.deg_max)
    for label, d in mod_a.labels():
        for k in range(1, k_max + 1):
            if d + k > horizon:
                skipped += 1
                continue
            checked += 1
            through = frozenset(dictionary[t] for t in mod_a.sq_label(k, label))
            if through != mod_b.sq_label(k, dictionary[label]):
                failures.append(f"Sq^{k} does not commute with the dictionary on {label}")
    return ref_report("module_iso", checked, skipped, failures)


def test_checkers_equal_the_label_set_reference_on_every_space():
    deg_max, k_max = 60, 12
    for name in sorted(SPACES):
        sp = SPACES[name]
        loop = loop_module(sp.n, sp.r, deg_max, 2 * k_max, sq_one=sp.odd_op)
        model = model_module_f2(sp, deg_max, 2 * k_max)
        for module, fast, slow in (
            (loop, check_instability, ref_instability),
            (loop, check_cartan, ref_cartan),
            (loop, check_adem, ref_adem),
            (model, check_instability, ref_instability),
            (model, check_adem, ref_adem),
        ):
            report = fast(module, k_max)
            assert report == slow(module, k_max), (name, report["check"])
            assert report["checked"] > 0, (name, report["check"])
        dictionary = loop_dictionary(sp, deg_max)
        report = module_iso(model, loop, dictionary, k_max)
        assert report == ref_module_iso(model, loop, dictionary, k_max), name
        assert report["pass"] and report["checked"] > 0, name


def rebuilt(module, flip=None, drop=None):
    """module again, from sq_label and its product rule, with one change.

    flip = (k, label, target) toggles target in Sq^k label; drop = (la, lb)
    makes that ordered product zero.
    """
    def rule(label):
        for k in range(1, module.k_store + 1):
            value = set(module.sq_label(k, label) or ())
            if flip is not None and (k, label) == flip[:2]:
                value ^= {flip[2]}
            yield from ((k, t) for t in value)

    def product(la, lb):
        return [] if (la, lb) == drop else module.product(la, lb)

    return FiniteAModule(module.deg_max, module.labels(), rule, module.k_store, product=product)


def test_checkers_equal_the_reference_on_broken_modules():
    sp = SPACES["cp2"]
    loop = loop_module(sp.n, sp.r, 30, 8, sq_one=sp.odd_op)
    assert loop.sq_label(2, "1") == frozenset()
    assert list(loop.product("1", "b0")) == ["b0"]
    broken = [
        (rebuilt(loop, flip=(2, "1", "b0")), (ref_instability, ref_cartan, ref_adem)),
        (rebuilt(loop, drop=("1", "b0")), (ref_cartan,)),
    ]
    for module, must_fail in broken:
        for fast, slow in (
            (check_instability, ref_instability),
            (check_cartan, ref_cartan),
            (check_adem, ref_adem),
        ):
            report = fast(module, 4)
            assert report == slow(module, 4), report["check"]
            if slow in must_fail:
                assert report["failures"], report["check"]


def test_cartan_break_fails_at_every_k_of_one_pair():
    # x^3 * x^4 = x^7 has every Sq^k x^7 (k <= 7) nonzero, so dropping that
    # product breaks each k up to the top one the window allows.
    module = rebuilt(truncated_polynomial(16, 14, 8), drop=("x3", "x4"))
    report = check_cartan(module, 8)
    assert report == ref_cartan(module, 8)
    pair = [f for f in report["failures"] if " of x3*x4 " in f]
    assert pair == [f"Sq^{k} of x3*x4 breaks multiplicativity" for k in range(1, 8)]


def test_adem_break_in_a_shared_composite_fails_every_pair_using_it():
    # Sq^7 Sq^1 on x1 is a rewrite term of Sq^2 Sq^6, Sq^3 Sq^5 and Sq^4 Sq^4;
    # a wrong Sq^7 x2 breaks all three, and the bare Sq^7 x2 terms as well.
    module = rebuilt(truncated_polynomial(16, 15, 12), flip=(7, "x2", "x9"))
    report = check_adem(module, 6)
    assert report == ref_adem(module, 6)
    on_x1 = [f for f in report["failures"] if f.endswith(" on x1 breaks the rewrite rule")]
    assert [f.split(" on ")[0] for f in on_x1] == ["Sq^2 Sq^6", "Sq^3 Sq^5", "Sq^4 Sq^4"]
    assert any(f.endswith(" on x2 breaks the rewrite rule") for f in report["failures"])


def test_both_modules_pass_at_degree_320_and_sq_64():
    started = time.perf_counter()
    for name in sorted(SPACES):
        sp = SPACES[name]
        loop = loop_module(sp.n, sp.r, 320, 128, sq_one=sp.odd_op)
        model = model_module_f2(sp, 320, 128)
        for module, checker in (
            (loop, check_instability),
            (loop, check_cartan),
            (loop, check_adem),
            (model, check_instability),
            (model, check_adem),
        ):
            report = checker(module, 64)
            assert report["pass"], (name, report["check"], report["failures"][:3])
            assert report["checked"] > 0, (name, report["check"])
    assert time.perf_counter() - started < 60


def test_loop_module_axioms_hold_at_degree_160_and_sq_32():
    started = time.perf_counter()
    for name in sorted(SPACES):
        sp = SPACES[name]
        module = loop_module(sp.n, sp.r, 160, 64, sq_one=sp.odd_op)
        for report in (
            check_instability(module, 32),
            check_cartan(module, 32),
            check_adem(module, 32),
        ):
            assert report["pass"], (name, report["check"], report["failures"][:3])
            assert report["checked"] > 0, (name, report["check"])
    assert time.perf_counter() - started < 60
