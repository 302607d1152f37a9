"""Generic operation-module machinery, exercised on known small modules."""

import math
import random
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
from support import (
    dense_rows,
    reference_loop_product,
    reference_loop_rows,
    reference_model_rows,
    reference_mul,
)


def truncated_polynomial(top: int, deg_max: int, stem: str = "x"):
    """Truncated polynomial algebra on a degree one class, full action."""
    size = min(top, deg_max + 1)
    elements = [(f"{stem}{j}", j) for j in range(size)]

    def rule(label):
        j = int(label[len(stem):])
        return [(k, f"{stem}{j + k}") for k in range(1, top - j) if math.comb(j, k) % 2]

    def product(label):
        j = int(label[len(stem):])
        return [(f"{stem}{i}", f"{stem}{j + i}") for i in range(min(size, top - j))]

    return FiniteAModule(deg_max, elements, rule, product=product)


def test_truncated_polynomial_passes_all_checks():
    mod = truncated_polynomial(8, 7)
    for report in (
        check_instability(mod, 4),
        check_cartan(mod, 4),
        check_adem(mod, 4),
    ):
        assert report["pass"], report
        assert report["checked"] > 0
        assert report["failures"] == []


def test_skip_accounting_is_visible():
    mod = truncated_polynomial(8, 4)
    assert mod.skipped > 0
    report = check_adem(mod, 4)
    assert report["pass"]
    assert report["skipped"] > 0
    assert mod.sq_label(2, "x3") is None


def test_instability_negative_control():
    def rule(label):
        return [(2, "y")] if label == "x" else []

    mod = FiniteAModule(5, [("x", 1), ("y", 3)], rule)
    report = check_instability(mod, 4)
    assert not report["pass"]
    assert any("Sq^2 x" in f for f in report["failures"])


def test_instability_checks_the_top_square():
    def rule(label):
        return []

    def product(label):
        return [("z1", "z2")] if label == "z1" else []

    mod = FiniteAModule(4, [("z1", 1), ("z2", 2)], rule, product=product)
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

    def product(label):
        j = int(label[1])
        return [(f"x{i}", f"x{j + i}") for i in range(4 - j)]

    mod = FiniteAModule(3, [(f"x{j}", j) for j in range(4)], rule, product=product)
    report = check_cartan(mod, 2)
    assert not report["pass"]


def test_cartan_requires_a_product():
    mod = FiniteAModule(3, [("x", 1)], lambda label: [])
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

    mod = FiniteAModule(7, [("u", 5), ("v", 6), ("w", 7)], rule)
    assert check_instability(mod, 2)["pass"]
    report = check_adem(mod, 2)
    assert not report["pass"]
    assert any("Sq^1 Sq^1" in f for f in report["failures"])


def test_module_iso_accepts_a_relabelling():
    a = truncated_polynomial(6, 5)
    b = truncated_polynomial(6, 5, stem="y")
    dictionary = {f"x{j}": f"y{j}" for j in range(6)}
    report = module_iso(a, b, dictionary, 3)
    assert report["pass"], report
    assert report["checked"] > 0


def test_module_iso_rejects_an_action_mismatch():
    a = truncated_polynomial(4, 3)
    elements = [(f"y{j}", j) for j in range(4)]
    b = FiniteAModule(3, elements, lambda label: [])
    report = module_iso(a, b, {f"x{j}": f"y{j}" for j in range(4)}, 3)
    assert not report["pass"]
    assert any("commute" in f for f in report["failures"])


def test_module_iso_rejects_a_degree_shift():
    a = truncated_polynomial(3, 2)
    b = FiniteAModule(2, [("y0", 0), ("y1", 2), ("y2", 1)], lambda l: [])
    report = module_iso(a, b, {"x0": "y0", "x1": "y1", "x2": "y2"}, 2)
    assert not report["pass"]


def test_module_iso_rejects_a_non_bijection():
    a = truncated_polynomial(3, 2)
    b = truncated_polynomial(3, 2, stem="y")
    report = module_iso(a, b, {"x0": "y0", "x1": "y1", "x2": "y1"}, 2)
    assert not report["pass"]
    report = module_iso(a, b, {"x0": "y0", "x1": "y1"}, 2)
    assert not report["pass"]


def test_skipped_counts_the_nonzero_values_beyond_the_cutoff():
    mod = truncated_polynomial(8, 4)
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

    a = FiniteAModule(2, [("p", 1), ("q", 1), ("r", 2), ("s", 2)], rule)
    b = FiniteAModule(2, [("P", 1), ("Q", 1), ("R", 2), ("S", 2)], rule)
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
        FiniteAModule(3, [("x", 1), ("x", 2)], lambda l: [])
    with pytest.raises(ValueError):
        FiniteAModule(3, [("x", 5)], lambda l: [])
    with pytest.raises(ValueError):
        FiniteAModule(3, [("x", 1)], lambda l: [(1, "ghost")])
    with pytest.raises(ValueError):
        FiniteAModule(3, [("x", 1), ("y", 3)], lambda l: [(1, "y")])


@pytest.mark.parametrize("k", [0, -1])
def test_operations_below_one_are_refused(k):
    with pytest.raises(ValueError, match="start at k = 1"):
        FiniteAModule(3, [("x", 1), ("y", 1)], lambda l: [(k, "y")])


def test_every_operation_inside_the_window_is_stored_whatever_its_k():
    # Sq^3 x = y lies inside the window and is kept; Sq^5 x lies beyond it,
    # so "ghost", no label at all, is counted and never looked up.
    rule = {"x": [(3, "y"), (5, "ghost")], "y": []}
    mod = FiniteAModule(4, [("x", 1), ("y", 4)], rule.__getitem__)
    assert mod.sq_label(3, "x") == {"y"}
    assert mod.skipped == 1
    assert mod.sq == {0: {0: 1, 1: 2}, 3: {0: 2}}


def test_an_unknown_value_beyond_the_window_is_counted_not_looked_up():
    # Two summands of one Sq^k count once, as one value beyond the window.
    rule = {"x": [(1, "x2"), (3, "ghost"), (3, "ghost2")], "x2": [(2, "ghost")]}
    mod = FiniteAModule(3, [("x", 1), ("x2", 2)], rule.__getitem__)
    assert mod.skipped == 2
    assert mod.sq_label(1, "x") == frozenset({"x2"})
    assert mod.sq_label(3, "x") is None and mod.sq_label(2, "x2") is None


def test_a_target_of_the_wrong_degree_inside_the_window_is_refused():
    with pytest.raises(ValueError, match=r"Sq\^1 x hit 'z', not a label of degree 2"):
        FiniteAModule(4, [("x", 1), ("y", 2), ("z", 3)], lambda l: [(1, "z")] if l == "x" else [])


def test_sq_label_contract():
    mod = truncated_polynomial(8, 7)
    assert mod.sq_label(0, "x3") == frozenset({"x3"})
    assert mod.sq_label(1, "x3") == frozenset({"x4"})
    assert mod.sq_label(1, "x2") == frozenset()
    assert mod.sq_label(2, "x2") == frozenset({"x4"})
    assert mod.sq_label(4, "x6") is None
    # Sq^3 x3 = x6 is the highest operation inside the window; Sq^5 x1 is zero.
    assert max(mod.sq) == 3 and mod.sq_label(5, "x1") == frozenset()
    with pytest.raises(ValueError):
        mod.sq_label(-1, "x1")


@pytest.mark.parametrize("k_max", [0, -2])
def test_checkers_refuse_a_bound_below_one(k_max):
    # A bound below Sq^1 checks nothing; it must not read as a pass.
    loop = loop_module(2, 2, 30, sq_one=False)
    for checker in (check_instability, check_cartan, check_adem):
        with pytest.raises(ValueError, match="checks nothing"):
            checker(loop, k_max)
    model = model_module_f2(SPACES["cp2"], 30)
    with pytest.raises(ValueError, match="checks nothing"):
        module_iso(model, loop, loop_dictionary(SPACES["cp2"], 30), k_max)


def test_product_to_an_unknown_label_is_rejected():
    def ghost(label):
        return [("x", "ghost"), ("y", "ghost")]

    mod = FiniteAModule(4, [("x", 1), ("y", 2)], lambda l: [], product=ghost)
    with pytest.raises(ValueError):
        check_cartan(mod, 2)
    with pytest.raises(ValueError):
        check_instability(mod, 2)


def test_product_of_the_wrong_degree_is_rejected():
    def product(label):
        return [("x", "y"), ("y", "y")]

    mod = FiniteAModule(4, [("x", 1), ("y", 2)], lambda l: [], product=product)
    with pytest.raises(ValueError, match=r"x\*y hit 'y', not a label of degree 3"):
        check_cartan(mod, 2)


def test_product_with_an_unknown_partner_is_rejected():
    def product(label):
        return [("ghost", "y")] if label == "x" else []

    mod = FiniteAModule(4, [("x", 1), ("y", 2)], lambda l: [], product=product)
    with pytest.raises(ValueError, match="'ghost' is not a label"):
        mod.mul(0, 0)
    with pytest.raises(ValueError, match="'ghost' is not a label"):
        check_cartan(mod, 2)


def test_a_product_summand_listed_twice_cancels():
    # x * x lists y twice and z once; x * y lists w twice, so it is zero.
    summands = {"x": [("x", "y"), ("x", "z"), ("x", "y"), ("y", "w"), ("y", "w")]}
    elements = [("x", 1), ("y", 2), ("z", 2), ("w", 3)]
    mod = FiniteAModule(4, elements, lambda l: [], product=lambda l: summands.get(l, []))
    x, y, z = (mod.index[label] for label in "xyz")
    assert mod.products_of(x) == {x: 1 << z}
    assert mod.mul(x, y) == 0


def test_a_product_beyond_the_window_is_dropped_unread():
    # y * y lies in degree 6; its target is never looked up.
    mod = FiniteAModule(3, [("x", 1), ("y", 3)], lambda l: [],
                        product=lambda l: [("y", "ghost")] if l == "y" else [])
    assert mod.products_of(1) == {} and mod.mul(1, 1) == 0
    assert check_cartan(mod, 2)["pass"]


def test_products_beyond_the_cutoff_are_dropped():
    # The rule names x5 and x6, which lie past the window; they are not errors.
    mod = truncated_polynomial(8, 4)
    for report in (check_instability(mod, 4), check_cartan(mod, 4)):
        assert report["pass"], report
        assert report["skipped"] > 0


def test_modules_equal_the_per_pair_reference_on_the_full_grid():
    # Both builders against the construction that asked the rule once per
    # (k, label), with the odd switch as shipped and flipped.  Each k_store
    # lies past every operation the rules name, so the reference's skipped
    # counts every value the module drops.
    skipped = 0
    for deg_max, k_store in ((320, 128), (120, 40), (30, 30)):
        for name in sorted(SPACES):
            sp = SPACES[name]
            for odd_op in (sp.odd_op, not sp.odd_op):
                built = (
                    loop_module(sp.n, sp.r, deg_max, sq_one=odd_op),
                    model_module_f2(sp._replace(odd_op=odd_op), deg_max),
                )
                want = (
                    reference_loop_rows(sp.n, sp.r, deg_max, k_store, sq_one=odd_op),
                    reference_model_rows(sp._replace(odd_op=odd_op), deg_max, k_store),
                )
                for module, rows in zip(built, want):
                    assert dense_rows(module, k_store) == rows, (name, deg_max, k_store, odd_op)
                    skipped += module.skipped
    assert skipped > 0


def test_loop_modules_equal_the_per_pair_reference_off_the_shipped_list():
    # Every (n, m) with n <= 5 and m <= 5, so n = 5 and odd m with n >= 2,
    # which no shipped space reaches, are covered with both odd switches.
    nonzero = 0
    for n in range(1, 6):
        for m in range(2, 6):
            for sq_one in (False, True):
                for deg_max, k_store in ((120, 25), (30, 30)):
                    module = loop_module(n, m, deg_max, sq_one=sq_one)
                    want = reference_loop_rows(n, m, deg_max, k_store, sq_one)
                    assert dense_rows(module, k_store) == want, (n, m, sq_one, deg_max, k_store)
                    nonzero += sum(len(rows) for k, rows in module.sq.items() if k)
    assert nonzero > 0


def test_loop_products_equal_the_per_pair_reference_on_every_ordered_pair():
    # The per-label walk over Lucas-compatible levels against the per-pair
    # rule it replaced: all 13 spaces with both odd switches at degree 120
    # and 30, and every (n, m) with n <= 5 and m <= 5 at degree 120.
    cases = [
        (sp.n, sp.r, deg_max, odd_op)
        for deg_max in (120, 30)
        for sp in SPACES.values()
        for odd_op in (sp.odd_op, not sp.odd_op)
    ]
    cases += [(n, m, 120, False) for n in range(1, 6) for m in range(2, 6)]
    nonzero = 0
    for n, m, deg_max, sq_one in cases:
        module = loop_module(n, m, deg_max, sq_one=sq_one)
        product = reference_loop_product(n, m, deg_max)
        size = len(module.label)
        for i in range(size):
            got = [module.mul(i, j) for j in range(size)]
            assert got == [reference_mul(module, product, i, j) for j in range(size)], (
                n, m, deg_max, module.label[i])
            nonzero += sum(map(bool, got))
    assert nonzero > 0


# Reference checkers: the label-set implementation that the bit-vector
# checkers replaced.  They read a module only through labels(), sq_label
# and its product rule, so they share no arithmetic with the checkers.


def ref_summands(module):
    """The product rule's summands as {label: {partner: [targets]}}."""
    table = {}
    for label, _ in module.labels():
        row = table[label] = {}
        for partner, out in module.product(label):
            row.setdefault(partner, []).append(out)
    return table


def ref_product_set(summands, a, b):
    acc = set()
    for la in a:
        for lb in b:
            for out in summands[la].get(lb, ()):
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
    summands = ref_summands(module) if module.product is not None else None
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
                if value != ref_product_set(summands, [label], [label]):
                    failures.append(f"Sq^{d} {label} is not the square")
    return ref_report("instability", checked, skipped, failures)


def ref_cartan(module, k_max):
    summands = ref_summands(module)
    labels = module.labels()
    checked = skipped = 0
    failures = []
    for ia, (la, da) in enumerate(labels):
        for lb, db in labels[ia:]:
            ab = ref_product_set(summands, [la], [lb])
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
                    rhs ^= ref_product_set(summands, left, right)
                if lhs != frozenset(rhs):
                    failures.append(f"Sq^{k} of {la!r}*{lb!r} breaks multiplicativity")
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
        loop = loop_module(sp.n, sp.r, deg_max, sq_one=sp.odd_op)
        model = model_module_f2(sp, deg_max)
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


def test_adem_equals_the_reference_when_k_max_runs_past_the_window():
    # Every pair with a + b beyond deg_max - deg x skips x; the pairs the
    # window holds are checked exactly as with a bound inside it.  An odd
    # k_max has one pair fewer per a than floor(k_max / 2)^2 would count.
    sp2, hp2 = SPACES["cp2"], SPACES["hp2"]
    cases = [
        (truncated_polynomial(32, 20), 30),
        (truncated_polynomial(32, 20), 31),
        (loop_module(sp2.n, sp2.r, 40, sq_one=sp2.odd_op), 50),
        (loop_module(hp2.n, hp2.r, 40, sq_one=hp2.odd_op), 50),
    ]
    for module, k_max in cases:
        for fast, slow in ((check_adem, ref_adem), (check_instability, ref_instability)):
            report = fast(module, k_max)
            assert report == slow(module, k_max), report["check"]
            assert report["pass"] and report["checked"] > 0 and report["skipped"] > 0
        inside = check_adem(module, module.deg_max)
        assert check_adem(module, k_max)["checked"] == inside["checked"]


def rebuilt(module, flip=None, drop=None):
    """module again, from sq_label and its product rule, with one change.

    flip = (k, label, target) toggles target in Sq^k label; drop = (la, lb)
    makes that ordered product zero.
    """
    def rule(label):
        out = {(k, t) for k in module.sq if k for t in module.sq_label(k, label) or ()}
        if flip is not None and label == flip[1]:
            out ^= {(flip[0], flip[2])}
        return out

    def product(label):
        return [(p, t) for p, t in module.product(label) if (label, p) != drop]

    return FiniteAModule(module.deg_max, module.labels(), rule, product=product)


def test_checkers_equal_the_reference_on_broken_modules():
    sp = SPACES["cp2"]
    loop = loop_module(sp.n, sp.r, 30, sq_one=sp.odd_op)
    assert loop.sq_label(2, "1") == frozenset()
    assert [t for p, t in loop.product("1") if p == "x"] == ["x"]
    broken = [
        (rebuilt(loop, flip=(2, "1", "x")), (ref_instability, ref_cartan, ref_adem)),
        (rebuilt(loop, drop=("1", "x")), (ref_cartan,)),
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
    module = rebuilt(truncated_polynomial(16, 14), drop=("x3", "x4"))
    report = check_cartan(module, 8)
    assert report == ref_cartan(module, 8)
    pair = [f for f in report["failures"] if " of 'x3'*'x4' " in f]
    assert pair == [f"Sq^{k} of 'x3'*'x4' breaks multiplicativity" for k in range(1, 8)]


def test_cartan_catches_a_dropped_product_in_the_other_order():
    # Only x4 * x3 goes; the checked pair (x3, x4) still multiplies as x3 * x4,
    # but the right side of (x2, x3) and (x3, x3) takes Sq^2 x2 = Sq^1 x3 = x4
    # times x3, so those pairs fail.
    module = rebuilt(truncated_polynomial(16, 14), drop=("x4", "x3"))
    assert module.mul(module.index["x4"], module.index["x3"]) == 0
    assert module.mul(module.index["x3"], module.index["x4"]) == 1 << module.index["x7"]
    report = check_cartan(module, 8)
    assert report == ref_cartan(module, 8)
    pairs = {f.split(" of ")[1].split(" breaks")[0] for f in report["failures"]}
    assert pairs == {"'x2'*'x3'", "'x3'*'x3'"}


def _cartan_line(la, lb):
    """check_cartan's one failure line on a module where only la * lb breaks.

    la * lb = t but Sq^1 la = Sq^1 lb = 0, while Sq^1 t = u.
    """
    labels = [(la, 1)] + ([(lb, 1)] if lb != la else []) + [("t", 2), ("u", 3)]
    module = FiniteAModule(
        3, labels, lambda l: [(1, "u")] if l == "t" else [],
        product=lambda l: [(lb, "t")] if l == la else [],
    )
    [line] = check_cartan(module, 1)["failures"]
    return line


def test_cartan_failure_lines_name_each_pair_once():
    # Odd labels and even labels both hold "*": unquoted, (x, dx*g2) and
    # (x*dx, g2) on (1, 2) would both print "of x*dx*g2".
    for n, m, sq_one in ((1, 2, True), (3, 2, True), (2, 2, False)):
        labels = [label for label, _ in loop_module(n, m, 30, sq_one=sq_one).labels()]
        lines = {_cartan_line(la, lb) for i, la in enumerate(labels) for lb in labels[i:]}
        assert len(lines) == len(labels) * (len(labels) + 1) // 2, (n, m)


def test_checkers_equal_the_reference_on_seeded_broken_modules():
    # Each loop module gets one random square flipped (to a label of the
    # right degree) and one random nonzero ordered product dropped.
    rng = random.Random(19)
    failing = 0
    for deg_max, k_max in ((30, 4), (40, 8), (60, 12)):
        for name in sorted(SPACES):
            sp = SPACES[name]
            loop = loop_module(sp.n, sp.r, deg_max, sq_one=sp.odd_op)
            labels = loop.labels()
            flips = [
                (k, label, target)
                for k in range(1, k_max + 1)
                for label, d in labels
                for target, e in labels
                if e == d + k
            ]
            drops = [
                (loop.label[i], loop.label[j])
                for i in range(len(labels))
                for j in loop.products_of(i)
            ]
            module = rebuilt(loop, flip=rng.choice(flips), drop=rng.choice(drops))
            for fast, slow in ((check_instability, ref_instability), (check_cartan, ref_cartan)):
                report = fast(module, k_max)
                assert report == slow(module, k_max), (name, deg_max, report["check"])
                failing += not report["pass"]
    assert failing >= 40


def test_adem_break_in_a_shared_composite_fails_every_pair_using_it():
    # Sq^7 Sq^1 on x1 is a rewrite term of Sq^2 Sq^6, Sq^3 Sq^5 and Sq^4 Sq^4;
    # a wrong Sq^7 x2 breaks all three, and the bare Sq^7 x2 terms as well.
    module = rebuilt(truncated_polynomial(16, 15), flip=(7, "x2", "x9"))
    report = check_adem(module, 6)
    assert report == ref_adem(module, 6)
    on_x1 = [f for f in report["failures"] if f.endswith(" on x1 breaks the rewrite rule")]
    assert [f.split(" on ")[0] for f in on_x1] == ["Sq^2 Sq^6", "Sq^3 Sq^5", "Sq^4 Sq^4"]
    assert any(f.endswith(" on x2 breaks the rewrite rule") for f in report["failures"])


def test_both_modules_pass_at_degree_320_and_sq_64():
    started = time.perf_counter()
    for name in sorted(SPACES):
        sp = SPACES[name]
        loop = loop_module(sp.n, sp.r, 320, sq_one=sp.odd_op)
        model = model_module_f2(sp, 320)
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
        module = loop_module(sp.n, sp.r, 160, sq_one=sp.odd_op)
        for report in (
            check_instability(module, 32),
            check_cartan(module, 32),
            check_adem(module, 32),
        ):
            assert report["pass"], (name, report["check"], report["failures"][:3])
            assert report["checked"] > 0, (name, report["check"])
    assert time.perf_counter() - started < 60


def test_loop_modules_pass_cartan_at_degree_640_and_sq_64():
    started = time.perf_counter()
    for name in sorted(SPACES):
        sp = SPACES[name]
        report = check_cartan(loop_module(sp.n, sp.r, 640, sq_one=sp.odd_op), 64)
        assert report["pass"], (name, report["failures"][:3])
        assert report["checked"] > 0, name
    # On cp4, x times x*g77 is x^2*g77 in degree 620, and 5 * 77 + 2 = 0b110000011
    # makes Sq^2 and Sq^4 of it nonzero; dropping that product breaks the
    # pair at those k and no other.
    sp = SPACES["cp4"]
    loop = loop_module(sp.n, sp.r, 640, sq_one=sp.odd_op)
    product = loop.index["x^2*g77"]
    assert loop.mul(loop.index["x"], loop.index["x*g77"]) == 1 << product
    top = min(64, 640 - loop.deg[product])
    allowed = [k for k in range(1, top + 1) if product in loop.sq.get(k, {})]
    assert allowed == [2, 4]
    report = check_cartan(rebuilt(loop, drop=("x", "x*g77")), 64)
    pair = [f for f in report["failures"] if " of 'x'*'x*g77' " in f]
    assert pair == [f"Sq^{k} of 'x'*'x*g77' breaks multiplicativity" for k in allowed]
    assert time.perf_counter() - started < 60


def test_adem_fails_exactly_where_sq_m_decomposes():
    # For n >= 2, x^2 != 0 forces Sq^m x = x^2.  When m is no power of two,
    # Sq^m is a sum of composites Sq^a Sq^b with 0 < a, b < m, which vanish
    # on x here, so the Adem check must fail; when m is a power of two,
    # Sq^m is indecomposable and every primary check passes.
    started = time.perf_counter()
    for n in range(1, 7):
        for m in range(2, 33):
            for sq_one in (False, True):
                module = loop_module(n, m, 6 * m * (n + 1), sq_one=sq_one)
                adem = check_adem(module, 2 * m)
                assert adem["pass"] == (n == 1 or m & (m - 1) == 0), (n, m, sq_one)
                others = check_instability(module, 2 * m), check_cartan(module, 2 * m)
                assert all(report["pass"] for report in others), (n, m, sq_one)
                assert all(report["checked"] > 0 for report in (adem, *others)), (n, m, sq_one)
    assert time.perf_counter() - started < 60


def _inert(extra=()):
    """Exterior algebra on y3 and y5, with no operation but the (k, label, target) in extra."""
    products = {
        "1": [("1", "1"), ("y3", "y3"), ("y5", "y5"), ("y8", "y8")],
        "y3": [("1", "y3"), ("y5", "y8")],
        "y5": [("1", "y5"), ("y3", "y8")],
        "y8": [("1", "y8")],
    }

    def rule(label):
        return [(k, target) for k, source, target in extra if source == label]

    labels = [("1", 0), ("y3", 3), ("y5", 5), ("y8", 8)]
    return FiniteAModule(10, labels, rule, product=products.__getitem__)


def test_checkers_equal_the_reference_when_every_operation_is_live_or_none_is():
    # Sq^1..Sq^7 all act on x^0..x^15; on the exterior algebra none does.
    full, inert = truncated_polynomial(16, 15), _inert()
    assert list(full.sq) == list(range(8)) and list(inert.sq) == [0]
    for module, k_max in ((full, 6), (inert, 4)):
        identity = {label: label for label, _ in module.labels()}
        for fast, slow in (
            (check_instability, ref_instability),
            (check_cartan, ref_cartan),
            (check_adem, ref_adem),
        ):
            report = fast(module, k_max)
            assert report == slow(module, k_max), report["check"]
            assert report["pass"] and report["checked"] > 0, report["check"]
        report = module_iso(module, module, identity, k_max)
        assert report == ref_module_iso(module, module, identity, k_max)
        assert report["pass"] and report["checked"] > 0
    # The bound itself is walked: a flipped Sq^6 x1 = x7 lies above the degree.
    broken = rebuilt(full, flip=(6, "x1", "x7"))
    report = check_instability(broken, 6)
    assert report == ref_instability(broken, 6)
    assert report["failures"] == ["Sq^6 x1 is nonzero above the degree"]
    # With no operation live, the square is still compared: y3^2 = y6 != Sq^3 y3.
    squares = FiniteAModule(
        6, [("y3", 3), ("y6", 6)], lambda label: [],
        product=lambda label: [("y3", "y6")] if label == "y3" else [],
    )
    report = check_instability(squares, 4)
    assert report == ref_instability(squares, 4)
    assert report["failures"] == ["Sq^3 y3 is not the square"]


def test_module_iso_sees_an_operation_live_on_one_side_only():
    inert, acting = _inert(), _inert([(3, "y5", "y8")])
    identity = {label: label for label, _ in inert.labels()}
    for mod_a, mod_b in ((inert, acting), (acting, inert)):
        report = module_iso(mod_a, mod_b, identity, 4)
        assert report == ref_module_iso(mod_a, mod_b, identity, 4)
        assert report["failures"] == ["Sq^3 does not commute with the dictionary on y5"]
