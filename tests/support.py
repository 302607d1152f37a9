"""Shared helpers for the test suite."""

import argparse

from looplab import closedform, thom
from looplab.algebra import Form, GradingSpec, Mono
from looplab.thom import space


def random_form(rng, level, n_terms=3, x_max=4, y_max=2):
    """A small random form, duplicates cancelling as they would in GF(2)."""
    monos = []
    for _ in range(n_terms):
        monos.append(
            Mono(
                rng.randrange(x_max),
                rng.randrange(2),
                tuple(rng.randrange(y_max) for _ in range(level)),
                tuple(rng.randrange(2) for _ in range(level)),
            )
        )
    return Form.from_monos(level, monos)


# The list-scan elimination that gf2.rref and homology._classes replaced,
# kept as the reference they are checked against.
def list_rref(rows):
    """Reduced row echelon form, each new row back-reducing the kept ones."""
    piv = []
    for row in rows:
        for c, r in piv:
            if row >> c & 1:
                row ^= r
        if row:
            c = (row & -row).bit_length() - 1
            for i, (pc, pr) in enumerate(piv):
                if pr >> c & 1:
                    piv[i] = (pc, pr ^ row)
            piv.append((c, row))
    piv.sort()
    return [r for _, r in piv], [c for c, _ in piv]


def quotient_reps(z_basis, b_basis):
    """Canonical representatives for span(z) modulo span(b).

    Raises ValueError unless span(b) lies inside span(z).  The
    representatives have no bit in a pivot column of b.
    """
    z_red, z_piv = list_rref(z_basis)
    b_red, b_piv = list_rref(b_basis)
    for b in b_red:
        for c, r in zip(z_piv, z_red):
            if b >> c & 1:
                b ^= r
        if b:
            raise ValueError("quotient by a subspace not contained in the ambient span")
    reduced = []
    for z in z_red:
        for c, r in zip(b_piv, b_red):
            if z >> c & 1:
                z ^= r
        if z:
            reduced.append(z)
    return list_rref(reduced)[0]


# The (w, p) bigrading that the word length w alone replaced, kept as the
# reference the w refinement is checked against.
def mono_bigrading(n, mono):
    """(word length, unweighted degree) pair; independent of m."""
    w = mono.dx + sum(mono.dy)
    p = 2 * mono.x + mono.dx + (2 * n + 2) * sum(mono.y) + (2 * n + 1) * sum(mono.dy)
    return w, p


# The argparse command line that cli.parse_args replaced, kept as the
# reference it is checked against.
def _exponent(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("the truncation exponent must be at least 1")
    return value


def _weight(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("the generator degree must be at least 2")
    return value


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _space_arg(text: str):
    try:
        return space(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
    parser.add_argument("--out", metavar="FILE", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="looplab",
        description="Cross checks for free loop space homology computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one verification suite")
    suites = verify.add_subparsers(dest="suite", required=True)

    main1 = suites.add_parser(
        "main1", help="closed form dimensions against two chain level computations"
    )
    main1.add_argument("--n", type=_exponent, required=True)
    main1.add_argument("--m", type=_weight, required=True)
    main1.add_argument("--max-level", type=_nonneg, default=3)
    main1.add_argument("--max-degree", type=_nonneg, default=None)
    _add_output_flags(main1)

    steenrod = suites.add_parser(
        "steenrod", help="operation axioms on both module descriptions of one space"
    )
    steenrod.add_argument("--space", type=_space_arg, required=True)
    steenrod.add_argument("--max-degree", type=_nonneg, default=80)
    steenrod.add_argument("--max-sq", type=_positive, default=16)
    _add_output_flags(steenrod)

    ez = suites.add_parser(
        "ez", help="seeded random trials of the chain level product identities"
    )
    ez.add_argument("--n", type=_exponent, required=True)
    ez.add_argument("--m", type=_weight, required=True)
    ez.add_argument("--max-level", type=_positive, default=3)
    ez.add_argument("--trials", type=_positive, default=200)
    ez.add_argument("--seed", type=_nonneg, default=0)
    _add_output_flags(ez)

    compare = sub.add_parser(
        "compare", help="wedge model against the loop side in one coefficient system"
    )
    compare.add_argument("--space", type=_space_arg, required=True)
    compare.add_argument("--coeff", choices=("f2", "z"), required=True)
    compare.add_argument("--max-degree", type=_nonneg, default=120)
    compare.add_argument("--max-sq", type=_positive, default=16)
    _add_output_flags(compare)

    return parser


# The per-(k, label) module construction that the per-label operation
# rules replaced, kept as the reference they are checked against.  Each
# builder returns the stored layout (label, deg, sq, skipped).  The loop
# reference asks its own per-k rule, the one closedform's per-key walks
# replaced, about every k up to k_store.
def reference_rows(deg_max, elements, sq_rule, k_store):
    """Stored rows from sq_rule(k, label), asked once for every pair.

    The rule yields the (label, degree) summands of Sq^k label.
    """
    degree = {}
    for label, d in elements:
        if label in degree:
            raise ValueError(f"duplicate label {label!r}")
        if d > deg_max:
            raise ValueError(f"{label!r} enumerated beyond the cutoff")
        degree[label] = d
    labels = sorted(degree, key=degree.__getitem__)
    degs = [degree[label] for label in labels]
    index = {label: i for i, label in enumerate(labels)}
    sq = [[1 << i for i in range(len(labels))]]
    skipped = 0
    for k in range(1, k_store + 1):
        rows = []
        for label, d in zip(labels, degs):
            targets = []
            for tgt, td in sq_rule(k, label):
                if td != d + k:
                    raise ValueError(f"Sq^{k} {label} emitted degree {td}")
                targets.append(tgt)
            if d + k > deg_max:
                skipped += bool(targets)
                rows.append(None)
                continue
            vec = 0
            for tgt in targets:
                i = index.get(tgt)
                if i is None or degs[i] != d + k:
                    raise ValueError(f"Sq^{k} {label} hit {tgt!r}, not a label of degree {d + k}")
                vec ^= 1 << i
            rows.append(vec)
        sq.append(rows)
    return labels, degs, sq, skipped


# The two-family label ring for even truncation that the one key family
# replaced, kept as the reference it is checked against.  ("one",) is the
# unit and (kind, j, q) with kind "a" or "b" stands for x^j times the
# level q exterior or polynomial class.  even_key translates an old key
# into the key (a, eps, q) it became; a reference label is the label of
# that key.
def even_key(old):
    if old == ("one",):
        return (0, 0, 0)
    kind, j, q = old
    return (j, 1, q) if kind == "a" else (j + 1, 0, q)


def even_level_keys(spec, q):
    keys = [("one",)] if q == 0 else []
    keys += [(kind, j, q) for j in range(spec.n) for kind in ("a", "b")]
    keys.sort(key=lambda k: even_key_degree(spec, k))
    return keys


def even_key_degree(spec, key):
    if key == ("one",):
        return 0
    kind, j, q = key
    base = spec.m - 1 if kind == "a" else spec.m
    return spec.m * j + base + q * ((spec.n + 1) * spec.m - 1)


def even_product(n, u, v):
    if u == ("one",):
        return v
    if v == ("one",):
        return u
    (k1, j1, q1), (k2, j2, q2) = u, v
    if k1 == "a" and k2 == "a":
        return None
    if not closedform.lucas(q1 + q2, q1):
        return None
    j = j1 + j2 + 1
    if j > n - 1:
        return None
    return ("b" if k1 == k2 else "a", j, q1 + q2)


def _odd_square(n, m, k, key, sq_one):
    """Sq^k of an odd key (a, eps, q), or None when it is zero."""
    a, eps, q = key
    if k % m == 0:
        i = k // m
        if a + i <= n and closedform.lucas(q * (n + 1) + a, i):
            return (a + i, eps, q)
    elif k == 1 and sq_one and q >= 1 and a == 0 and eps == 0:
        return (n, 1, q - 1)
    return None


def _even_square(n, m, k, key, sq_one):
    """Sq^k of an even key ("one",) or (kind, j, q), or None when it is zero."""
    if key == ("one",) or k % m:
        return None
    kind, j, q = key
    i = k // m
    top = q * (n + 1) + j + (0 if kind == "a" else 1)
    if j + i <= n - 1 and closedform.lucas(top, i):
        return (kind, j + i, q)
    return None


def _loop_window(n, m, deg_max):
    """The (key, total degree) pairs of closedform.loop_module's labels.

    For even n the keys are those of the two-family reference.
    """
    spec = GradingSpec(n, m)
    keys, degree = (
        (closedform.level_keys, closedform.key_degree)
        if n % 2
        else (even_level_keys, even_key_degree)
    )
    elements = []
    for q in range(deg_max // ((n + 1) * m - 2) + 1):
        for key in keys(spec, q):
            total = degree(spec, key) - q
            if total <= deg_max:
                elements.append((key, total))
    return elements


def _reference_label(n):
    """Label of a reference key, named as closedform names the key it became."""
    if n % 2:
        return closedform.key_label
    return lambda key: closedform.key_label(even_key(key))


def reference_loop_rows(n, m, deg_max, k_store, sq_one):
    """closedform.loop_module's rows, one rule call per (k, label)."""
    label = _reference_label(n)
    square = _odd_square if n % 2 else _even_square
    elements = _loop_window(n, m, deg_max)
    key_of = {label(key): (key, total) for key, total in elements}

    def rule(k, name):
        key, total = key_of[name]
        out = square(n, m, k, key, sq_one)
        return [] if out is None else [(label(out), total + k)]

    labelled = [(label(key), total) for key, total in elements]
    return reference_rows(deg_max, labelled, rule, k_store)


# The per-pair product that closedform.loop_module's per-label walk
# replaced, and the per-pair encoding FiniteAModule.mul had, kept as the
# reference the product rows are checked against.
def reference_loop_product(n, m, deg_max):
    """closedform.loop_module's product as a rule (la, lb) -> labels of la * lb."""
    label = _reference_label(n)
    times = closedform.key_product if n % 2 else even_product
    key_of = {label(key): key for key, _ in _loop_window(n, m, deg_max)}

    def product(la, lb):
        out = times(n, key_of[la], key_of[lb])
        return [] if out is None else [label(out)]

    return product


def reference_mul(module, product, i, j):
    """Row of label i times label j from product(la, lb); 0 beyond deg_max."""
    d = module.deg[i] + module.deg[j]
    if d > module.deg_max:
        return 0
    la, lb, vec = module.label[i], module.label[j], 0
    for out in product(la, lb):
        t = module.index.get(out)
        if t is None or module.deg[t] != d:
            raise ValueError(f"{la}*{lb} hit {out!r}, not a label of degree {d}")
        vec ^= 1 << t
    return vec


# The wedge cells that the pair rule replaced: for odd n the c and d
# families; for even n the a family a^0..a^(n-1) at level q and the b
# family b^0..b^(n-1) one level up, in the degrees of c^0..c^(n-1) and
# d^1..d^n.  A reference cell is named as the c or d cell it became.
def _reference_cells(sp, deg_max):
    """(family, level, j, degree) of every wedge cell inside the window."""
    n, r = sp.n, sp.r
    shift = (n + 1) * r - 2
    cells = [("x", 0, j, j * r) for j in range(n + 1)]
    q = 0
    while q * shift + r - 1 <= deg_max:
        if n % 2:
            for j in range(n + 1):
                cells.append(("c", q, j, q * shift + r - 1 + r * j))
                cells.append(("d", q + 1, j, (q + 1) * shift + r * j))
        else:
            for j in range(n):
                cells.append(("a", q, j, q * shift + r - 1 + r * j))
                cells.append(("b", q + 1, j, (q + 1) * shift + r + r * j))
        q += 1
    return [cell for cell in cells if cell[3] <= deg_max]


def _reference_cell_label(family, level, j):
    if family == "a":
        return thom._cell_label("c", level, j)
    if family == "b":
        return thom._cell_label("d", level, j + 1)
    return thom._cell_label(family, level, j)


def reference_model_rows(sp, deg_max, k_store):
    """thom.model_module_f2's rows, one rule call per (k, label)."""
    n, r = sp.n, sp.r
    cells = {}
    for family, level, j, d in _reference_cells(sp, deg_max):
        if family == "x":
            top, cap = j, n
        else:
            top = level * (n + 1) + j + (family == "b")
            cap = n - 1 if family in ("a", "b") else n
        cells[_reference_cell_label(family, level, j)] = (family, level, j, d, top, cap)

    def rule(k, label):
        family, level, j, d, top, cap = cells[label]
        if k % r == 0:
            i = k // r
            if i + j <= cap and closedform.lucas(top, i):
                return [(_reference_cell_label(family, level, i + j), d + k)]
        elif k == 1 and family == "d" and j == 0 and sp.odd_op:
            return [(thom._cell_label("c", level - 1, n), d + 1)]
        return []

    elements = [(label, cell[3]) for label, cell in cells.items()]
    return reference_rows(deg_max, elements, rule, k_store)
