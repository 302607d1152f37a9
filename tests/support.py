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
# builder returns the stored layout (label, deg, sq, skipped).
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


def reference_loop_rows(n, m, deg_max, k_store, sq_one=False):
    """closedform.loop_module's rows, one rule call per (k, label)."""
    spec = GradingSpec(n, m)
    label, key_degree, square = (
        (closedform.odd_label, closedform.odd_key_degree, closedform._odd_square)
        if n % 2
        else (closedform.even_label, closedform.even_key_degree, closedform._even_square)
    )
    elements = []
    for q in range(deg_max // ((n + 1) * m - 2) + 1):
        for key in closedform.level_keys(spec, q):
            total = key_degree(spec, key) - q
            if total <= deg_max:
                elements.append((key, total))
    key_of = {label(key): (key, total) for key, total in elements}

    def rule(k, name):
        if k % m and k > 1:
            return []
        key, total = key_of[name]
        out = square(n, m, k, key, sq_one)
        return [] if out is None else [(label(out), total + k)]

    labelled = [(label(key), total) for key, total in elements]
    return reference_rows(deg_max, labelled, rule, k_store)


def reference_model_rows(sp, deg_max, k_store):
    """thom.model_module_f2's rows, one rule call per (k, label)."""
    n, r = sp.n, sp.r
    cells = {}
    for family, level, j, d in thom._wedge_cells(sp, deg_max):
        if family == "x":
            top, cap = j, n
        else:
            top = level * (n + 1) + j + (family == "b")
            cap = n - 1 if family in ("a", "b") else n
        cells[thom._cell_label(family, level, j)] = (family, level, j, d, top, cap)

    def rule(k, label):
        family, level, j, d, top, cap = cells[label]
        if k % r == 0:
            i = k // r
            if i + j <= cap and closedform.lucas(top, i):
                return [(thom._cell_label(family, level, i + j), d + k)]
        elif k == 1 and family == "d" and j == 0 and sp.odd_op:
            return [(thom._cell_label("c", level - 1, n), d + 1)]
        return []

    elements = [(label, cell[3]) for label, cell in cells.items()]
    return reference_rows(deg_max, elements, rule, k_store)
