"""Shared helpers for the test suite."""

import argparse
import itertools
import operator

from looplab import closedform, homology, thom
from looplab.algebra import Form, GradingSpec, Mono, _exponents
from looplab.gf2 import apply_row, rank, rref
from looplab.simplicial import mono_face, mono_is_degenerate, mono_normalize
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


# The tagged forward elimination and the span solver that gf2 carried
# until the class route read its kernels and coordinates off one rref,
# kept as reference tools for the normalized route and the span checks.
def left_kernel(rows):
    """Basis of the vectors c with c M = 0, i.e. the dependencies among the rows.

    Forward elimination on lowest bits, with a tag on every row recording
    which input rows were XORed into it; a row that reduces to zero leaves
    its tag as a dependency.  The dependency found at row i has i as its
    highest bit, so the dependencies are independent, and there are
    len(rows) - rank(rows) of them.
    """
    pivots = {}
    deps = []
    for i, row in enumerate(rows):
        tag = 1 << i
        while row:
            low = (row & -row).bit_length()
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = (row, tag)
                break
            row ^= pivot[0]
            tag ^= pivot[1]
        if not row:
            deps.append(tag)
    return deps


def solve_in_span(basis, target):
    """Coefficients expressing target in the given spanning set, or None.

    The result is a 0/1 list aligned with basis order; XORing the chosen
    rows reproduces target exactly.  Dependent spanning sets are fine,
    one valid certificate is returned.  Target is appended as the last
    row: it lies in the span exactly when it reduces to zero, which
    leaves a last dependency with bit len(basis) set.
    """
    deps = left_kernel([*basis, target])
    if not deps or not deps[-1] >> len(basis) & 1:
        return None
    return [deps[-1] >> i & 1 for i in range(len(basis))]


# The whole-slice enumeration that the x-free generators replaced in the
# library, kept as the reference slice basis of the tests.
def monomial_basis(q, spec, t):
    """All level q monomials of internal degree t, sorted.

    Finite because every generator has positive degree.
    """
    n, m = spec.n, spec.m
    y_deg = (n + 1) * m
    out = []
    for dx in (0, 1):
        for dy_mask in range(1 << q):
            dy = tuple(dy_mask >> j & 1 for j in range(q))
            rest = t - (m - 1) * dx - (y_deg - 1) * sum(dy)
            # y_deg is a multiple of m, so the x exponent is whole for
            # every y or for none.
            if rest < 0 or rest % m:
                continue
            for y in _exponents(q, rest // y_deg):
                out.append(Mono((rest - y_deg * sum(y)) // m, dx, y, dy))
    out.sort()
    return out


# The N sampler's rows as homology._pipeline built them over the whole
# slice basis, kept as the reference its rows over the normalized terms
# are checked against.
def reference_normalized_rows(spec, q, t):
    """The (q, t) slice basis and the rref of the normalized nondegenerate monomials on it."""
    basis = tuple(monomial_basis(q, spec, t))
    index = {mono: k for k, mono in enumerate(basis)}
    vecs = [
        sum(1 << index[term] for term in mono_normalize(spec.n, mono).terms)
        for mono in basis
        if not mono_is_degenerate(mono)
    ]
    return basis, tuple(rref(vecs)[0])


# The per-block enumerator that the x-free generators replaced, kept as
# the reference those are checked against and as the blocks of the block
# route and of the class route below.
def reference_nondegenerate_basis(q, spec, t, w):
    """Choose the w - dx dy slots, fill the rest with y_j = 1, spread the rest."""
    n, m = spec.n, spec.m
    y_deg = (n + 1) * m
    out = []
    for dx in (0, 1):
        ones = w - dx
        rest = t - (m - 1) * dx - (y_deg - 1) * ones - y_deg * (q - ones)
        if not 0 <= ones <= q or rest < 0 or rest % m:
            continue
        extras = [
            (y, (rest - y_deg * sum(y)) // m) for y in _exponents(q, rest // y_deg)
        ]
        for at in itertools.combinations(range(q), ones):
            dy = tuple(1 if j in at else 0 for j in range(q))
            floor = tuple(1 - d for d in dy)
            for y, x in extras:
                out.append(Mono(x, dx, tuple(map(operator.add, floor, y)), dy))
    return out


# The block route that homology.homology_dim's barcode replaced, kept as
# the reference the barcode is checked against: a dimension is a count of
# nondegenerate monomials minus two boundary ranks, each taken one w block
# at a time and kept under a key of the block's y budgets, since x carries
# every block of one key onto the others, differential rows included.
def block_keys(spec, q, t):
    """The (w, key) of every (q, t) block of C/D that can be nonempty.

    rest = t + w - (n+1)m q is the y degree a block leaves to x and the
    extra y exponents, rest - m its dx = 1 half's; both halves are empty
    unless m divides rest and rest >= 0.  The key is (n % 2, q, w, and the
    leftover y budgets of the halves), which fixes the block's slot
    patterns and so its differential rows.
    """
    n, m = spec.n, spec.m
    y_deg = (n + 1) * m
    for w in range(-t % m, q + 2, m):
        rest = t + w - y_deg * q
        if rest >= 0:
            yield w, (n % 2, q, w, rest // y_deg, (rest - m) // y_deg)


# The C/D differential rows that homology._face_row replaced, which look
# each face image up as a whole monomial among the targets.
def differential_rows(n, sources, targets):
    """Bit rows of the sum of the faces below the top one, sources to targets."""
    index = {mono: k for k, mono in enumerate(targets)}
    rows = []
    for mono in sources:
        row = 0
        for i in range(mono.level):
            img = mono_face(n, i, mono)
            if img is not None:
                row ^= 1 << index[img]
        rows.append(row)
    return rows


# The class route as it was before it read its blocks off the generators
# and its representatives off one tagged rref, kept as the reference the
# class route is checked against: per-block bases, whole-monomial
# differential rows, and the dependencies among the free rows.
def reference_classes(spec, q, t, w):
    """Basis, boundaries and canonical representatives of the (q, t, w) block of C/D."""
    basis = tuple(sorted(reference_nondegenerate_basis(q, spec, t, w)))
    down = sorted(reference_nondegenerate_basis(q - 1, spec, t, w))
    up = sorted(reference_nondegenerate_basis(q + 1, spec, t, w))
    rows = differential_rows(spec.n, basis, down)
    bounds, pivot_cols = rref(differential_rows(spec.n, up, basis))
    if any(apply_row(b, rows) for b in bounds):
        raise ValueError("a boundary is not a cycle: the face tables break d∘d = 0")
    free = sorted(set(range(len(basis))).difference(pivot_cols))
    units = [1 << k for k in free]
    reps = [apply_row(dep, units) for dep in left_kernel([rows[k] for k in free])]
    return basis, tuple(bounds), tuple(rref(reps)[0])


# (size, rank) of every block reference_quotient_level has ranked, by key.
_block_ranks = {}


def reference_quotient_level(spec, q, t):
    """Nondegenerate monomial count at (q, t) and the rank of the differential out."""
    chains = boundary = 0
    for w, key in block_keys(spec, q, t):
        block = _block_ranks.get(key)
        if block is None:
            sources = reference_nondegenerate_basis(q, spec, t, w)
            down = reference_nondegenerate_basis(q - 1, spec, t, w)
            block = _block_ranks[key] = (
                len(sources),
                rank(differential_rows(spec.n, sources, down)),
            )
        chains += block[0]
        boundary += block[1]
    return chains, boundary


def reference_homology_dim(spec, q, t):
    """Dimension of the (q, t) homology of C/D from the block ranks."""
    chains, boundary_out = reference_quotient_level(spec, q, t)
    return chains - boundary_out - reference_quotient_level(spec, q + 1, t)[1]


# The Koszul recount before homology.koszul_dim read its levels through a
# cache, kept as the reference it is checked against: three bases and two
# ranks per call.
def reference_koszul_dim(spec, q, t):
    """Oracle homology dimension at homological degree q, degree t."""
    basis_q = homology._koszul_basis(spec, q, t)
    if not basis_q:
        return 0
    down = homology._koszul_basis(spec, q - 1, t) if q else []
    cycles = len(basis_q) - rank(homology._koszul_rows(spec, basis_q, down))
    up = homology._koszul_basis(spec, q + 1, t)
    return cycles - rank(homology._koszul_rows(spec, up, basis_q))


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
# builder returns the dense layout (label, deg, sq, skipped) that
# FiniteAModule once stored; dense_rows expands a module into it.  The
# loop reference asks its own per-k rule, the one closedform's per-key
# walks replaced, about every k up to k_store.
def dense_rows(module, k_store):
    """module's (label, deg, sq, skipped) with sq[k][i] for every k <= k_store.

    A row is 0 where the module stores none inside the window and None
    where Sq^k of the label lies beyond deg_max.
    """
    sq = [
        [module.sq.get(k, {}).get(i, 0) if d + k <= module.deg_max else None
         for i, d in enumerate(module.deg)]
        for k in range(k_store + 1)
    ]
    return module.label, module.deg, sq, module.skipped


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
