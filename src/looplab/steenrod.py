"""Finite windows of modules over the mod 2 squaring operations.

Labels are numbered once, in degree order up to a cutoff, and every
value is a Python int used as a bit vector over that index, so the
checkers only XOR rows.  A module asks its rule once per label for the
nonzero operations on it and keeps only the nonzero rows, whatever
their k: sq[k] is {label index: row}.  Whether Sq^k of a label lies
beyond the cutoff is read from the degrees; such a value is not stored,
the drop is counted, and every checker reports how many instances it
skipped for that reason.  A product is asked of its rule the same way,
once per label for every nonzero product with a partner, and kept as
that label's row {partner: value}.  The checkers know nothing about
where a module came from, which lets one of them compare two modules
built from entirely different descriptions.  The Cartan check runs over
unordered pairs of labels, so it assumes a commutative product.

The two composite checkers compare whole values at once.  Every label
has one degree and Sq^k raises it by k, so the terms of one identity at
different k never share a label: the Cartan check compares each pair's
total squares in one int and reads the failing k off the degrees of the
differing labels.  It only forms the pairs with a nonzero side, from
the product rows, and counts the rest, which compare 0 with 0.  The
Adem check builds each composite Sq^c Sq^j once per call as a sparse
{label: value} dict, because many pairs share the same rewrite terms.

Every checker walks only the live operations: the keys of sq, the Sq^k
with a nonzero row inside the window.  An operation with no nonzero row
counts as verified zero on every label, and its instances are counted
from the degrees, not compared.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate
from typing import Callable, Iterable, Optional

__all__ = [
    "FiniteAModule",
    "check_instability",
    "check_cartan",
    "check_adem",
    "module_iso",
]

# label -> the (k, target label) summands of its nonzero Sq^k, k >= 1
SqRule = Callable[[str], Iterable[tuple[int, str]]]
# label -> the (partner, target label) summands of its nonzero products label * partner
ProductRule = Callable[[str], Iterable[tuple[str, str]]]


def _binom_odd(top: int, bottom: int) -> bool:
    """Whether a binomial coefficient is odd, by digit containment."""
    return 0 <= bottom <= top and bottom & top == bottom


def _bits(vec: int) -> list[int]:
    """Positions of the set bits of vec, lowest first."""
    out = []
    while vec:
        low = vec & -vec
        out.append(low.bit_length() - 1)
        vec ^= low
    return out


def _live(sq: dict[int, dict[int, int]], top: int) -> list[int]:
    """The k in 1..top with a nonzero row, ascending."""
    return [k for k in sq if 0 < k <= top]


def _apply(rows: dict[int, int], vec: int) -> int:
    """Linear extension of rows: the XOR of the rows picked by vec, a missing row 0."""
    out = 0
    while vec:
        low = vec & -vec
        out ^= rows.get(low.bit_length() - 1, 0)
        vec ^= low
    return out


class FiniteAModule:
    """Labelled basis in degree order with its nonzero squaring rows.

    elements gives (label, degree) pairs with globally unique labels.
    sq_rule(label) yields the (k, target) summands of every nonzero
    Sq^k label with k >= 1; a target listed twice cancels.  sq[k] is
    {i: row of Sq^k on label i} over the labels where that row is
    nonzero, in label order, with the keys k ascending and sq[0] the
    identity; whatever k the rule names, every value inside the window
    is kept.  A value of degree beyond deg_max is never looked up: each
    (k, label) that has one counts once in self.skipped.  Inside the
    window every target must be a label of the right degree.  The
    optional product(label) yields the (partner, target) summands of
    every nonzero label * partner; the partner must be a label, a
    summand listed twice cancels, and a product beyond deg_max is
    dropped, uncounted.

    >>> def rule(label):  # Sq^k x^j = binom(j, k) x^(j + k), and x^8 = 0
    ...     j = int(label[1:])
    ...     return [(k, f"x{j + k}") for k in range(1, 8 - j) if j & k == k]
    >>> def product(label):  # x^j x^i = x^(j + i)
    ...     j = int(label[1:])
    ...     return [(f"x{i}", f"x{j + i}") for i in range(8 - j)]
    >>> mod = FiniteAModule(5, [(f"x{j}", j) for j in range(6)], rule, product)
    >>> mod.sq_label(1, "x3"), mod.sq_label(1, "x2"), mod.sq_label(2, "x4")
    (frozenset({'x4'}), frozenset(), None)
    >>> mod.sq[2]  # Sq^2 x^2 = x^4 and Sq^2 x^3 = x^5; Sq^2 x^4 is not stored
    {2: 16, 3: 32}
    >>> mod.skipped  # Sq^3 x^3 and Sq^1 x^5 are x^6, beyond the window
    2
    >>> sorted(mod.products_of(2)) == [0, 1, 2, 3] and mod.mul(2, 3) == 1 << 5
    True
    """

    def __init__(
        self,
        deg_max: int,
        elements: Iterable[tuple[str, int]],
        sq_rule: SqRule,
        product: Optional[ProductRule] = None,
    ) -> None:
        self.deg_max = deg_max
        self.product = product
        degree: dict[str, int] = {}
        for label, d in elements:
            if label in degree:
                raise ValueError(f"duplicate label {label!r}")
            if d > deg_max:
                raise ValueError(f"{label!r} enumerated beyond the cutoff")
            degree[label] = d
        self.label = sorted(degree, key=degree.__getitem__)
        self.deg = deg = [degree[label] for label in self.label]
        self.index = index = {label: i for i, label in enumerate(self.label)}
        size = len(deg)
        self._products: list[Optional[dict[int, int]]] = [None] * size
        rows: dict[int, dict[int, int]] = {}
        dropped = set()
        for i, (label, d) in enumerate(zip(self.label, deg)):
            for k, target in sq_rule(label):
                if k <= 0:
                    raise ValueError(f"Sq^{k} {label}: operations start at k = 1")
                if d + k > deg_max:
                    dropped.add((k, i))
                    continue
                j = index.get(target)
                if j is None or deg[j] != d + k:
                    raise ValueError(
                        f"Sq^{k} {label} hit {target!r}, not a label of degree {d + k}"
                    )
                row = rows.setdefault(k, {})
                row[i] = row.get(i, 0) ^ (1 << j)
        self.skipped = len(dropped)
        self.sq = {0: {i: 1 << i for i in range(size)}}
        for k in sorted(rows):
            if nonzero := {i: row for i, row in rows[k].items() if row}:
                self.sq[k] = nonzero

    def products_of(self, i: int) -> dict[int, int]:
        """Nonzero rows {j: label i times label j} inside the window, from the rule on first use."""
        row = self._products[i]
        if row is None:
            if self.product is None:
                raise ValueError("module has no product")
            label, index, deg = self.label[i], self.index, self.deg
            room = self.deg_max - deg[i]
            row = {}
            for partner, target in self.product(label):
                j = index.get(partner)
                if j is None:
                    raise ValueError(f"{label}*{partner}: {partner!r} is not a label")
                if deg[j] > room:
                    continue
                d = deg[i] + deg[j]
                t = index.get(target)
                if t is None or deg[t] != d:
                    raise ValueError(f"{label}*{partner} hit {target!r}, not a label of degree {d}")
                row[j] = row.get(j, 0) ^ (1 << t)
            row = self._products[i] = {j: value for j, value in row.items() if value}
        return row

    def mul(self, i: int, j: int) -> int:
        """Row of label i times label j; 0 beyond deg_max."""
        return self.products_of(i).get(j, 0)

    def labels(self) -> list[tuple[str, int]]:
        return list(zip(self.label, self.deg))

    def dims(self) -> dict[int, int]:
        return dict(Counter(self.deg))

    def sq_label(self, k: int, label: str) -> Optional[frozenset[str]]:
        """Value of the k-th operation on a basis label as a label set.

        None when the value lies beyond the cutoff, read from the degrees;
        frozenset() for a zero row inside it; k = 0 is the identity.
        """
        if k < 0:
            raise ValueError(f"Sq^{k}: operations start at k = 0")
        i = self.index[label]
        if self.deg[i] + k > self.deg_max:
            return None
        return frozenset(self.label[t] for t in _bits(self.sq.get(k, {}).get(i, 0)))


def _report(name: str, checked: int, skipped: int, failures: list[str]) -> dict:
    return {
        "check": name,
        "pass": not failures,
        "checked": checked,
        "skipped": skipped,
        "failures": failures,
    }


def _refuse_vacuous(k_max: int) -> None:
    if k_max < 1:
        raise ValueError(f"operations start at Sq^1, so k_max = {k_max} checks nothing")


def check_instability(module: FiniteAModule, k_max: int) -> dict:
    """Operations above the degree vanish; the top one squares.

    The squaring half only runs when the module carries a product.
    Only the live Sq^k, the stored nonzero rows, are compared with zero
    above the degree; a dead one is zero on every label, and both counts,
    like the window, come from the degrees.
    """
    _refuse_vacuous(k_max)
    sq, deg_max = module.sq, module.deg_max
    live = _live(sq, k_max)
    checked = skipped = 0
    failures = []
    for x, (label, d) in enumerate(module.labels()):
        # Sq^k for d < k <= k_max lies inside the window exactly when d + k <= deg_max.
        inside = max(0, min(k_max, deg_max - d) - d)
        checked += inside
        skipped += max(0, k_max - d) - inside
        for k in live:
            if k > d and x in sq[k]:
                failures.append(f"Sq^{k} {label} is nonzero above the degree")
        if module.product is not None and 1 <= d <= k_max:
            if 2 * d > deg_max:
                skipped += 1
            else:
                checked += 1
                if sq.get(d, {}).get(x, 0) != module.mul(x, x):
                    failures.append(f"Sq^{d} {label} is not the square")
    return _report("instability", checked, skipped, failures)


def check_cartan(module: FiniteAModule, k_max: int) -> dict:
    """The operations are multiplicative in the convolution sense.

    Over unordered pairs a, b: Sq^k(ab) = sum over i + j = k of (Sq^i a)(Sq^j b).
    A pair is checked for k up to top = min(k_max, deg_max - deg a - deg b).
    Each label's total square T(x) = Sq^0 x + ... + Sq^k_max x is formed
    once, and each pair makes one comparison: T applied to ab against
    the sum of the products pq over p in T(a), q in T(b), both masked to
    labels of degree deg a + deg b + top or less.  Every label has one
    degree, and Sq^k(ab) and all (Sq^i a)(Sq^j b) with i + j = k lie in
    degree deg a + deg b + k, so the two sides agree exactly when every
    k <= top does; the degrees of the differing labels name the failing k.

    The sides are built one a at a time and only where they can be
    nonzero: the left at the partners b of a's product row, the right by
    walking the product row of each p in T(a) and crediting pq to every
    b whose total square holds q.  Every other pair compares 0 with 0,
    so it is counted, from the degrees alone, and not formed.

    Only the stored nonzero rows enter the total squares: a missing row
    is zero, and every pair is counted from the degrees.

    A failure line quotes both labels, so it names one pair even when
    the labels themselves hold "*".
    """
    if module.product is None:
        raise ValueError("the multiplicativity check needs a product")
    _refuse_vacuous(k_max)
    deg, sq, products_of, name = module.deg, module.sq, module.products_of, module.label
    size, deg_max = len(deg), module.deg_max
    total = dict(sq[0])
    for k in _live(sq, k_max):
        for x, row in sq[k].items():
            total[x] ^= row
    # holders[q]: the labels whose total square holds q, in label order.
    holders: list[list[int]] = [[] for _ in range(size)]
    for b, row in total.items():
        for q in _bits(row):
            holders[q].append(b)
    below = [0, *accumulate(deg)]  # below[i] = deg[0] + ... + deg[i - 1]
    checked = 0
    failures = []
    for a, da in enumerate(deg):
        # Pairs (a, b) with b < end have top >= 1; those with b < full have top = k_max.
        room = deg_max - da
        end = bisect_left(deg, room)
        if end <= a:
            break  # degrees only grow, so every later a has nothing to check either
        full = max(a, min(end, bisect_right(deg, room - k_max)))
        checked += k_max * (full - a) + room * (end - full) - (below[end] - below[full])
        lhs = {b: _apply(total, ab) for b, ab in products_of(a).items() if a <= b < end}
        rhs: dict[int, int] = {}
        for p in _bits(total[a]):
            for q, pq in products_of(p).items():
                for b in holders[q]:
                    if a <= b < end:
                        rhs[b] = rhs.get(b, 0) ^ pq
        for b in sorted(lhs.keys() | rhs.keys()):
            base = da + deg[b]
            limit = base + min(k_max, deg_max - base)
            diff = (lhs.get(b, 0) ^ rhs.get(b, 0)) & ((1 << bisect_right(deg, limit)) - 1)
            if diff:
                for k in sorted({deg[y] - base for y in _bits(diff)}):
                    failures.append(f"Sq^{k} of {name[a]!r}*{name[b]!r} breaks multiplicativity")
    skipped = k_max * size * (size + 1) // 2 - checked
    return _report("cartan", checked, skipped, failures)


def check_adem(module: FiniteAModule, k_max: int) -> dict:
    """Inadmissible composites rewrite as their standard sums.

    Runs over a < 2b with both indices at most k_max, but visits only
    the pairs with a + b <= deg_max - deg x for the lowest label x; every
    other instance lies beyond the window, and those are counted in
    closed form.  A composite Sq^c Sq^j is a dict {x: row} over the
    nonzero values on the labels with deg x <= deg_max - c - j, so it
    depends on (c, j) alone and is built once per call; each pair
    compares the composite Sq^a Sq^b with the XOR merge of its rewrite
    terms, zero values dropped.  Sq^c Sq^j is zero unless c is live and
    j is 0 or live, so only those composites are built, Sq^c Sq^0
    straight from the rows of Sq^c; a pair's labels are counted from the
    degrees whether or not any of its terms is live.
    """
    _refuse_vacuous(k_max)
    deg, sq = module.deg, module.sq
    composites: dict[tuple[int, int], dict[int, int]] = {}

    def composite(c: int, j: int) -> dict[int, int]:
        """Sq^c Sq^j for a live c and a j that is 0 or live."""
        out = composites.get((c, j))
        if out is None:
            inside = bisect_right(deg, module.deg_max - c - j)
            if j == 0:  # Sq^c Sq^0 is Sq^c, read straight off its nonzero rows
                out = {x: row for x, row in sq[c].items() if x < inside}
            else:
                out = {}
                for x, row in sq[j].items():
                    if x >= inside:
                        break
                    if value := _apply(sq[c], row):
                        out[x] = value
            composites[(c, j)] = out
        return out

    checked = 0
    failures = []
    room = module.deg_max - deg[0] if deg else -1
    for a in range(1, min(k_max, room) + 1):
        for b in range(a // 2 + 1, min(k_max, room - a) + 1):
            # Labels are in degree order, so the checkable ones come first.
            checked += bisect_right(deg, module.deg_max - a - b)
            rhs: dict[int, int] = {}
            for j in sq:  # 0, then the live k ascending
                if j > a // 2:
                    break
                if a + b - j not in sq or not _binom_odd(b - 1 - j, a - 2 * j):
                    continue
                for x, value in composite(a + b - j, j).items():
                    if value := rhs.get(x, 0) ^ value:
                        rhs[x] = value
                    else:
                        del rhs[x]
            lhs = composite(a, b) if a in sq and b in sq else {}
            if lhs != rhs:
                for x in sorted(lhs.keys() | rhs.keys()):
                    if lhs.get(x) != rhs.get(x):
                        failures.append(f"Sq^{a} Sq^{b} on {module.label[x]} breaks the rewrite rule")
    # Pairs a < 2b with 1 <= a, b <= k_max: k_max^2 less floor(a / 2) summed over a.
    pairs = k_max * k_max - (k_max // 2) * ((k_max + 1) // 2)
    return _report("adem", checked, len(deg) * pairs - checked, failures)


def module_iso(
    mod_a: FiniteAModule,
    mod_b: FiniteAModule,
    dictionary: dict[str, str],
    k_max: int,
) -> dict:
    """Degree preserving bijection commuting with the operations.

    The dictionary must cover the first module exactly and hit the
    second exactly once each; the operation squares are then compared
    through it, counting windows that fall off either cutoff, read from
    the degrees.  Only the Sq^k live in either module are compared, a
    missing row as zero; one dead in both is zero on both sides of every label.
    """
    _refuse_vacuous(k_max)
    checked = skipped = 0
    failures = []
    a_labels, b_labels = set(mod_a.index), set(mod_b.index)
    if set(dictionary) != a_labels:
        failures.append("dictionary does not cover the source basis exactly")
    values = [v for k, v in dictionary.items() if k in a_labels]
    if len(set(values)) != len(values) or set(values) != b_labels:
        failures.append("dictionary is not a bijection onto the target basis")
    for label in sorted(a_labels & set(dictionary)):
        image, da = dictionary[label], mod_a.deg[mod_a.index[label]]
        if image in mod_b.index and mod_b.deg[mod_b.index[image]] != da:
            failures.append(f"{label} -> {image} changes degree")
    if failures:
        return _report("module_iso", checked, skipped, failures)
    horizon = min(mod_a.deg_max, mod_b.deg_max)
    target = [mod_b.index[dictionary[label]] for label in mod_a.label]
    through = {x: 1 << t for x, t in enumerate(target)}
    live = sorted({*_live(mod_a.sq, k_max), *_live(mod_b.sq, k_max)})
    for x, (label, d) in enumerate(mod_a.labels()):
        top = max(0, min(k_max, horizon - d))
        checked += top
        skipped += k_max - top
        for k in live:
            if k > top:
                break
            rows_a, rows_b = mod_a.sq.get(k, {}), mod_b.sq.get(k, {})
            if _apply(through, rows_a.get(x, 0)) != rows_b.get(target[x], 0):
                failures.append(f"Sq^{k} does not commute with the dictionary on {label}")
    return _report("module_iso", checked, skipped, failures)
