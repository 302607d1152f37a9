"""Finite windows of modules over the mod 2 squaring operations.

Labels are numbered once, in degree order up to a cutoff, and every
value is a Python int used as a bit vector over that index, so the
checkers only XOR rows.  A value beyond the cutoff is not stored; the
drop is counted, and every checker reports how many instances it skipped
for that reason.  The checkers know nothing about where a module came
from, which lets one of them compare two modules built from entirely
different descriptions.  The Cartan check runs over unordered pairs of
labels, so it assumes a commutative product.

The two composite checkers compare whole values at once.  Every label
has one degree and Sq^k raises it by k, so the terms of one identity at
different k never share a label: the Cartan check compares each pair's
total squares in one int and reads the failing k off the degrees of the
differing labels.  The Adem check builds each composite Sq^c Sq^j once
per call as a sparse {label: value} dict, because many pairs share the
same rewrite terms.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Callable, Iterable, Optional, Sequence

__all__ = [
    "FiniteAModule",
    "check_instability",
    "check_cartan",
    "check_adem",
    "module_iso",
]

SqRule = Callable[[int, str], Iterable[tuple[str, int]]]
ProductRule = Callable[[str, str], Iterable[str]]


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


def _apply(rows: Sequence[Optional[int]], vec: int) -> int:
    """Linear extension of rows: the XOR of the rows picked by vec."""
    out = 0
    while vec:
        low = vec & -vec
        out ^= rows[low.bit_length() - 1]
        vec ^= low
    return out


class FiniteAModule:
    """Labelled basis in degree order with stored squaring rows.

    elements gives (label, degree) pairs with globally unique labels;
    sq_rule(k, label) yields the (label, degree) summands of the k-th
    operation: sq[k][i] is its row on label i for k <= k_store, None
    beyond deg_max (such drops count in self.skipped).  The optional
    product maps two labels to the labels of their product.
    """

    def __init__(
        self,
        deg_max: int,
        elements: Iterable[tuple[str, int]],
        sq_rule: SqRule,
        k_store: int,
        product: Optional[ProductRule] = None,
    ) -> None:
        self.deg_max = deg_max
        self.k_store = k_store
        self.product = product
        degree: dict[str, int] = {}
        for label, d in elements:
            if label in degree:
                raise ValueError(f"duplicate label {label!r}")
            if d > deg_max:
                raise ValueError(f"{label!r} enumerated beyond the cutoff")
            degree[label] = d
        self.label = sorted(degree, key=degree.__getitem__)
        self.deg = [degree[label] for label in self.label]
        self.index = {label: i for i, label in enumerate(self.label)}
        self._products: dict[tuple[int, int], int] = {}
        self.sq: list[list[Optional[int]]] = [[1 << i for i in range(len(self.label))]]
        self.skipped = 0
        for k in range(1, k_store + 1):
            rows: list[Optional[int]] = []
            for label, d in zip(self.label, self.deg):
                targets = []
                for tgt, td in sq_rule(k, label):
                    if td != d + k:
                        raise ValueError(f"Sq^{k} {label} emitted degree {td}")
                    targets.append(tgt)
                if d + k > deg_max:
                    self.skipped += bool(targets)
                    rows.append(None)
                else:
                    rows.append(self._encode(targets, d + k, f"Sq^{k} {label}"))
            self.sq.append(rows)

    def _encode(self, labels: Iterable[str], d: int, what: str) -> int:
        vec = 0
        for label in labels:
            i = self.index.get(label)
            if i is None or self.deg[i] != d:
                raise ValueError(f"{what} hit {label!r}, not a label of degree {d}")
            vec ^= 1 << i
        return vec

    def mul(self, i: int, j: int) -> int:
        """Row of label i times label j, from the rule on first use; 0 beyond deg_max."""
        row = self._products.get((i, j))
        if row is None:
            if self.product is None:
                raise ValueError("module has no product")
            d, la, lb = self.deg[i] + self.deg[j], self.label[i], self.label[j]
            row = self._encode(self.product(la, lb), d, f"{la}*{lb}") if d <= self.deg_max else 0
            self._products[(i, j)] = row
        return row

    def labels(self) -> list[tuple[str, int]]:
        return list(zip(self.label, self.deg))

    def dims(self) -> dict[int, int]:
        return dict(Counter(self.deg))

    def sq_label(self, k: int, label: str) -> Optional[frozenset[str]]:
        """Value of the k-th operation on a basis label as a label set.

        None when the value lies beyond the cutoff; k = 0 is the identity.
        """
        if not 0 <= k <= self.k_store:
            raise ValueError(f"operations were only stored up to {self.k_store}")
        row = self.sq[k][self.index[label]]
        return None if row is None else frozenset(self.label[i] for i in _bits(row))


def _report(name: str, checked: int, skipped: int, failures: list[str]) -> dict:
    return {
        "check": name,
        "pass": not failures,
        "checked": checked,
        "skipped": skipped,
        "failures": failures,
    }


def check_instability(module: FiniteAModule, k_max: int) -> dict:
    """Operations above the degree vanish; the top one squares.

    The squaring half only runs when the module carries a product.
    """
    if k_max > module.k_store:
        raise ValueError(f"operations were only stored up to {module.k_store}")
    checked = skipped = 0
    failures = []
    for x, (label, d) in enumerate(module.labels()):
        wants = [(k, 0, "is nonzero above the degree") for k in range(d + 1, k_max + 1)]
        if module.product is not None and 1 <= d <= k_max:
            wants.append((d, module.mul(x, x), "is not the square"))
        for k, want, broken in wants:
            value = module.sq[k][x]
            if value is None:
                skipped += 1
            else:
                checked += 1
                if value != want:
                    failures.append(f"Sq^{k} {label} {broken}")
    return _report("instability", checked, skipped, failures)


def check_cartan(module: FiniteAModule, k_max: int) -> dict:
    """The operations are multiplicative in the convolution sense.

    Over unordered pairs a, b: Sq^k(ab) = sum over i + j = k of (Sq^i a)(Sq^j b).
    A pair is checked for k up to top = min(k_max, deg_max - deg a - deg b).
    Each label's total square T(x) = Sq^0 x + ... + Sq^k_max x is formed
    once, and each pair makes one comparison: T applied to ab against
    the sum of the products pq over p in T(a), q in T(b) with
    deg p + deg q <= deg a + deg b + top, both masked to labels of that
    degree or less.  Every label has one degree, and Sq^k(ab) and all
    (Sq^i a)(Sq^j b) with i + j = k lie in degree deg a + deg b + k, so
    the two sides agree exactly when every k <= top does; the degrees of
    the differing labels name the failing k.
    """
    if module.product is None:
        raise ValueError("the multiplicativity check needs a product")
    if k_max > module.k_store:
        raise ValueError(f"operations were only stored up to {module.k_store}")
    deg, sq, mul, name = module.deg, module.sq, module.mul, module.label
    total = [0] * len(deg)
    for x in range(len(deg)):
        for i in range(k_max + 1):
            total[x] ^= sq[i][x] or 0
    # Per label, the bits of its total square with their degrees, lowest first.
    parts = [[(p, deg[p]) for p in _bits(row)] for row in total]
    checked = skipped = 0
    failures = []
    for a, da in enumerate(deg):
        for b in range(a, len(deg)):
            base = da + deg[b]
            top = min(k_max, module.deg_max - base)
            if top <= 0:
                # Degrees only grow along b, so the rest fall off as well.
                skipped += k_max * (len(deg) - b)
                break
            checked += top
            skipped += k_max - top
            limit = base + top
            rhs = 0
            for q, dq in parts[b]:
                if dq + da > limit:
                    break
                for p, dp in parts[a]:
                    if dp + dq > limit:
                        break
                    rhs ^= mul(p, q)
            diff = (_apply(total, mul(a, b)) ^ rhs) & ((1 << bisect_right(deg, limit)) - 1)
            if diff:
                for k in sorted({deg[y] - base for y in _bits(diff)}):
                    failures.append(f"Sq^{k} of {name[a]}*{name[b]} breaks multiplicativity")
    return _report("cartan", checked, skipped, failures)


def check_adem(module: FiniteAModule, k_max: int) -> dict:
    """Inadmissible composites rewrite as their standard sums.

    Runs over a < 2b with both indices at most k_max, which needs the
    module to have stored operations up to 2 * k_max.  A composite
    Sq^c Sq^j is a dict {x: row} over the nonzero values on the labels
    with deg x <= deg_max - c - j, so it depends on (c, j) alone and is
    built once per call; each pair compares the composite Sq^a Sq^b with
    the XOR merge of its rewrite terms, zero values dropped.
    """
    if 2 * k_max > module.k_store:
        raise ValueError("composites need operations stored up to twice the bound")
    deg, sq = module.deg, module.sq
    # Per operation, its nonzero rows (x, row) in label order.
    nonzero: dict[int, list[tuple[int, int]]] = {}
    composites: dict[tuple[int, int], dict[int, int]] = {}

    def composite(c: int, j: int) -> dict[int, int]:
        out = composites.get((c, j))
        if out is None:
            if j not in nonzero:
                nonzero[j] = [(x, row) for x, row in enumerate(sq[j]) if row]
            inside = bisect_right(deg, module.deg_max - c - j)
            out = {}
            for x, row in nonzero[j]:
                if x >= inside:
                    break
                if value := _apply(sq[c], row):
                    out[x] = value
            composites[(c, j)] = out
        return out

    checked = skipped = 0
    failures = []
    for a in range(1, k_max + 1):
        for b in range(1, k_max + 1):
            if a >= 2 * b:
                continue
            js = [j for j in range(a // 2 + 1) if _binom_odd(b - 1 - j, a - 2 * j)]
            # Labels are in degree order, so the checkable ones come first.
            inside = bisect_right(deg, module.deg_max - a - b)
            checked += inside
            skipped += len(deg) - inside
            rhs: dict[int, int] = {}
            for j in js:
                for x, value in composite(a + b - j, j).items():
                    if value := rhs.get(x, 0) ^ value:
                        rhs[x] = value
                    else:
                        del rhs[x]
            lhs = composite(a, b)
            if lhs != rhs:
                for x in sorted(lhs.keys() | rhs.keys()):
                    if lhs.get(x) != rhs.get(x):
                        failures.append(f"Sq^{a} Sq^{b} on {module.label[x]} breaks the rewrite rule")
    return _report("adem", checked, skipped, failures)


def module_iso(
    mod_a: FiniteAModule,
    mod_b: FiniteAModule,
    dictionary: dict[str, str],
    k_max: int,
) -> dict:
    """Degree preserving bijection commuting with the operations.

    The dictionary must cover the first module exactly and hit the
    second exactly once each; the operation squares are then compared
    through it, counting windows that fall off either cutoff.
    """
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
    if k_max > min(mod_a.k_store, mod_b.k_store):
        raise ValueError("operations were not stored far enough on both sides")
    horizon = min(mod_a.deg_max, mod_b.deg_max)
    target = [mod_b.index[dictionary[label]] for label in mod_a.label]
    through = [1 << i for i in target]
    for x, (label, d) in enumerate(mod_a.labels()):
        top = max(0, min(k_max, horizon - d))
        checked += top
        skipped += k_max - top
        for k in range(1, top + 1):
            if _apply(through, mod_a.sq[k][x]) != mod_b.sq[k][target[x]]:
                failures.append(f"Sq^{k} does not commute with the dictionary on {label}")
    return _report("module_iso", checked, skipped, failures)
