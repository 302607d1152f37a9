"""Finite windows of modules over the mod 2 squaring operations.

Labels are numbered once, in degree order up to a cutoff, and every
value is a Python int used as a bit vector over that index, so the
checkers only XOR rows.  A value beyond the cutoff is not stored; the
drop is counted, and every checker reports how many instances it skipped
for that reason.  The checkers know nothing about where a module came
from, which lets one of them compare two modules built from entirely
different descriptions.  The Cartan check runs over unordered pairs of
labels, so it assumes a commutative product.
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
    """
    if module.product is None:
        raise ValueError("the multiplicativity check needs a product")
    if k_max > module.k_store:
        raise ValueError(f"operations were only stored up to {module.k_store}")
    deg, sq, mul, name = module.deg, module.sq, module.mul, module.label
    # Per label, its nonzero values (i, bits of Sq^i) for i <= k_max.
    parts = [
        [(i, _bits(row)) for i in range(k_max + 1) if (row := sq[i][x])]
        for x in range(len(deg))
    ]
    checked = skipped = 0
    failures = []
    for a, da in enumerate(deg):
        for b in range(a, len(deg)):
            top = min(k_max, module.deg_max - da - deg[b])
            if top <= 0:
                # Degrees only grow along b, so the rest fall off as well.
                skipped += k_max * (len(deg) - b)
                break
            checked += top
            skipped += k_max - top
            rhs = [0] * (top + 1)
            for i, left in parts[a]:
                for j, right in parts[b]:
                    if i + j > top:
                        break
                    for p in left:
                        for q in right:
                            rhs[i + j] ^= mul(p, q)
            ab = mul(a, b)
            for k in range(1, top + 1):
                if _apply(sq[k], ab) != rhs[k]:
                    failures.append(f"Sq^{k} of {name[a]}*{name[b]} breaks multiplicativity")
    return _report("cartan", checked, skipped, failures)


def check_adem(module: FiniteAModule, k_max: int) -> dict:
    """Inadmissible composites rewrite as their standard sums.

    Runs over a < 2b with both indices at most k_max, which needs the
    module to have stored operations up to 2 * k_max.
    """
    if 2 * k_max > module.k_store:
        raise ValueError("composites need operations stored up to twice the bound")
    sq = module.sq
    checked = skipped = 0
    failures = []
    for a in range(1, k_max + 1):
        for b in range(1, k_max + 1):
            if a >= 2 * b:
                continue
            js = [j for j in range(a // 2 + 1) if _binom_odd(b - 1 - j, a - 2 * j)]
            # Labels are in degree order, so the checkable ones come first.
            inside = bisect_right(module.deg, module.deg_max - a - b)
            checked += inside
            skipped += len(module.deg) - inside
            for x in range(inside):
                lhs = _apply(sq[a], sq[b][x])
                rhs = 0
                for j in js:
                    rhs ^= _apply(sq[a + b - j], sq[j][x])
                if lhs != rhs:
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
