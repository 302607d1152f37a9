"""The free graded-commutative algebra underlying one simplicial level.

Level q holds polynomial generators x, y_1 .. y_q together with their
exterior partners dx, dy_1 .. dy_q.  Everything is over GF(2): a form is
a finite set of monomials combined with XOR, graded commutativity needs
no signs, and every exterior generator squares to zero.  Degrees are
weighted by a grading spec (n, m); the polynomial ring itself is free,
truncation only ever appears in homology.

The nondegenerate monomials, on which homology works, are enumerated
once: as x^a times the x-free generators of nondegenerate_generators.
"""

from __future__ import annotations

import re
from functools import cache, partial
from itertools import combinations
from operator import add, and_, itemgetter, or_
from typing import Iterable, NamedTuple, Optional

__all__ = [
    "GradingSpec",
    "Mono",
    "new_mono",
    "Form",
    "mono_mul",
    "mono_degree",
    "mono_word_length",
    "mono_str",
    "parse_mono",
    "parse_form",
    "derham_d",
    "internal_degree",
    "word_length",
    "monomial_basis",
    "nondegenerate_basis",
    "nondegenerate_generators",
    "gen_x",
    "gen_dx",
    "gen_y",
    "gen_dy",
]


class _GradingFields(NamedTuple):
    n: int
    m: int


class GradingSpec(_GradingFields):
    """Degree weights: |x| = m and |y_j| = (n+1)m, with n >= 1, m >= 2."""

    __slots__ = ()

    def __new__(cls, n: int, m: int) -> "GradingSpec":
        self = super().__new__(cls, n, m)
        if n < 1 or m < 2:
            raise ValueError(f"grading spec needs n >= 1 and m >= 2, got {self}")
        return self

    @classmethod
    def _make(cls, fields) -> "GradingSpec":
        # _replace builds through _make, which would bypass __new__.
        return cls(*fields)


class Mono(NamedTuple):
    """One monomial: x exponent, dx flag, y exponents, dy flags.

    The level is implicit as len(y) == len(dy).  Flags are 0 or 1; a
    monomial never records a squared exterior generator, products that
    would need one vanish instead.
    """

    x: int
    dx: int
    y: tuple[int, ...]
    dy: tuple[int, ...]

    @property
    def level(self) -> int:
        return len(self.y)


# A Mono from one (x, dx, y, dy) tuple, built in C: the kernels that make
# monomials by the thousand skip the Python-level __new__ of a NamedTuple.
new_mono = partial(tuple.__new__, Mono)


def mono_mul(a: Mono, b: Mono) -> Optional[Mono]:
    """Product of two monomials, or None when an exterior square kills it."""
    ax, adx, ay, ady = a
    bx, bdx, by, bdy = b
    if adx and bdx or any(map(and_, ady, bdy)):
        return None
    return new_mono((ax + bx, adx | bdx, tuple(map(add, ay, by)), tuple(map(or_, ady, bdy))))


def mono_degree(spec: GradingSpec, mono: Mono) -> int:
    """Weighted internal degree of a monomial."""
    n, m = spec.n, spec.m
    return (
        m * mono.x
        + (m - 1) * mono.dx
        + (n + 1) * m * sum(mono.y)
        + ((n + 1) * m - 1) * sum(mono.dy)
    )


def mono_word_length(mono: Mono) -> int:
    """Word length w = dx + sum(dy); t + w is a multiple of m, so t and w
    fix every other grading.  Faces keep w and derham_d raises it by one.

    >>> mono_word_length(parse_mono("x^2*dx*dy1*dy3", 3))
    3
    """
    return mono.dx + sum(mono.dy)


def mono_str(mono: Mono) -> str:
    """Render as x^a*dx*y1^b*dy2 style text; the empty monomial is "1"."""
    parts = []
    if mono.x == 1:
        parts.append("x")
    elif mono.x:
        parts.append(f"x^{mono.x}")
    if mono.dx:
        parts.append("dx")
    for j, b in enumerate(mono.y, 1):
        if b == 1:
            parts.append(f"y{j}")
        elif b:
            parts.append(f"y{j}^{b}")
    for j, flag in enumerate(mono.dy, 1):
        if flag:
            parts.append(f"dy{j}")
    return "*".join(parts) or "1"


_FACTOR = re.compile(r"^(?:(1)|(x|y(\d+))(?:\^(\d+))?|(dx)|dy(\d+))$")


def parse_mono(text: str, level: int) -> Mono:
    """Parse mono_str output back; the level cannot be inferred, pass it.

    >>> parse_mono("x^2*dx*dy1*dy3", 3)
    Mono(x=2, dx=1, y=(0, 0, 0), dy=(1, 0, 1))
    """
    x, dx = 0, 0
    y = [0] * level
    dy = [0] * level
    for factor in text.split("*"):
        got = _FACTOR.match(factor.strip())
        if got is None:
            raise ValueError(f"cannot parse factor {factor!r}")
        one, base, y_idx, exp, dx_flag, dy_idx = got.groups()
        if one:
            continue
        if dx_flag:
            if dx:
                raise ValueError("repeated dx factor")
            dx = 1
        elif dy_idx is not None:
            j = int(dy_idx)
            if not 1 <= j <= level:
                raise ValueError(f"dy{j} does not exist at level {level}")
            if dy[j - 1]:
                raise ValueError(f"repeated dy{j} factor")
            dy[j - 1] = 1
        elif base == "x":
            x += int(exp) if exp else 1
        else:
            j = int(y_idx)
            if not 1 <= j <= level:
                raise ValueError(f"y{j} does not exist at level {level}")
            y[j - 1] += int(exp) if exp else 1
    return Mono(x, dx, tuple(y), tuple(dy))


class Form:
    """A GF(2) sum of monomials at a fixed level.

    The term set is duplicate free by construction; an empty set is the
    zero form, which still remembers its level so that sums and products
    of forms can insist on matching levels.

    A form is immutable, and equal to another form only.  It is not a
    tuple on purpose: iterating, len, ordering and ``2 * form`` raise
    TypeError instead of acting on the (level, terms) pair.
    """

    __slots__ = ("level", "terms")
    level: int
    terms: frozenset[Mono]

    def __init__(self, level: int, terms: frozenset[Mono]) -> None:
        # The slots' own setters, as __setattr__ refuses every field.
        _set_level(self, level)
        _set_terms(self, terms)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Form, (self.level, self.terms)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.level == other.level and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.level, self.terms))

    def __repr__(self) -> str:
        return f"Form(level={self.level!r}, terms={self.terms!r})"

    @staticmethod
    @cache
    def zero(level: int) -> "Form":
        """The zero form at the level; one shared instance per level.

        Sharing is safe because a Form is frozen, and it lets the maps
        that see a zero operand hand back the zero of their target level
        without building anything.
        """
        return Form(level, frozenset())

    @staticmethod
    def one(level: int) -> "Form":
        return Form(level, frozenset({Mono(0, 0, (0,) * level, (0,) * level)}))

    @staticmethod
    def from_monos(level: int, monos: Iterable[Mono]) -> "Form":
        """Build a form, cancelling duplicated monomials in pairs."""
        acc: set[Mono] = set()
        for mono in monos:
            if mono.level != level:
                raise ValueError("monomial level does not match form level")
            if mono in acc:
                acc.remove(mono)
            else:
                acc.add(mono)
        return Form(level, frozenset(acc))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Form") -> "Form":
        if self.level != other.level:
            raise ValueError("cannot add forms at different levels")
        if not other.terms:
            return self
        if not self.terms:
            return other
        return Form(self.level, self.terms ^ other.terms)

    def __mul__(self, other: "Form") -> "Form":
        if self.level != other.level:
            raise ValueError("cannot multiply forms at different levels")
        if not self.terms or not other.terms:
            return Form.zero(self.level)
        acc: set[Mono] = set()
        for a in self.terms:
            for b in other.terms:
                p = mono_mul(a, b)
                if p is None:
                    continue
                if p in acc:
                    acc.remove(p)
                else:
                    acc.add(p)
        return Form(self.level, frozenset(acc))

    def __pow__(self, k: int) -> "Form":
        if k < 0:
            raise ValueError(f"a form has no power {k}, only powers from 0 up")
        out = Form.one(self.level)
        for _ in range(k):
            out = out * self
        return out

    def sorted_terms(self) -> list[Mono]:
        """Terms in the canonical order, lexicographic on (x, dx, y, dy)."""
        return sorted(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(mono_str(t) for t in self.sorted_terms())


_set_level = Form.level.__set__
_set_terms = Form.terms.__set__


def parse_form(text: str, level: int) -> Form:
    """Inverse of str(form); "0" gives the zero form at the level."""
    text = text.strip()
    if text == "0":
        return Form.zero(level)
    return Form.from_monos(level, (parse_mono(part, level) for part in text.split("+")))


def gen_x(level: int) -> Form:
    return Form(level, frozenset({Mono(1, 0, (0,) * level, (0,) * level)}))


def gen_dx(level: int) -> Form:
    return Form(level, frozenset({Mono(0, 1, (0,) * level, (0,) * level)}))


def gen_y(level: int, j: int) -> Form:
    if not 1 <= j <= level:
        raise ValueError(f"y{j} does not exist at level {level}")
    y = [0] * level
    y[j - 1] = 1
    return Form(level, frozenset({Mono(0, 0, tuple(y), (0,) * level)}))


def gen_dy(level: int, j: int) -> Form:
    if not 1 <= j <= level:
        raise ValueError(f"dy{j} does not exist at level {level}")
    dy = [0] * level
    dy[j - 1] = 1
    return Form(level, frozenset({Mono(0, 0, (0,) * level, tuple(dy))}))


def derham_d(form: Form) -> Form:
    """Differential sending x to dx and y_j to dy_j, extended by Leibniz.

    Over GF(2) only odd exponents contribute, and a factor that already
    carries its exterior partner contributes nothing.
    """
    acc: set[Mono] = set()
    for mono in form.terms:
        if mono.x % 2 and not mono.dx:
            acc ^= {Mono(mono.x - 1, 1, mono.y, mono.dy)}
        for j in range(mono.level):
            if mono.y[j] % 2 and not mono.dy[j]:
                y = list(mono.y)
                y[j] -= 1
                dy = list(mono.dy)
                dy[j] = 1
                acc ^= {Mono(mono.x, mono.dx, tuple(y), tuple(dy))}
    return Form(form.level, frozenset(acc))


def internal_degree(spec: GradingSpec, form: Form) -> Optional[int]:
    """Common internal degree of the terms; None for zero, error if mixed."""
    return _common("degrees", {mono_degree(spec, t) for t in form.terms})


def word_length(form: Form) -> Optional[int]:
    """Common word length of the terms; None for zero, error if mixed."""
    return _common("word lengths", {mono_word_length(t) for t in form.terms})


def _common(grading: str, values: set[int]) -> Optional[int]:
    if len(values) > 1:
        raise ValueError(f"form is not homogeneous, {grading} {sorted(values)}")
    return values.pop() if values else None


def monomial_basis(q: int, spec: GradingSpec, t: int) -> list[Mono]:
    """All level q monomials of internal degree t, canonically ordered.

    Finite because every generator has positive degree.  This is the
    basis every chain-level computation slices against, so the order
    must never depend on anything but (q, spec, t).
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


def nondegenerate_basis(q: int, spec: GradingSpec, t: int, w: int) -> list[Mono]:
    """The level q monomials of degree t and word length w with every slot filled, sorted.

    Slot j is filled when y_j > 0 or dy_j = 1; these are the monomials
    that no degeneracy reaches (simplicial.mono_is_degenerate), so they
    are a basis of the quotient by the degenerate subcomplex.  Each is
    x^((t - d)/m) g for one generator g of degree d <= t, and every d is
    -w mod m, so the block is empty unless m divides t + w.  At m = 2 the
    blocks with t + w odd are empty, as are all with w > q + 1:

    >>> [len(nondegenerate_basis(2, GradingSpec(1, 2), 11, w)) for w in range(5)]
    [0, 7, 0, 3, 0]
    """
    m = spec.m
    if (t + w) % m:
        return []
    gens = nondegenerate_generators(q, spec, w, -1, t)
    return sorted([new_mono(((t - d) // m, dx, y, dy)) for d, (dx, y, dy) in gens])


def nondegenerate_generators(
    q: int, spec: GradingSpec, w: int, low: int, high: int
) -> list[tuple[int, tuple[int, tuple[int, ...], tuple[int, ...]]]]:
    """The x-free nondegenerate level q monomials of word length w with
    low < degree <= high, as (degree, (dx, y, dy)) pairs sorted by degree.

    Every nondegenerate monomial is x^a times exactly one of these.  For
    each dx, the w - dx slots with dy_j = 1 are chosen, every other slot
    gets y_j = 1, and the extra y degree used on top (_fill_pattern)
    gives the degree m dx - w + (n+1)m(q + used).  Generators of equal
    degree keep the _fill_pattern order, dx = 0 first.

    >>> nondegenerate_generators(1, GradingSpec(1, 2), 1, -1, 8)
    [(3, (0, (0,), (1,))), (5, (1, (1,), (0,))), (7, (0, (1,), (1,)))]
    """
    n, m = spec
    y_deg = (n + 1) * m
    gens = []
    for dx in (0, 1):
        ones, base = w - dx, m * dx - w + y_deg * q
        top, old = (high - base) // y_deg, max((low - base) // y_deg, -1)
        if 0 <= ones <= q and top > old:
            gens += [
                (base + y_deg * used, (dx, y, dy))
                for used, y, dy in _fill_pattern(q, ones, top)
                if used > old
            ]
    gens.sort(key=itemgetter(0))
    return gens


def _fill_pattern(
    q: int, ones: int, extra: int
) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Every filling of q slots, ones of them by dy, with up to extra more y.

    One (extra y degree used, y, dy) triple per filling: the slots chosen
    for dy_j = 1 in combinations order, and for each choice the extra y
    exponents in _exponents order on top of y_j = 1 in the other slots.
    """
    spreads = [(sum(e), e) for e in _exponents(q, extra)]
    out = []
    for at in combinations(range(q), ones):
        dy = tuple(1 if j in at else 0 for j in range(q))
        floor = tuple(1 - d for d in dy)
        out += [(used, tuple(map(add, floor, e)), dy) for used, e in spreads]
    return out


def _exponents(q: int, total: int) -> Iterable[tuple[int, ...]]:
    """All q-tuples of nonnegative ints with sum at most total."""
    if q == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _exponents(q - 1, total - first):
            yield (first,) + rest
