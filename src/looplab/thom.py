"""The stable wedge model of a free loop space, two ways.

For a space whose cohomology is a truncated polynomial algebra, the
free loop space splits stably into the space itself plus one cofiber
piece per level.  This module builds that wedge in both coefficient
systems: integral graded groups assembled piece by piece, and a finite
operation module over mod 2 via labelled cells.  Alongside it sit
independently sourced reference tables for the same homology, so the
two descriptions can be compared degree by degree without either one
feeding the other.

One cofiber rule serves all four families.  The level q piece is
the cofiber of a map that multiplies the top cell by the Euler
characteristic chi, and its integral homology is exact for every chi:
the cokernel Z/chi, which is Z when chi = 0, plus the kernel, which is
a free class one degree up exactly when chi = 0 (the odd spheres).
Mod 2 the piece has cells c^0..c^n and d^0..d^n, less the pair c^n,
d^0 that the map joins when chi is odd.  The wedge therefore reads only
n, r and chi; the family matters only to the reference tables, which
are the independent route.
"""

from __future__ import annotations

from typing import NamedTuple

from .closedform import key_label, lucas
from .steenrod import FiniteAModule

__all__ = [
    "FAMILIES",
    "Space",
    "SPACES",
    "space",
    "sw_classes",
    "cofiber_z",
    "suspended_cofiber_z",
    "sphere_layer",
    "model_homology_z",
    "model_module_f2",
    "loop_dictionary",
    "reference_loop_homology",
    "abelian_tsv",
    "merge_groups",
    "shift_groups",
]

# degree -> (free rank, sorted torsion orders)
GradedAb = dict[int, tuple[int, tuple[int, ...]]]


# family -> (whether n, r, chi have its shape, that shape in words)
_SHAPES = {
    "sphere": (
        lambda n, r, chi: n == 1 and r >= 2 and chi == (0 if r % 2 else 2),
        "n = 1, r >= 2 and chi = 2 for even r, 0 for odd r",
    ),
    "cp": (lambda n, r, chi: n >= 1 and r == 2 and chi == n + 1, "n >= 1, r = 2 and chi = n + 1"),
    "hp": (lambda n, r, chi: n >= 1 and r == 4 and chi == n + 1, "n >= 1, r = 4 and chi = n + 1"),
    "cayley": (lambda n, r, chi: (n, r, chi) == (2, 8, 3), "n = 2, r = 8 and chi = 3"),
}

FAMILIES = tuple(_SHAPES)


class _SpaceFields(NamedTuple):
    name: str
    n: int
    r: int
    chi: int
    odd_op: bool
    family: str


class Space(_SpaceFields):
    """One truncated polynomial space: x in degree r, truncated past x^n.

    The family (one of FAMILIES) fixes the shape (n, r, chi) a space
    may have and picks the reference table; the name is only a label.
    The odd switch is not checked against chi here, so a space with
    the switch flipped can serve as a negative control.
    """

    __slots__ = ()

    def __new__(
        cls, name: str, n: int, r: int, chi: int, odd_op: bool, family: str
    ) -> "Space":
        if family not in FAMILIES:
            known = ", ".join(FAMILIES)
            raise ValueError(f"unknown space family {family!r}; known: {known}")
        fits, shape = _SHAPES[family]
        if not fits(n, r, chi):
            raise ValueError(f"{family} space needs {shape}, got n={n}, r={r}, chi={chi}")
        return super().__new__(cls, name, n, r, chi, odd_op, family)

    @classmethod
    def _make(cls, fields) -> "Space":
        # _replace builds through _make, which would bypass __new__.
        return cls(*fields)

    @property
    def dim(self) -> int:
        return self.n * self.r

    @property
    def odd_op_from_euler(self) -> bool:
        """The same switch read off the Euler characteristic alone."""
        return self.chi % 4 == 2


def _space_table() -> dict[str, Space]:
    table = {}
    for k in range(1, 5):
        table[f"cp{k}"] = Space(f"cp{k}", k, 2, k + 1, k % 4 == 1, "cp")
    for k in range(1, 4):
        table[f"hp{k}"] = Space(f"hp{k}", k, 4, k + 1, k % 4 == 1, "hp")
    table["cayley"] = Space("cayley", 2, 8, 3, False, "cayley")
    for k in range(2, 7):
        chi = 2 if k % 2 == 0 else 0
        table[f"s{k}"] = Space(f"s{k}", 1, k, chi, k % 2 == 0, "sphere")
    return table


SPACES = _space_table()


def space(name: str) -> Space:
    try:
        return SPACES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(SPACES))
        raise ValueError(f"unknown space {name!r}; shipped: {known}") from None


# ---------------------------------------------------------------------------
# Graded abelian groups as plain dicts.

def merge_groups(*parts: GradedAb) -> GradedAb:
    out: dict[int, tuple[int, tuple[int, ...]]] = {}
    for part in parts:
        for deg, (free, torsion) in part.items():
            old_free, old_torsion = out.get(deg, (0, ()))
            out[deg] = (old_free + free, tuple(sorted(old_torsion + torsion)))
    return out


def shift_groups(groups: GradedAb, offset: int) -> GradedAb:
    return {deg + offset: value for deg, value in groups.items()}


def _trim(groups: GradedAb, deg_max: int) -> GradedAb:
    return {deg: value for deg, value in groups.items() if deg <= deg_max}


def abelian_tsv(groups: GradedAb, deg_max: int) -> str:
    lines = ["degree\tfreeRank\ttorsion"]
    for deg in range(deg_max + 1):
        free, torsion = groups.get(deg, (0, ()))
        shown = ",".join(str(t) for t in torsion) if torsion else "-"
        lines.append(f"{deg}\t{free}\t{shown}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# One level at a time: characteristic classes, one-point modules, cofibers.

def sw_classes(sp: Space, q: int) -> list[int]:
    """Mod 2 characteristic class parities of the level q bundle."""
    return [lucas(q * (sp.n + 1), i) for i in range(sp.n + 1)]


def cofiber_z(sp: Space, q: int) -> GradedAb:
    """Integral homology of the unsuspended level q cofiber piece.

    The attaching map multiplies by the Euler characteristic chi, so
    degree (q+1)*dim holds the cokernel Z/chi and the degree above it
    the kernel.  Both are exact for every chi: when chi = 0 (the odd
    spheres) the cokernel is Z and the kernel a second free class.

    >>> cofiber_z(space("cp2"), 0)[4]
    (0, (3,))
    >>> sorted(cofiber_z(space("s3"), 0).items())
    [(1, (1, ())), (3, (1, ())), (4, (1, ())), (6, (1, ()))]
    """
    n, r, d = sp.n, sp.r, sp.dim
    groups: GradedAb = {}
    for j in range(n):
        groups[q * d + 1 + j * r] = (1, ())
        groups[(q + 1) * d + (j + 1) * r] = (1, ())
    if sp.chi:
        groups[(q + 1) * d] = (0, (sp.chi,))
    else:
        groups[(q + 1) * d] = groups[(q + 1) * d + 1] = (1, ())
    return groups


def suspended_cofiber_z(sp: Space, q: int) -> GradedAb:
    return shift_groups(cofiber_z(sp, q), (sp.r - 2) * (q + 1))


def sphere_layer(m: int, k: int) -> GradedAb:
    """Reduced homology of the k-th layer of the sphere filtration.

    An independent route to the same total: the free loop space of a
    sphere filters with one layer per winding class, and each layer is
    either two cells or a single mod 2 cell pair.
    """
    base = (m - 1) * k
    if m % 2 == 0 and k % 2 == 0:
        return {base: (0, (2,))}
    return {base: (1, ()), base + 1: (1, ())}


# ---------------------------------------------------------------------------
# Assembly of the full wedge.

def _piece_floor(sp: Space, q: int) -> int:
    """Lowest degree in which the level q piece can contribute."""
    return q * ((sp.n + 1) * sp.r - 2) + sp.r - 1


def model_homology_z(sp: Space, deg_max: int) -> GradedAb:
    """Integral homology of the assembled wedge, up to a degree cap."""
    parts: list[GradedAb] = [{j * sp.r: (1, ()) for j in range(sp.n + 1)}]
    q = 0
    while _piece_floor(sp, q) <= deg_max:
        parts.append(_trim(suspended_cofiber_z(sp, q), deg_max))
        q += 1
    return _trim(merge_groups(*parts), deg_max)


def _cofiber_cells(sp: Space, q: int) -> list[tuple[str, int, int, int]]:
    """(family, level, j, degree) of each mod 2 cell of the level q piece.

    One rule in (n, chi): the piece has cells c^0..c^n at level q and
    d^0..d^n one level up, and its attaching map of degree chi joins c^n
    to d^0, so mod 2 that pair survives only when chi is even.
    """
    n, r = sp.n, sp.r
    shift = (n + 1) * r - 2
    cells = [("c", q, j, q * shift + r - 1 + r * j) for j in _powers(sp, "c")]
    cells += [("d", q + 1, j, (q + 1) * shift + r * j) for j in _powers(sp, "d")]
    return cells


def _powers(sp: Space, family: str) -> range:
    """The powers j of one family's cells x^j per piece (see _cofiber_cells)."""
    odd = sp.chi % 2
    if family == "c":
        return range(sp.n + 1 - odd)
    return range(odd if family == "d" else 0, sp.n + 1)


def _cell_label(family: str, level: int, j: int) -> str:
    """Label of a wedge cell; family "x" is the space's own power x^j."""
    if family != "x":
        return f"{family}{level}^{j}"
    return "1" if j == 0 else "x" if j == 1 else f"x^{j}"


def _wedge_cells(sp: Space, deg_max: int) -> list[tuple[str, int, int, int]]:
    """(family, level, j, degree) of every wedge cell inside the window.

    The space's own powers x^j come first, as family "x" at level zero,
    then every cofiber piece that reaches the window.
    """
    n, r = sp.n, sp.r
    cells = [("x", 0, j, j * r) for j in range(n + 1) if j * r <= deg_max]
    q = 0
    while _piece_floor(sp, q) <= deg_max:
        cells += [cell for cell in _cofiber_cells(sp, q) if cell[3] <= deg_max]
        q += 1
    return cells


def model_module_f2(sp: Space, deg_max: int, k_store: int) -> FiniteAModule:
    """The assembled wedge as a finite operation module over mod 2.

    Cells from the space itself plus every cofiber piece that reaches
    the window.  Operations act within each piece by one binomial rule:
    Sq^(r i) carries the cell x^j at level q to x^(j+i) when
    binom(q (n + 1) + j, i) is odd and that cell survives mod 2, and the
    space's own powers x^j follow the same rule at level zero.  When the
    space switches it on, the single odd operation carries each d^0 to
    c^n one level down; both survive only for even chi.
    """
    n, r = sp.n, sp.r
    # label -> (family, level, j, degree)
    cells = {_cell_label(*cell[:3]): cell for cell in _wedge_cells(sp, deg_max)}
    stop = {family: _powers(sp, family).stop for family in "xcd"}

    def rule(label: str):
        family, level, j, _ = cells[label]
        top = level * (n + 1) + j
        out = [
            (r * i, _cell_label(family, level, j + i))
            for i in range(1, stop[family] - j)
            if lucas(top, i)
        ]
        if family == "d" and j == 0 and sp.odd_op:
            out.append((1, _cell_label("c", level - 1, n)))
        return out

    elements = [(label, cell[3]) for label, cell in cells.items()]
    return FiniteAModule(deg_max, elements, rule, k_store)


def loop_dictionary(sp: Space, deg_max: int) -> dict[str, str]:
    """Label matching between the wedge cells and the loop classes.

    Covers exactly the wedge labels inside the window: the cell x^j of
    family c at level q lands on the class x^j dx g_q, and every other
    cell, the space's own powers at level zero among them, on x^j g_q.
    """
    return {
        _cell_label(family, level, j): key_label((j, int(family == "c"), level))
        for family, level, j, _ in _wedge_cells(sp, deg_max)
    }


# ---------------------------------------------------------------------------
# Independently sourced reference tables.

def reference_loop_homology(sp: Space, deg_max: int) -> GradedAb:
    """Published integral loop homology of one shipped space.

    Each family is entered from its own source: the projective tables
    are periodic with one cyclic summand per period, the octonionic
    plane repeats a fixed four cell block, and spheres sum the layers
    of their winding filtration.  Nothing here touches the wedge
    assembly, which is the point.  The table follows the space's family,
    never its name, and Space admits no family outside the four.
    """
    n = sp.n
    groups: dict[int, tuple[int, tuple[int, ...]]] = {}

    def free(deg):
        if deg <= deg_max:
            f, t = groups.get(deg, (0, ()))
            groups[deg] = (f + 1, t)

    def torsion(deg, order):
        if deg <= deg_max:
            f, t = groups.get(deg, (0, ()))
            groups[deg] = (f, tuple(sorted(t + (order,))))

    if sp.family == "sphere":
        m = sp.r
        parts: list[GradedAb] = [{0: (1, ())}]
        k = 1
        while (m - 1) * k <= deg_max:
            parts.append(_trim(sphere_layer(m, k), deg_max))
            k += 1
        return merge_groups(*parts)
    if sp.family == "cp":
        for deg in range(deg_max + 1):
            free(deg)
        period = 2 * n
        for a in range(1, deg_max // period + 1):
            torsion(a * period, n + 1)
        return groups
    if sp.family == "hp":
        free(0)
        period = 2 * (2 * n + 1)
        for a in range(deg_max // period + 2):
            for l in range(1, n + 1):
                free(a * period + 4 * l)
            if a >= 1:
                torsion(a * period, n + 1)
                for l in range(n):
                    free(a * period + 4 * l - 4 * n + 1)
        return groups
    # The one family left is cayley.
    for deg in (0, 8, 16):
        free(deg)
    for a in range(1, deg_max // 22 + 2):
        for deg in (22 * a - 15, 22 * a - 7, 22 * a + 8, 22 * a + 16):
            free(deg)
        torsion(22 * a, 3)
    return groups
