"""The stable wedge model of a free loop space, two ways.

For a space whose cohomology is a truncated polynomial algebra, the
free loop space splits stably into the space itself plus one cofiber
piece per level.  This module builds that wedge in both coefficient
systems: integral graded groups assembled piece by piece, and a finite
operation module over mod 2 via labelled cells.  Alongside it sit
independently sourced reference tables for the same homology, so the
two descriptions can be compared degree by degree without either one
feeding the other.

Torsion bookkeeping is exact.  A piece whose attaching multiple is
zero has no cyclic summand to speak of, so the integral cofiber
description refuses odd dimensional spheres outright and a dedicated
cell description takes over for every sphere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closedform import even_label, lucas, odd_label
from .steenrod import FiniteAModule

__all__ = [
    "FAMILIES",
    "Space",
    "SPACES",
    "space",
    "sw_classes",
    "thom_module",
    "cofiber_z",
    "suspended_cofiber_z",
    "sphere_piece",
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


FAMILIES = ("sphere", "cp", "hp", "cayley")


@dataclass(frozen=True)
class Space:
    """One truncated polynomial space: x in degree r, truncated past x^n.

    The family (one of FAMILIES) picks the wedge assembly and the
    reference table; the name is only a label.
    """

    name: str
    n: int
    r: int
    chi: int
    odd_op: bool
    family: str

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            known = ", ".join(FAMILIES)
            raise ValueError(f"unknown space family {self.family!r}; known: {known}")

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


def _power_label(j: int, stem: str) -> str:
    if j == 0:
        return stem if stem else "1"
    prefix = "x" if j == 1 else f"x^{j}"
    return f"{prefix}*{stem}" if stem else prefix


def thom_module(sp: Space, q: int, deg_max: int, k_store: int) -> FiniteAModule:
    """Cells x^j u_q of one one-point compactified bundle level.

    Level zero is the space itself with its cup product; higher levels
    are plain modules and carry no product.
    """
    n, r = sp.n, sp.r
    stem = "" if q == 0 else f"u{q}"
    base = q * sp.dim
    elements = [
        (_power_label(j, stem), base + r * j)
        for j in range(n + 1)
        if base + r * j <= deg_max
    ]
    by_label = {label: j for j, (label, _) in enumerate(elements)}

    def rule(k: int, label: str):
        if k % r:
            return []
        i = k // r
        j = by_label[label]
        if j + i <= n and lucas(q * (n + 1) + j, i):
            return [(_power_label(j + i, stem), base + r * (j + i))]
        return []

    product = None
    if q == 0:
        def product(la: str, lb: str):
            j = by_label[la] + by_label[lb]
            return [_power_label(j, "")] if j <= n else []

    return FiniteAModule(deg_max, elements, rule, k_store, product=product)


def cofiber_z(sp: Space, q: int) -> GradedAb:
    """Integral homology of the unsuspended level q cofiber piece.

    The attaching map multiplies by the Euler characteristic, so a
    space with vanishing characteristic has no cyclic summand here and
    is refused; spheres of odd dimension go through sphere_piece.
    """
    if sp.chi == 0:
        raise ValueError(f"{sp.name} has zero Euler characteristic; use sphere_piece")
    n, r, d = sp.n, sp.r, sp.dim
    groups: GradedAb = {}
    for j in range(n):
        groups[q * d + 1 + j * r] = (1, ())
        groups[(q + 1) * d + (j + 1) * r] = (1, ())
    groups[(q + 1) * d] = (0, (sp.chi,))
    return groups


def suspended_cofiber_z(sp: Space, q: int) -> GradedAb:
    return shift_groups(cofiber_z(sp, q), (sp.r - 2) * (q + 1))


def sphere_piece(m: int, q: int) -> GradedAb:
    """Integral homology of the suspended level q piece of a sphere.

    Already in its suspended position, and valid for both parities;
    the odd case replaces the would-be cyclic summand with two free
    cells one degree apart.
    """
    lower = (2 * q + 1) * (m - 1)
    upper = 2 * (q + 1) * (m - 1)
    if m % 2:
        return {lower: (1, ()), upper: (1, ()), upper + 1: (1, ()), upper + m: (1, ())}
    return {lower: (1, ()), upper: (0, (2,)), upper + m: (1, ())}


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
    if sp.family == "sphere":
        return (2 * q + 1) * (sp.r - 1)
    return q * ((sp.n + 1) * sp.r - 2) + sp.r - 1


def model_homology_z(sp: Space, deg_max: int) -> GradedAb:
    """Integral homology of the assembled wedge, up to a degree cap."""
    parts: list[GradedAb] = [{j * sp.r: (1, ()) for j in range(sp.n + 1)}]
    q = 0
    while _piece_floor(sp, q) <= deg_max:
        if sp.family == "sphere":
            piece = sphere_piece(sp.r, q)
        else:
            piece = suspended_cofiber_z(sp, q)
        parts.append(_trim(piece, deg_max))
        q += 1
    return _trim(merge_groups(*parts), deg_max)


def _cofiber_cells(sp: Space, q: int) -> list[tuple[str, int, int, int]]:
    """(family, level, j, degree) of each mod 2 cell of the level q piece."""
    n, r = sp.n, sp.r
    shift = (n + 1) * r - 2
    cells = []
    if n % 2:
        for j in range(n + 1):
            cells.append(("c", q, j, q * shift + r - 1 + r * j))
            cells.append(("d", q + 1, j, (q + 1) * shift + r * j))
    else:
        for j in range(n):
            cells.append(("a", q, j, q * shift + r - 1 + r * j))
            cells.append(("b", q + 1, j, (q + 1) * shift + r + r * j))
    return cells


def _cell_label(family: str, level: int, j: int) -> str:
    """Label of a wedge cell; family "x" is the space's own power x^j."""
    return _power_label(j, "") if family == "x" else f"{family}{level}^{j}"


def _wedge_cells(sp: Space, deg_max: int) -> list[tuple[str, int, int, int]]:
    """(family, level, j, degree) of every wedge cell inside the window.

    The space's own powers x^j come first, as family "x" at level zero,
    then every cofiber piece that reaches the window.
    """
    n, r = sp.n, sp.r
    cells = [("x", 0, j, j * r) for j in range(n + 1) if j * r <= deg_max]
    q = 0
    while q * ((n + 1) * r - 2) + r - 1 <= deg_max:
        cells += [cell for cell in _cofiber_cells(sp, q) if cell[3] <= deg_max]
        q += 1
    return cells


def model_module_f2(sp: Space, deg_max: int, k_store: int) -> FiniteAModule:
    """The assembled wedge as a finite operation module over mod 2.

    Cells from the space itself plus every cofiber piece that reaches
    the window; operations act within each piece by one binomial rule
    per family, plus the single odd operation on the bottom cell of
    each second-family piece when the space switches it on.
    """
    n, r = sp.n, sp.r
    # label -> (family, level, j, degree, binomial top, largest j of the family)
    cells = {}
    for family, level, j, d in _wedge_cells(sp, deg_max):
        if family == "x":
            top, cap = j, n
        else:
            top = level * (n + 1) + j + (family == "b")
            cap = n - 1 if family in ("a", "b") else n
        cells[_cell_label(family, level, j)] = (family, level, j, d, top, cap)

    def rule(k: int, label: str):
        family, level, j, d, top, cap = cells[label]
        if k % r == 0:
            i = k // r
            if i + j <= cap and lucas(top, i):
                return [(_cell_label(family, level, i + j), d + k)]
        elif k == 1 and family == "d" and j == 0 and sp.odd_op:
            return [(_cell_label("c", level - 1, n), d + 1)]
        return []

    elements = [(label, cell[3]) for label, cell in cells.items()]
    return FiniteAModule(deg_max, elements, rule, k_store)


def loop_dictionary(sp: Space, deg_max: int) -> dict[str, str]:
    """Label matching between the wedge cells and the loop classes.

    Covers exactly the wedge labels inside the window: the space's own
    powers land on the level zero classes, each first-family cell on
    an exterior class, each second-family cell on the polynomial class
    one level up.
    """
    n = sp.n
    out = {}
    for family, level, j, _ in _wedge_cells(sp, deg_max):
        label = _cell_label(family, level, j)
        if family == "x":
            if j == 0:
                out[label] = "1"
            else:
                out[label] = odd_label((j, 0, 0)) if n % 2 else even_label(("b", j - 1, 0))
        elif family == "c":
            out[label] = odd_label((j, 1, level))
        elif family == "d":
            out[label] = odd_label((j, 0, level))
        else:
            out[label] = even_label((family, j, level))
    return out


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
