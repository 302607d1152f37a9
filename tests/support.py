"""Shared helpers for the test suite."""

from looplab.algebra import Form, Mono


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
