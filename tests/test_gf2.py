"""Linear algebra layer, checked against brute-force span enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looplab import gf2
from looplab.gf2 import apply_row, rank, rref
from support import left_kernel, list_rref, quotient_reps, solve_in_span


def span_elements(rows):
    """Every XOR combination of the rows (exponential, tests only)."""
    out = {0}
    for r in rows:
        out |= {x ^ r for x in out}
    return out


def random_rows(rng, nrows, ncols):
    return [rng.getrandbits(ncols) for _ in range(nrows)]


# The transpose-based left kernel that the tagged elimination replaced,
# kept as the reference support.left_kernel is checked against; the
# kernel tests check the reference itself.
def transpose(rows, ncols):
    out = []
    for c in range(ncols):
        x = 0
        for i, r in enumerate(rows):
            x |= (r >> c & 1) << i
        out.append(x)
    return out


def kernel_basis(rows, ncols):
    """Solutions of M v = 0, identity on the free columns (reference)."""
    red, pivots = rref(rows)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = 1 << f
        for c, r in zip(pivots, red):
            if r >> f & 1:
                v |= 1 << c
        basis.append(v)
    return basis


def transposed_left_kernel(rows):
    """The left kernel as the kernel of the transpose (reference)."""
    ncols = max((r.bit_length() for r in rows), default=0)
    return kernel_basis(transpose(rows, ncols), len(rows))


def assert_complete_left_kernel(rows):
    ker = left_kernel(rows)
    for c in ker:
        assert apply_row(c, rows) == 0
    assert len(ker) == len(rows) - rank(rows)
    assert rank(ker) == len(ker)
    assert rref(ker)[0] == rref(transposed_left_kernel(rows))[0]


def test_rank_identity():
    assert rank([0b01, 0b10]) == 2


def test_rank_repeated_row():
    assert rank([0b11, 0b11]) == 1


def test_rank_matches_span_enumeration():
    rng = random.Random(601)
    for _ in range(40):
        rows = random_rows(rng, 6, 6)
        assert 2 ** rank(rows) == len(span_elements(rows))


def test_rref_is_canonical_for_the_span():
    rng = random.Random(602)
    for _ in range(25):
        rows = random_rows(rng, 5, 7)
        red, piv = rref(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        shuffled = [shuffled[0] ^ shuffled[-1]] + shuffled
        assert rref(shuffled)[0] == red
        for c, r in zip(piv, red):
            assert sum(row >> c & 1 for row in red) == 1
            assert r & (1 << c)


def test_rank_equals_the_length_of_the_echelon_form():
    # rank eliminates forward only; rref is the fully reduced reference.
    rng = random.Random(608)
    for ncols in (1, 5, 64, 200, 3000):
        for _ in range(12):
            rows = random_rows(rng, rng.randint(0, 40), ncols)
            rows += [0] * rng.randint(0, 3)
            rows += [rng.choice(rows) for _ in range(rng.randint(0, 5))] if rows else []
            rows += [apply_row(rng.getrandbits(len(rows)), rows) for _ in range(3)]
            rng.shuffle(rows)
            assert rank(rows) == len(rref(rows)[0]), (ncols, len(rows))
    # few independent rows among many wide ones, and the empty matrix
    base = random_rows(rng, 7, 3000)
    wide = [apply_row(rng.getrandbits(7), base) for _ in range(60)]
    assert rank(wide) == len(rref(wide)[0]) == rank(base) == 7
    assert rank([]) == rank([0, 0]) == 0


def one_bit_keys(pivots):
    """gf2._echelon's pivot dict with each column + 1 key k as 1 << (k - 1), in order."""
    return {1 << (key - 1): row for key, row in pivots.items()}


# echelon, rref and support.left_kernel as they were with one-bit pivot
# keys (row & -row), kept as the reference for the small column keys.
def one_bit_echelon(rows):
    pivots = {}
    for row in rows:
        while row:
            low = row & -row
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                break
            row ^= pivot
    return pivots


def one_bit_rref(rows):
    pivots = one_bit_echelon(rows)
    order = sorted(pivots)
    mask = 0
    for low in reversed(order):
        row = pivots[low]
        higher = row & mask
        while higher:
            row ^= pivots[higher & -higher]
            higher &= higher - 1
        pivots[low] = row
        mask |= low
    return [pivots[k] for k in order], [k.bit_length() - 1 for k in order]


def one_bit_left_kernel(rows):
    pivots = {}
    deps = []
    for i, row in enumerate(rows):
        tag = 1 << i
        while row:
            low = row & -row
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = (row, tag)
                break
            row ^= pivot[0]
            tag ^= pivot[1]
        if not row:
            deps.append(tag)
    return deps


def test_small_pivot_keys_equal_the_one_bit_keys_on_wide_rows():
    rng = random.Random(611)
    seen_deps = 0
    for ncols in (20_000, 20_001, 32_768):
        for shape in ("dense", "sparse", "banded"):
            rows = []
            for _ in range(rng.randint(80, 120)):
                if shape == "dense":
                    row = rng.getrandbits(ncols)
                elif shape == "sparse":
                    row = sum(1 << rng.randrange(ncols) for _ in range(rng.randint(1, 6)))
                else:
                    # bits near the top, so the pivots sit in the widest columns
                    row = sum(1 << rng.randrange(ncols - 300, ncols) for _ in range(3))
                rows.append(row)
            rows += [apply_row(rng.getrandbits(len(rows)), rows) for _ in range(20)]
            rows += [0, rows[0]]
            rng.shuffle(rows)
            assert max(rows).bit_length() > 19_000
            want = one_bit_echelon(rows)
            got = one_bit_keys(gf2._echelon(rows))
            assert list(got.items()) == list(want.items()), (ncols, shape)
            assert rank(rows) == len(want)
            assert rref(rows) == one_bit_rref(rows)
            deps = left_kernel(rows)
            assert deps == one_bit_left_kernel(rows)
            seen_deps += len(deps)
    assert seen_deps >= 9 * 22


def test_kernel_of_single_equation():
    ker = kernel_basis([0b011], 3)
    assert len(ker) == 2
    for v in ker:
        assert bin(v & 0b011).count("1") % 2 == 0


def test_kernel_multiplies_back_to_zero():
    rng = random.Random(603)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
        rows = random_rows(rng, nrows, ncols)
        ker = kernel_basis(rows, ncols)
        assert len(ker) == ncols - rank(rows)
        for v in ker:
            for row in rows:
                assert bin(row & v).count("1") % 2 == 0


def test_left_kernel_kills_rows():
    rng = random.Random(604)
    rows = random_rows(rng, 5, 4)
    for c in left_kernel(rows):
        assert apply_row(c, rows) == 0


def test_left_kernel_is_complete_on_seeded_matrices():
    rng = random.Random(609)
    for _ in range(60):
        nrows, ncols = rng.randint(0, 12), rng.randint(1, 10)
        rows = random_rows(rng, nrows, ncols)
        rows += [0] * rng.randint(0, 2)
        if rows:
            rows += [apply_row(rng.getrandbits(len(rows)), rows) for _ in range(2)]
        rng.shuffle(rows)
        assert_complete_left_kernel(rows)
    assert left_kernel([]) == []
    assert left_kernel([0, 0]) == [1, 2]
    assert left_kernel([0b01, 0b11, 0b10, 0b00]) == [7, 8]


def test_solve_in_span_round_trip():
    rng = random.Random(606)
    for _ in range(40):
        basis = random_rows(rng, 5, 9)
        pick = rng.getrandbits(5)
        target = apply_row(pick, basis)
        coeffs = solve_in_span(basis, target)
        assert coeffs is not None
        acc = 0
        for c, row in zip(coeffs, basis):
            if c:
                acc ^= row
        assert acc == target


def test_solve_in_span_rejects_outside_vector():
    basis = [0b0011, 0b0110]
    assert solve_in_span(basis, 0b1000) is None
    assert solve_in_span([0b011, 0b110], 0b100) is None
    assert solve_in_span([0b011, 0b110, 0b101], 0b101) == [1, 1, 0]


def seeded_matrices(rng):
    """Row lists with zero rows, duplicates and dependent rows, wide ones too."""
    yield []
    yield [0, 0]
    for ncols in (1, 5, 64, 3000):
        for _ in range(10):
            rows = random_rows(rng, rng.randint(0, 12), ncols)
            rows += [0] * rng.randint(0, 2)
            if rows:
                rows += [rng.choice(rows) for _ in range(rng.randint(0, 3))]
                rows += [apply_row(rng.getrandbits(len(rows)), rows) for _ in range(2)]
            rng.shuffle(rows)
            yield rows


def assert_echelon_matches_the_list_scan(rows):
    red, pivots = rref(rows)
    assert (red, pivots) == list_rref(rows)
    got = one_bit_keys(gf2._echelon(rows))
    assert set(got) == {1 << c for c in pivots}
    for low, row in got.items():
        assert row & -row == low


def test_rref_and_echelon_equal_the_list_scan_on_seeded_matrices():
    rng = random.Random(610)
    for rows in seeded_matrices(rng):
        assert_echelon_matches_the_list_scan(rows)


def assert_solve_in_span_matches_the_span(basis, targets):
    span = span_elements(basis)
    for target in targets:
        coeffs = solve_in_span(basis, target)
        assert (coeffs is None) == (target not in span), (basis, target)
        if coeffs is not None:
            assert len(coeffs) == len(basis)
            assert apply_row(sum(c << i for i, c in enumerate(coeffs)), basis) == target


def test_solve_in_span_fails_exactly_outside_the_span():
    rng = random.Random(611)
    assert solve_in_span([], 0) == []
    assert solve_in_span([], 1) is None
    assert solve_in_span([0, 0], 0) == [0, 0]
    for _ in range(40):
        basis = random_rows(rng, rng.randint(0, 6), 6)
        if basis:
            basis += [apply_row(rng.getrandbits(len(basis)), basis), rng.choice(basis), 0]
        assert_solve_in_span_matches_the_span(basis, range(2**6))


def test_quotient_dims_and_joint_independence():
    rng = random.Random(607)
    for _ in range(30):
        z = random_rows(rng, 6, 9)
        picks = [apply_row(rng.getrandbits(6), z) for _ in range(3)]
        reps = quotient_reps(z, picks)
        assert len(reps) == rank(z) - rank(picks)
        assert rank(reps + rref(picks)[0]) == rank(z)
        for r in reps:
            assert solve_in_span(picks, r) is None


def test_quotient_rejects_subspace_outside_span():
    with pytest.raises(ValueError):
        quotient_reps([0b001], [0b010])


def test_quotient_reps_depend_only_on_spans():
    z = [0b0111, 0b1010, 0b0101]
    b = [0b0111]
    one = quotient_reps(z, b)
    two = quotient_reps([z[1], z[0] ^ z[2], z[2]], [b[0] ^ 0])
    assert one == two


bit_matrix = st.integers(1, 7).flatmap(
    lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(st.integers(0, 2**ncols - 1), min_size=1, max_size=7),
    )
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 2**7 - 1), max_size=9))
def test_rref_and_echelon_equal_the_list_scan(rows):
    assert_echelon_matches_the_list_scan(rows)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 2**5 - 1), max_size=7), st.integers(0, 2**5 - 1))
def test_solve_in_span_fails_exactly_outside_the_span_of_any_rows(basis, target):
    assert_solve_in_span_matches_the_span(basis, [target, 0])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 2**7 - 1), max_size=9))
def test_left_kernel_is_complete(rows):
    assert_complete_left_kernel(rows)


@settings(max_examples=150, deadline=None)
@given(bit_matrix)
def test_rank_of_transpose(case):
    ncols, rows = case
    assert rank(rows) == rank(transpose(rows, ncols))


@settings(max_examples=150, deadline=None)
@given(bit_matrix)
def test_rank_nullity(case):
    ncols, rows = case
    assert rank(rows) + len(kernel_basis(rows, ncols)) == ncols
