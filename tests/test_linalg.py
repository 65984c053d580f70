import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import int_kernel, mat_mul, reference_smith_normal_form
from toricvanish.linalg import (
    adapted_basis,
    det_int,
    int_rank,
    invert_unimodular,
    primitive,
    smith_normal_form,
    snf_diagonal,
    solve_rational,
)


def check_snf(A):
    # the package builds no U: its (S, V) must be the reference's, whose U
    # shows U*A*V = S
    S, V = smith_normal_form(A)
    S_ref, U, V_ref = reference_smith_normal_form(A)
    assert (S, V) == (S_ref, V_ref)
    assert mat_mul(mat_mul(U, A), V) == S
    m, n = len(A), len(A[0])
    for i in range(m):
        for j in range(n):
            if i != j:
                assert S[i][j] == 0
    diag = [S[i][i] for i in range(min(m, n))]
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert all(d >= 0 for d in diag)
    assert abs(det_int(U)) == 1
    assert abs(det_int(V)) == 1
    return diag


def test_snf_identity():
    A = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    S, V = smith_normal_form(A)
    assert S == A
    assert check_snf(A) == [1, 1, 1]


def test_snf_hand_example():
    diag = check_snf([[2, 4], [6, 8]])
    assert diag == [2, 4]
    assert abs(det_int([[2, 4], [6, 8]])) == 8


def test_snf_zero_matrix():
    S, V = smith_normal_form([[0, 0], [0, 0]])
    assert S == [[0, 0], [0, 0]]
    assert check_snf([[0, 0], [0, 0]]) == [0, 0]
    assert abs(det_int(V)) == 1


@given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=4),
                min_size=1, max_size=4).filter(lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=200, deadline=None)
def test_snf_random(rows):
    diag = check_snf(rows)
    # no nonzero diagonal entry exactly when every entry of the matrix is 0
    assert (not any(diag)) == all(x == 0 for r in rows for x in r)
    assert len([d for d in diag if d]) == int_rank(rows)


@st.composite
def rank_matrices(draw):
    """Matrices up to 12x12 whose rows mix free rows and combinations of
    earlier ones, so that the rank is often below both sides."""
    m = draw(st.integers(0, 12))
    n = draw(st.integers(0, 12))
    entry = st.integers(-6, 6)
    rows = []
    for _ in range(m):
        if rows and draw(st.booleans()):
            lams = [draw(st.integers(-2, 2)) for _ in rows]
            rows.append([sum(lam * r[j] for lam, r in zip(lams, rows)) for j in range(n)])
        else:
            rows.append([draw(entry) for _ in range(n)])
    return rows


@given(rank_matrices())
@settings(max_examples=300, deadline=None)
def test_int_rank_matches_snf(rows):
    assert int_rank(rows) == len(snf_diagonal(rows))


def _leibniz_det(A):
    """The determinant as the signed sum over permutations."""
    n = len(A)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        for i, j in enumerate(perm):
            term *= A[i][j]
        total += term
    return total


@st.composite
def square_matrices(draw):
    """Square matrices from 0x0 to 5x5 with many zero entries, so that a
    pivot often needs a row swap, and rows that are often combinations of
    earlier ones, so that many are singular."""
    n = draw(st.integers(0, 5))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 5))
    rows = []
    for _ in range(n):
        if rows and draw(st.integers(0, 3)) == 0:
            lams = [draw(st.integers(-2, 2)) for _ in rows]
            rows.append([sum(lam * r[j] for lam, r in zip(lams, rows)) for j in range(n)])
        else:
            rows.append([draw(entry) for _ in range(n)])
    return rows


@given(square_matrices())
@example([])
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
@settings(max_examples=300, deadline=None)
def test_det_int_matches_leibniz_and_int_rank_matches_snf(rows):
    assert det_int(rows) == _leibniz_det(rows)
    assert int_rank(rows) == len(snf_diagonal(rows))


def _determinantal_divisors(A):
    """d_k, the gcd of the k x k minors of A, for k = 1.. while d_k != 0."""
    m, n = len(A), len(A[0]) if A else 0
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                g = math.gcd(g, det_int([[A[i][j] for j in cols] for i in rows]))
        if not g:
            break
        out.append(g)
    return out


@st.composite
def factor_matrices(draw):
    """Matrices up to 5x5, zero and empty ones included, whose entries share
    small factors, so that a pivot often fails to divide what is left."""
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 5))
    entry = st.sampled_from((0, 0, 1, -1, 2, -2, 3, 4, -6, 9, 12, -18))
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


@given(factor_matrices())
@example([])
@example([[]])
@example([[0]])
@example([[-4]])
@example([[0, 0, 0], [0, 0, 0]])
@example([[2, 0], [0, 3]])
@settings(max_examples=200, deadline=None)
def test_snf_diagonal_products_are_the_determinantal_divisors(rows):
    # the k-th invariant factor is d_k / d_(k-1) (Newman, Integral Matrices, II.15)
    d = _determinantal_divisors(rows)
    assert snf_diagonal(rows) == [b // a for a, b in zip([1] + d, d)]


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((1, 1, 0)) == (1, 1, 0)
    assert primitive((0, 0, 5)) == (0, 0, 1)
    with pytest.raises(ValueError, match="not a direction"):
        primitive((0, 0, 0))


def test_solve_rational_identity():
    sol = solve_rational([[1, 0], [0, 1]], [1, 2])
    assert sol is not None
    particular, nullity = sol
    assert particular == (1, 2)
    assert nullity == 0


def test_solve_rational_inconsistent():
    # the non-Cartier witness pattern: rows sum to zero, constants do not
    assert solve_rational([[1, 0], [0, 1], [-1, -1]], [-1, 0, 0]) is None


def test_solve_rational_underdetermined():
    particular, nullity = solve_rational([[1, 1]], [0])
    assert particular == (0, 0)
    assert nullity == 1


def test_int_kernel():
    ker = int_kernel([[1, 1, -2]])
    assert len(ker) == 2
    for v in ker:
        assert v[0] + v[1] - 2 * v[2] == 0


def _coords(x, V):
    """The adapted coordinates x.V."""
    return tuple(sum(x[i] * V[i][j] for i in range(len(x))) for j in range(len(V[0])))


def test_adapted_basis_plane():
    V, r = adapted_basis([(1, 0, 0), (0, 1, 0)], 3)
    assert r == 2
    assert abs(det_int(V)) == 1
    W = invert_unimodular(V)
    for v in [(1, 0, 0), (0, 1, 0), (3, -2, 0)]:
        c = _coords(v, V)
        assert c[2] == 0
        assert tuple(sum(c[j] * W[j][i] for j in range(3)) for i in range(3)) == v


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=4)
    .map(lambda rows: (rows, n))))
@settings(max_examples=300, deadline=None)
def test_adapted_basis_coordinates(case):
    vectors, n = case
    V, r = adapted_basis(vectors, n)
    assert abs(det_int(V)) == 1
    assert r == int_rank(vectors)
    for x in vectors:
        assert not any(_coords(x, V)[r:])
    # the first r rows of V^-1 add nothing to the inputs' rank, so they lie
    # in the saturated span of the inputs
    head = invert_unimodular(V)[:r]
    assert int_rank([list(x) for x in vectors] + head) == r


def test_invert_unimodular():
    M = [[1, 2], [0, 1]]
    assert mat_mul(M, invert_unimodular(M)) == [[1, 0], [0, 1]]


def _reference_solve(A, b):
    """Gauss-Jordan over Fractions: the rational reference for solve_rational
    (first nonzero entry at or below the pivot row, free variables 0, and the
    number of free variables)."""
    m = len(A)
    n = len(A[0]) if m else 0
    M = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(A, b)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, m) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        M[r] = [x / M[r][c] for x in M[r]]
        for i in range(m):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
    if any(M[i][n] for i in range(len(pivots), m)):
        return None
    particular = [Fraction(0)] * n
    for k, c in enumerate(pivots):
        particular[c] = M[k][n]
    return tuple(particular), n - len(pivots)


@st.composite
def linear_systems(draw):
    """Systems up to 8x8 with dependent rows; right-hand sides are zero,
    arbitrary rationals, or A x for a rational x (so consistent)."""
    m = draw(st.integers(0, 8))
    n = draw(st.integers(1, 8))
    rows = []
    for _ in range(m):
        if rows and draw(st.booleans()):
            lams = [draw(st.integers(-2, 2)) for _ in rows]
            rows.append([sum(lam * r[j] for lam, r in zip(lams, rows)) for j in range(n)])
        else:
            rows.append([draw(st.integers(-5, 5)) for _ in range(n)])
    frac = st.fractions(-5, 5, max_denominator=6)
    kind = draw(st.sampled_from(("zero", "random", "image")))
    if kind == "zero":
        b = [0] * m
    elif kind == "random":
        b = [draw(frac) for _ in range(m)]
    else:
        x = [draw(frac) for _ in range(n)]
        b = [sum(a * xi for a, xi in zip(row, x)) for row in rows]
    return rows, b


@given(linear_systems())
@settings(max_examples=400, deadline=None)
def test_solve_rational_matches_fraction_gauss_jordan(system):
    A, b = system
    got = solve_rational(A, b)
    assert got == _reference_solve(A, b)
    if got is not None:
        assert all(type(x) is Fraction for x in got[0])


@st.composite
def unimodular_matrices(draw):
    """Products of random row swaps, negations and shears, up to 6x6."""
    n = draw(st.integers(1, 6))
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(("swap", "negate", "shear")))
        if op == "swap":
            M[i], M[j] = M[j], M[i]
        elif op == "negate":
            M[i] = [-x for x in M[i]]
        elif i != j:
            q = draw(st.integers(-3, 3))
            M[i] = [x + q * y for x, y in zip(M[i], M[j])]
    return M


@given(unimodular_matrices(), st.integers(2, 5))
@settings(max_examples=300, deadline=None)
def test_invert_unimodular_inverts_and_rejects_the_rest(M, k):
    n = len(M)
    identity = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert mat_mul(invert_unimodular(M), M) == identity
    scaled = [[k * x for x in M[0]]] + M[1:]
    with pytest.raises(ValueError, match="not unimodular"):
        invert_unimodular(scaled)
    singular = [[0] * n] + M[1:]
    with pytest.raises(ValueError, match="not unimodular"):
        invert_unimodular(singular)
