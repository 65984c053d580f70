"""Exact integer and rational linear algebra.

Everything runs on arbitrary-precision Python ints and fractions.Fraction;
there is no floating point anywhere in the engine. The eliminations are
fraction-free: rank and determinant by one Bareiss forward elimination
(`_bareiss`), and the rational solves and unimodular inverses by one integer
Gauss-Jordan (`_gauss_jordan`) whose rows are divided by their gcd after each
step. A Fraction is built only when a solution is read off the final rows.
gcd and lcm of integer vectors are `math.gcd(*v)` and `math.lcm(*v)`.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def primitive(v):
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("not a direction")
    return tuple(x // g for x in v)


def dot(a, b):
    return sum(map(mul, a, b))


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(M, v):
    return tuple(dot(row, v) for row in M)


def smith_normal_form(A):
    """Smith normal form with its column transformation.

    Returns (S, V) with U*A*V = S for some unimodular U, which is not built
    (every caller reads S and V only), S diagonal with d_i | d_{i+1} and
    d_i >= 0, and V unimodular.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    S = [list(row) for row in A]
    V = identity_matrix(n)

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]

    def swap_cols(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        # row dst += q * row src
        S[dst] = [a + q * b for a, b in zip(S[dst], S[src])]

    def add_col(dst, src, q):
        for r in S:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    def negate_row(i):
        S[i] = [-a for a in S[i]]

    t = 0
    while t < min(m, n):
        pi = pj = -1
        pv = 0
        for i in range(t, m):
            for j in range(t, n):
                a = abs(S[i][j])
                if a and (pv == 0 or a < pv):
                    pi, pj, pv = i, j, a
        if pv == 0:
            break
        swap_rows(t, pi)
        swap_cols(t, pj)
        if S[t][t] < 0:
            negate_row(t)
        while True:
            restart = False
            for i in range(t + 1, m):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    add_row(i, t, -q)
                    if S[i][t]:
                        swap_rows(t, i)
                        if S[t][t] < 0:
                            negate_row(t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    add_col(j, t, -q)
                    if S[t][j]:
                        swap_cols(t, j)
                        if S[t][t] < 0:
                            negate_row(t)
                        restart = True
                        break
            if restart:
                continue
            # pivot must divide the remaining block for the divisor chain
            merged = False
            for i in range(t + 1, m):
                if any(S[i][j] % S[t][t] for j in range(t + 1, n)):
                    add_row(t, i, 1)
                    merged = True
                    break
            if not merged:
                break
        t += 1
    return S, V


def snf_diagonal(A):
    """The invariant factors of an integer matrix (nonzero diagonal of its SNF)."""
    S, _ = smith_normal_form(A)
    return [S[i][i] for i in range(min(len(S), len(S[0]) if S else 0)) if S[i][i]]


def _bareiss(A):
    """Bareiss fraction-free forward elimination of an integer matrix.

    Returns (rank, last): last is the last pivot times the sign of the row
    swaps, which is the determinant when A is square of full rank.
    """
    M = [list(row) for row in A]
    m = len(M)
    n = len(M[0]) if m else 0
    r = 0
    sign = prev = 1
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        p = M[r][c]
        for i in range(r + 1, m):
            f = M[i][c]
            M[i] = [0] * (c + 1) + [(x * p - f * y) // prev
                                    for x, y in zip(M[i][c + 1:], M[r][c + 1:])]
        prev = p
        r += 1
        if r == m:
            break
    return r, sign * prev


def int_rank(A):
    """Rank of an integer matrix."""
    return _bareiss(A)[0]


def det_int(A):
    """Determinant of a square integer matrix."""
    rank, last = _bareiss(A)
    return last if rank == len(A) else 0


def _int_row(values):
    """The row of ints or Fractions times the lcm of its denominators."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values]


def _eliminate(row, prow, c):
    """p*row - f*prow for p = prow[c], f = row[c], divided by its gcd.

    The result is zero in column c and stands for row - (f/p)*prow times a
    nonzero scale, positive when p > 0.
    """
    p, f = prow[c], row[c]
    out = [p * x - f * y for x, y in zip(row, prow)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _gauss_jordan(rows, ncols):
    """Fraction-free Gauss-Jordan elimination on the first ncols columns.

    rows are integer lists, changed in place. Returns the pivot columns; row k
    then has its pivot at column pivots[k] and zeros in every other pivot
    column, so it is row k of the reduced row echelon form times the nonzero
    integer rows[k][pivots[k]]. Each elimination is `_eliminate`, so no
    Fraction is built.
    """
    m = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        for i in range(m):
            if i != r and rows[i][c]:
                rows[i] = _eliminate(rows[i], prow, c)
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def solve_rational(A, b):
    """Exact solution set of A x = b over the rationals.

    Returns (particular, nullity), or None when the system is inconsistent:
    particular has Fraction entries and its free variables set to zero, and
    nullity is the number of free variables, the dimension of the kernel.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    rows = [_int_row(list(row) + [bv]) for row, bv in zip(A, b)]
    pivots = _gauss_jordan(rows, n)
    if any(rows[i][n] for i in range(len(pivots), m)):
        return None
    particular = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        particular[c] = Fraction(row[n], row[c])
    return tuple(particular), n - len(pivots)


def invert_unimodular(A):
    """Inverse of a unimodular integer matrix, as an integer matrix."""
    n = len(A)
    rows = [list(row) + [1 if i == j else 0 for j in range(n)]
            for i, row in enumerate(A)]
    if len(_gauss_jordan(rows, n)) < n:
        raise ValueError("matrix is not unimodular")
    out = []
    for i, row in enumerate(rows):
        p = row[i]
        if any(x % p for x in row[n:]):
            raise ValueError("matrix is not unimodular")
        out.append([x // p for x in row[n:]])
    return out


def adapted_basis(vectors, n):
    """Coordinates of Z^n adapted to the saturation of span(vectors).

    Returns (V, r): V is a unimodular matrix and x.V are the adapted
    coordinates of x. Every input vector's coordinates vanish beyond the
    first r, and the first r rows of V^-1 are a basis of the saturated
    sublattice span(vectors) & Z^n.
    """
    rows = [list(v) for v in vectors]
    if not rows:
        return identity_matrix(n), 0
    S, V = smith_normal_form(rows)
    return V, len([i for i in range(min(len(rows), n)) if S[i][i]])
