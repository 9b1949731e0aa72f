"""Exact integer-lattice linear algebra: Hermite and Smith normal forms,
and the F_p case of both.

All matrices are lists (or tuples) of row vectors with Python int entries,
so there is no overflow anywhere.  Lattices are row spans.  Sizes here are
tiny (rank <= 8), so the classical algorithms are plenty.

A lattice that contains p Z^m for a prime p is the preimage of an F_p
subspace, and its HNF is written in closed form from the reduced row
echelon basis of that subspace (``hnf_mod``): no gcd elimination runs.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt


def _copy(mat):
    return [list(r) for r in mat]


def identity(m):
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def hnf(rows, with_transform=False):
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Returns the nonzero rows H (pivots positive, entries above each pivot
    reduced into [0, pivot)).  With ``with_transform`` also returns T with
    T @ rows == H-padded (T unimodular over the retained combinations is not
    tracked; T maps original rows to the full reduced stack including zero
    rows).
    """
    work = _copy(rows)
    k = len(work)
    m = len(work[0]) if work else 0
    trans = identity(k) if with_transform else None
    r = 0
    for c in range(m):
        piv = None
        for i in range(r, k):
            if work[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        # gcd elimination below row r in column c
        while True:
            nz = [i for i in range(r, k) if work[i][c] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(work[i][c]))
            i0 = nz[0]
            for i in nz[1:]:
                q = work[i][c] // work[i0][c]
                for j in range(m):
                    work[i][j] -= q * work[i0][j]
                if trans is not None:
                    for j in range(k):
                        trans[i][j] -= q * trans[i0][j]
        i0 = next(i for i in range(r, k) if work[i][c] != 0)
        if i0 != r:
            work[r], work[i0] = work[i0], work[r]
            if trans is not None:
                trans[r], trans[i0] = trans[i0], trans[r]
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
            if trans is not None:
                trans[r] = [-x for x in trans[r]]
        # reduce entries above the pivot
        for i in range(r):
            q = work[i][c] // work[r][c]
            if q:
                for j in range(m):
                    work[i][j] -= q * work[r][j]
                if trans is not None:
                    for j in range(k):
                        trans[i][j] -= q * trans[r][j]
        r += 1
    result = work[:r]
    if with_transform:
        return result, work, trans
    return result


def solve_lattice(hnf_rows, target):
    """Integer coefficients c with c @ hnf_rows == target, else None.

    ``hnf_rows`` must be in row HNF (as produced by :func:`hnf`).
    """
    m = len(target)
    v = list(target)
    coeffs = [0] * len(hnf_rows)
    pivots = []
    for i, row in enumerate(hnf_rows):
        j = next((jj for jj, x in enumerate(row) if x != 0), None)
        if j is None:
            return None
        pivots.append(j)
    for i, row in enumerate(hnf_rows):
        j = pivots[i]
        if v[j] % row[j] != 0:
            return None
        q = v[j] // row[j]
        coeffs[i] = q
        if q:
            for jj in range(m):
                v[jj] -= q * row[jj]
    if any(v):
        return None
    return coeffs


def kernel(rows):
    """Basis of the left kernel {x : x @ rows == 0} as a list of rows."""
    if not rows:
        return []
    k = len(rows)
    _, full, trans = hnf(rows, with_transform=True)
    ker = [trans[i] for i in range(k) if not any(full[i])]
    return ker


def snf(mat):
    """Smith normal form with transforms: returns (diag, U, V, W) where
    U @ mat @ V has ``diag`` on the diagonal, U and V unimodular,
    W = V^-1, and diag entries are nonnegative with d1 | d2 | ... .
    Each column operation on V is undone on the rows of W.
    """
    a = _copy(mat)
    rows = len(a)
    cols = len(a[0]) if a else 0
    U = identity(rows)
    V = identity(cols)
    W = identity(cols)

    def row_op(i1, i2, q):
        # row i2 -= q * row i1
        for j in range(cols):
            a[i2][j] -= q * a[i1][j]
        for j in range(rows):
            U[i2][j] -= q * U[i1][j]

    def col_op(j1, j2, q):
        # col j2 -= q * col j1
        for i in range(rows):
            a[i][j2] -= q * a[i][j1]
        for i in range(cols):
            V[i][j2] -= q * V[i][j1]
            W[j1][i] += q * W[j2][i]

    def row_swap(i1, i2):
        a[i1], a[i2] = a[i2], a[i1]
        U[i1], U[i2] = U[i2], U[i1]

    def col_swap(j1, j2):
        for i in range(rows):
            a[i][j1], a[i][j2] = a[i][j2], a[i][j1]
        for i in range(cols):
            V[i][j1], V[i][j2] = V[i][j2], V[i][j1]
        W[j1], W[j2] = W[j2], W[j1]

    t = 0
    while t < min(rows, cols):
        # locate a nonzero pivot
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            # clear column t
            again = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(t, i, q)
                    if a[i][t] != 0:
                        row_swap(t, i)
                        again = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(t, j, q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        again = True
            if not again:
                break
        # divisibility: a[t][t] must divide everything below-right
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(bad, t, -1)  # add row bad to row t, restart pivot cleanup
            continue
        if a[t][t] < 0:
            for j in range(cols):
                a[t][j] = -a[t][j]
            for j in range(rows):
                U[t][j] = -U[t][j]
        t += 1
    diag = [a[i][i] for i in range(min(rows, cols))]
    return diag, U, V, W


def stacked_kernel_mod(a_rows, modulus):
    """Generators of {x : x @ a_rows == 0 (mod modulus)} as integer rows.

    ``a_rows`` is k x m; solutions x live in Z^k and are returned as a list
    of generating rows (their reductions generate the solution group).  For
    a prime modulus they are an F_p basis, from ``kernel_mod``.
    """
    k = len(a_rows)
    if k == 0:
        return []
    if is_prime(modulus):
        return kernel_mod(a_rows, modulus)
    m = len(a_rows[0])
    stacked = [list(r) for r in a_rows]
    for j in range(m):
        stacked.append([modulus if jj == j else 0 for jj in range(m)])
    ker = kernel(stacked)
    return [row[:k] for row in ker]


def lattice_intersect(a_rows, b_rows):
    """Rows spanning rowspan(a_rows) & rowspan(b_rows)."""
    if not a_rows or not b_rows:
        return []
    m = len(a_rows[0])
    stacked = [list(r) for r in a_rows] + [list(r) for r in b_rows]
    ker = kernel(stacked)
    ka = len(a_rows)
    out = []
    for combo in ker:
        vec = [0] * m
        for i in range(ka):
            c = combo[i]
            if c:
                for j in range(m):
                    vec[j] += c * a_rows[i][j]
        out.append(vec)
    return hnf(out) if out else []


# -- over F_p ---------------------------------------------------------------


@lru_cache(maxsize=None)
def is_prime(n):
    return n > 1 and all(n % q for q in range(2, isqrt(n) + 1))


def echelon_mod(rows, p):
    """The reduced row echelon basis of the F_p span of ``rows``, p prime:
    tuples with entries in [0, p), in order of their pivots, each 1 at its
    own pivot and 0 at every other pivot."""
    basis = {}
    for v in rows:
        v = [x % p for x in v]
        for j, b in basis.items():
            c = v[j]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, b)]
        lead = next(filter(None, v), 0)
        if not lead:
            continue
        j = v.index(lead)
        if lead != 1:
            inv = pow(lead, -1, p)
            v = [x * inv % p for x in v]
        for i, b in basis.items():
            c = b[j]
            if c:
                basis[i] = [(x - c * y) % p for x, y in zip(b, v)]
        basis[j] = v
    return [tuple(basis[j]) for j in sorted(basis)]


def hnf_mod(echelon, p, m):
    """The row HNF of the lattice spanned by ``echelon``, an F_p echelon
    basis as ``echelon_mod`` gives it, and p Z^m: the echelon row at each
    of its pivot columns and p e_j at every other column j.

    These rows span the lattice, since p times an echelon row less the
    p e_j at its non-pivot columns is p e_i at its pivot i; each starts
    with a positive pivot on a new column, and every entry above a pivot
    lies in [0, pivot): 0 above a 1, which no other echelon row has in
    its column, and an entry in [0, p) above p.  So they are what ``hnf``
    gives for the rows stacked with p e_1, ..., p e_m."""
    at = {next(j for j, x in enumerate(row) if x): row for row in echelon}
    return [at.get(j) or row for j, row in enumerate(_scaled_units(p, m))]


@lru_cache(maxsize=None)
def _scaled_units(p, m):
    """p e_1, ..., p e_m, made once per (p, m) and shared by every HNF."""
    return tuple(tuple(p if k == j else 0 for k in range(m)) for j in range(m))


def kernel_mod(a_rows, p):
    """An F_p basis of {x : x @ a_rows == 0 (mod p)}, p prime: the row
    span of [a_rows | I] holds (x @ a_rows, x), and its echelon rows that
    are zero on the left span the solutions x on the right."""
    m = len(a_rows[0])
    k = len(a_rows)
    aug = [list(row) + [1 if j == i else 0 for j in range(k)]
           for i, row in enumerate(a_rows)]
    return [row[m:] for row in echelon_mod(aug, p) if not any(row[:m])]


def det_mod(mat, p):
    """The determinant of the square matrix ``mat`` mod p, p prime, in
    [0, p), by elimination over F_p; 1 for the 0 x 0 matrix."""
    d = len(mat)
    a = [[x % p for x in row] for row in mat]
    det = 1
    for col in range(d):
        piv = next((i for i in range(col, d) if a[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col] % p
        inv = pow(a[col][col], -1, p)
        for i in range(col + 1, d):
            if a[i][col]:
                f = a[i][col] * inv % p
                for j in range(col, d):
                    a[i][j] = (a[i][j] - f * a[col][j]) % p
    return det % p


def orientation(rows, echelon, p):
    """The determinant mod p of ``rows`` over ``echelon``, a reduced row
    echelon basis of their span: each row's coordinates over it are the
    row's entries at its pivots, so this is ``det_mod`` of ``rows`` read
    at those columns."""
    cols = [row.index(1) for row in echelon]
    return det_mod([[v[j] for j in cols] for v in rows], p)
