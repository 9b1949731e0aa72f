from fractions import Fraction
from math import lcm

import pytest
from dense_oracle import proportionality_full
from hypothesis import given, settings, strategies as st

from heisenrep.cyclo import CycNum, euler_phi, mul_root, root_of_unity
from heisenrep.kmat import (
    GenPerm,
    identity,
    kron,
    mat_eq,
    mat_mul,
    neg,
    proportionality,
    scalar_mul,
)

CONDUCTORS = [1, 3, 4, 5, 9, 12, 15, 27]


def _mat_mul_reference(a, b):
    """The scalar triple loop: one CycNum multiply and add per pair of
    nonzero entries."""
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for i in range(rows):
        arow = a[i]
        new = []
        for j in range(cols):
            acc = None
            for k in range(inner):
                x = arow[k]
                if x.is_zero():
                    continue
                y = b[k][j]
                if y.is_zero():
                    continue
                t = x * y
                acc = t if acc is None else acc + t
            new.append(acc if acc is not None else CycNum.zero(1))
        out.append(new)
    return out


def _kron_reference(a, b):
    """One CycNum product per pair of entries, zero or not."""
    ra, rb = len(a), len(b)
    ca = len(a[0]) if a else 0
    cb = len(b[0]) if b else 0
    out = []
    for i in range(ra * rb):
        i1, i2 = divmod(i, rb)
        row = []
        for j in range(ca * cb):
            j1, j2 = divmod(j, cb)
            row.append(a[i1][j1] * b[i2][j2])
        out.append(row)
    return out


def exact(mat):
    return [[(x.n, x.num, x.den) for x in row] for row in mat]


@st.composite
def entries(draw, height, conductors=CONDUCTORS):
    n = draw(st.sampled_from(conductors))
    phi = euler_phi(n)
    kind = draw(st.sampled_from(["zero", "random", "random", "extreme"]))
    if kind == "zero":
        return CycNum.zero(n)
    if kind == "extreme":
        # every digit at -height, so each packed digit borrows from the next
        num = [-height] * phi
    else:
        num = draw(st.lists(st.integers(-height, height),
                            min_size=phi, max_size=phi))
    den = draw(st.sampled_from([1, 1, 2, 3, 7, 12, 2 ** 61 - 1]))
    return CycNum(n, num, den)


@st.composite
def products(draw):
    rows, inner, cols = (draw(st.integers(0, 6)) for _ in range(3))
    height = draw(st.sampled_from([1, 2, 5, 2 ** 31, 2 ** 300]))
    a = [[draw(entries(height)) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(entries(height)) for _ in range(cols)] for _ in range(inner)]
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, rows - 1))
        a[i] = [CycNum.zero(draw(st.sampled_from(CONDUCTORS)))
                for _ in range(inner)]
    if cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in b:
            row[j] = CycNum.zero(draw(st.sampled_from(CONDUCTORS)))
    if inner >= 2 and draw(st.booleans()):
        # a duplicated column of a against a negated row of b: those two
        # terms cancel in every entry
        for row in a:
            row[1] = row[0]
        b[1] = [-y for y in b[0]]
    return a, b


@settings(max_examples=200, deadline=None)
@given(products())
def test_mat_mul_matches_reference(ab):
    a, b = ab
    assert exact(mat_mul(a, b)) == exact(_mat_mul_reference(a, b))


@st.composite
def nonzero_entries(draw, height):
    x = draw(entries(height))
    return x if any(x.num) else root_of_unity(x.n, draw(st.integers(0, x.n)))


def shared_zeros(mat):
    """Whether the zero entries of each conductor are one object."""
    seen = {}
    return all(seen.setdefault(x.n, x) is x
               for row in mat for x in row if not any(x.num))


@settings(max_examples=150, deadline=None)
@given(products(), st.booleans(),
       st.sampled_from([1, 5, 2 ** 31, 2 ** 300]).flatmap(nonzero_entries))
def test_scaled_product_is_scalar_mul_of_product(ab, adjoint, c):
    a, b = ab
    if adjoint:
        # b (inner x cols) read as the cols x inner factor of a @ b^H
        b = [list(col) for col in zip(*b)]
    got = mat_mul(a, b, adjoint=adjoint, scale=c)
    assert exact(got) == exact(scalar_mul(c, mat_mul(a, b, adjoint=adjoint)))
    assert shared_zeros(got) and shared_zeros(mat_mul(a, b, adjoint=adjoint))


def test_scaled_product_shares_cancelled_zeros():
    z3 = root_of_unity(3)
    one = CycNum.one(1)
    # row 0 cancels against column 0 at conductor 3 (9 with c) and against
    # column 1 at conductor 15 (45 with c); row 1 meets no nonzero entry
    a = [[z3, z3, one], [CycNum.zero(5), CycNum.zero(5), CycNum.zero(5)]]
    b = [[one, root_of_unity(5)], [-one, -root_of_unity(5)],
         [CycNum.zero(1), CycNum.zero(1)]]
    c = root_of_unity(9, 4) / 7
    out = mat_mul(a, b, scale=c)
    assert exact(out) == exact(scalar_mul(c, mat_mul(a, b)))
    assert [[x.n for x in row] for row in out] == [[9, 45], [9, 9]]
    assert all(x.is_zero() for row in out for x in row)
    assert out[0][0] is out[1][0] is out[1][1]
    again = mat_mul(a + a, b, scale=c)
    assert again[0][1] is again[2][1]
    # z3 * z3 + z3 + 1 packs as x^2 + x + 1, which vanishes only mod Phi_3
    a, b = [[z3, one, one]] * 2, [[z3], [z3], [one]]
    out = mat_mul(a, b, scale=c)
    assert exact(out) == exact(scalar_mul(c, mat_mul(a, b)))
    assert out[0][0].is_zero() and out[0][0] is out[1][0]


def test_mat_eq_shapes_and_conductors():
    z3 = root_of_unity(3)
    a = [[z3, CycNum.zero(1)], [CycNum.one(1), z3]]
    b = [[z3.lift(9), CycNum.zero(5)], [CycNum.one(15), z3.lift(15)]]
    assert mat_eq(a, b) and mat_eq(b, a)
    assert not mat_eq(a, [a[0]])
    assert not mat_eq(a, [a[0], a[1][:1]])
    assert not mat_eq(a, [a[0], a[1] + [CycNum.zero(1)]])
    assert not mat_eq(a, [[z3, CycNum.zero(1)], [CycNum.one(1), z3 * z3]])
    assert mat_eq([], []) and not mat_eq([], [[]])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_proportionality_matches_full_loop(data):
    height = data.draw(st.sampled_from([1, 5, 2 ** 31]))
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    b = [[data.draw(entries(height)) for _ in range(cols)] for _ in range(rows)]
    c = data.draw(nonzero_entries(height))
    kind = data.draw(st.sampled_from(["proportional", "zero b", "other",
                                      "nonzero where b is zero"]))
    if kind == "zero b":
        b = [[CycNum.zero(data.draw(st.sampled_from(CONDUCTORS)))
              for _ in range(cols)] for _ in range(rows)]
    a = scalar_mul(c, b)
    if kind == "other":
        i, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
        a[i][j] = a[i][j] + data.draw(nonzero_entries(height))
    elif kind == "nonzero where b is zero":
        zeros = [(i, j) for i in range(rows) for j in range(cols)
                 if b[i][j].is_zero()]
        if zeros:
            i, j = data.draw(st.sampled_from(zeros))
            a[i][j] = data.draw(nonzero_entries(height))
        else:
            kind = "proportional"
    got, want = proportionality(a, b), proportionality_full(a, b)
    assert (got is None) == (want is None)
    if got is not None:
        assert exact([[got]]) == exact([[want]])
    if kind in ("zero b", "nonzero where b is zero"):
        assert got is None
    elif kind == "proportional" and any(any(y.num) for row in b for y in row):
        assert got == c


ADJOINT_CONDUCTORS = [1, 3, 5, 9, 15, 27]


def conj_transpose(b, inner):
    return [[row[k].conj() for row in b] for k in range(inner)]


@st.composite
def adjoint_products(draw):
    """(a, b, inner) with a rows x inner and b cols x inner."""
    rows, inner, cols = (draw(st.integers(0, 6)) for _ in range(3))
    height = draw(st.sampled_from([1, 2, 5, 2 ** 31, 2 ** 300]))
    cell = entries(height, ADJOINT_CONDUCTORS)
    a = [[draw(cell) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(cell) for _ in range(inner)] for _ in range(cols)]
    if cols and draw(st.booleans()):
        b[draw(st.integers(0, cols - 1))] = [
            CycNum.zero(draw(st.sampled_from(ADJOINT_CONDUCTORS)))
            for _ in range(inner)]
    return a, b, inner


@settings(max_examples=200, deadline=None)
@given(adjoint_products())
def test_adjoint_product_matches_product_with_conjugate_transpose(abk):
    a, b, inner = abk
    got = mat_mul(a, b, adjoint=True)
    if not inner:
        # b^H has no rows, so as a list it loses its width len(b)
        assert exact(got) == [[(1, (0,), 1)] * len(b)] * len(a)
        return
    assert exact(got) == exact(mat_mul(a, conj_transpose(b, inner)))
    assert exact(got) == exact(_mat_mul_reference(a, conj_transpose(b, inner)))


def test_adjoint_product_shape_mismatch():
    one = CycNum.one(3)
    a23 = [[one] * 3 for _ in range(2)]
    a22 = [[one] * 2 for _ in range(2)]
    with pytest.raises(ValueError, match=r"2x3.*2x2"):
        mat_mul(a23, a22, adjoint=True)
    with pytest.raises(ValueError, match=r"2x2.*3x2"):
        mat_mul(a22, a23, adjoint=True)
    assert mat_mul(a23, [], adjoint=True) == [[], []]


def test_empty_inner_dimension():
    a = [[] for _ in range(3)]
    assert mat_mul(a, []) == [[], [], []]
    assert mat_mul([], [[CycNum.one(3)] * 2]) == []


def test_cancelling_entry_keeps_the_contributing_conductor():
    x = root_of_unity(9, 2) + CycNum.rational(Fraction(3, 4))
    y = root_of_unity(4) - 1
    a = [[x, x], [CycNum.zero(5), CycNum.zero(9)]]
    b = [[y, CycNum.zero(3)], [-y, CycNum.zero(1)]]
    out = mat_mul(a, b)
    assert exact(out) == exact(_mat_mul_reference(a, b))
    assert out[0][0].is_zero() and out[0][0].n == 36 and out[0][0].den == 1
    assert all(out[i][j].n == 1 for (i, j) in [(0, 1), (1, 0), (1, 1)])


def test_conductor_below_the_common_one():
    z3, z4, z5 = root_of_unity(3), root_of_unity(4), root_of_unity(5)
    a = [[z3, CycNum.zero(1)], [z3, z5]]
    b = [[z3 + 1, z4], [CycNum.one(1), z5]]
    out = mat_mul(a, b)
    assert exact(out) == exact(_mat_mul_reference(a, b))
    assert [[x.n for x in row] for row in out] == [[3, 12], [15, 60]]


def test_mat_mul_sympy_oracle():
    """Each entry of a small mixed-conductor product against the sum of
    polynomial products reduced modulo the N-th cyclotomic polynomial."""
    import sympy

    def q(num, den=1):
        return CycNum.rational(Fraction(num, den))

    a = [[root_of_unity(3) + q(1, 2), q(-3), CycNum.zero(5)],
         [root_of_unity(4, 3) * q(2, 5), root_of_unity(12, 7), root_of_unity(3)]]
    b = [[root_of_unity(12, 5) - q(1, 3), CycNum.zero(4)],
         [root_of_unity(3, 2), q(7, 2)],
         [root_of_unity(4) + root_of_unity(3), q(-1, 6)]]
    N = 12
    x = sympy.symbols("x")

    def poly(c):
        step = N // c.n
        return sum(sympy.Rational(v, c.den) * x ** (step * t)
                   for t, v in enumerate(c.num))

    phi = sympy.cyclotomic_poly(N, x)
    out = mat_mul(a, b)
    for i in range(2):
        for j in range(2):
            total = sum(poly(a[i][k]) * poly(b[k][j]) for k in range(3))
            rem = sympy.Poly(sympy.rem(sympy.expand(total), phi, x), x)
            coeffs = rem.all_coeffs()[::-1]
            coeffs += [0] * (euler_phi(N) - len(coeffs))
            expect = CycNum.from_fractions(
                N, [Fraction(int(c.p), int(c.q)) for c in map(sympy.Rational, coeffs)])
            got = out[i][j]
            assert got.lift(lcm(got.n, N)) == expect


def test_shape_mismatch_names_both_shapes():
    one = CycNum.one(3)
    a23 = [[one] * 3 for _ in range(2)]
    a22 = [[one] * 2 for _ in range(2)]
    b32 = [[one] * 2 for _ in range(3)]
    with pytest.raises(ValueError, match=r"2x3.*2x2"):
        mat_mul(a23, a22)
    with pytest.raises(ValueError, match=r"2x2.*3x2"):
        mat_mul(a22, b32)


@st.composite
def matrices(draw, height, max_dim=4):
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    return [[draw(entries(height)) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 5, 2 ** 31, 2 ** 300]).flatmap(
    lambda h: st.tuples(matrices(h), matrices(h))))
def test_kron_matches_reference(ab):
    a, b = ab
    assert exact(kron(a, b)) == exact(_kron_reference(a, b))


def test_kron_zero_factor_keeps_its_conductor():
    z3, z5 = root_of_unity(3), root_of_unity(5)
    a = [[z3, CycNum.zero(9)], [CycNum.zero(1), CycNum.one(3)]]
    b = [[CycNum.zero(5), z5], [CycNum.zero(4), CycNum.zero(1)]]
    out = kron(a, b)
    assert exact(out) == exact(_kron_reference(a, b))
    assert [[x.n for x in row] for row in out] == [
        [15, 15, 45, 45], [12, 3, 36, 9], [5, 5, 15, 15], [4, 1, 12, 3]]
    assert all(x.is_zero() for row in out for x in row if x.n != 15)


def test_scalar_mul_zeros_are_shared_products():
    c = root_of_unity(9, 2) / 7
    a = [[CycNum.zero(1), root_of_unity(3), CycNum.zero(27)],
         [CycNum.zero(5), CycNum.zero(1), CycNum.rational(2, 5)],
         [CycNum.zero(27), CycNum.zero(4), CycNum.zero(5)]]
    out = scalar_mul(c, a)
    assert exact(out) == exact([[c * x for x in row] for row in a])
    # one zero per conductor of the zero entries
    assert out[0][0] is out[1][1] and out[0][2] is out[2][0]
    assert out[1][0] is out[2][2] and out[0][0] is not out[0][2]


@settings(max_examples=150, deadline=None)
@given(matrices(5))
def test_neg_is_entrywise_and_keeps_zeros(a):
    out = neg(a)
    assert mat_eq(out, [[-x for x in row] for row in a])
    assert exact(out) == exact([[-x for x in row] for row in a])
    for row, new_row in zip(a, out):
        for x, y in zip(row, new_row):
            assert (y is x) == x.is_zero()


def test_kron_empty_factors():
    b = [[CycNum.one(3)] * 2 for _ in range(3)]
    assert kron([], b) == []
    assert kron(b, []) == []
    assert kron([[], []], b) == [[]] * 6
    assert kron(b, [[]]) == [[]] * 3


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mul_root_matches_product(data):
    x = data.draw(entries(data.draw(st.sampled_from([1, 7, 2 ** 70, 2 ** 300]))))
    n = data.draw(st.sampled_from([1, 3, 5, 7, 9, 15, 27]))
    e = data.draw(st.integers(-2 * n, 2 * n))
    assert exact([[mul_root(x, n, e)]]) == exact([[x * root_of_unity(n, e)]])


@st.composite
def genperms(draw, dim):
    n = draw(st.sampled_from([1, 3, 5, 9, 15, 27]))
    perm = draw(st.permutations(range(dim)))
    expo = draw(st.lists(st.integers(-2 * n, 2 * n), min_size=dim, max_size=dim))
    return GenPerm(perm, expo, n)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_genperm_apply_matches_products(data):
    dim = data.draw(st.integers(0, 4))
    height = data.draw(st.sampled_from([1, 2 ** 31, 2 ** 300]))
    g = data.draw(genperms(dim))
    dense = [[data.draw(entries(height)) for _ in range(dim)] for _ in range(dim)]
    roots = [root_of_unity(g.n, e) for e in g.expo]
    left = [None] * dim
    for k, (i, s) in enumerate(zip(g.perm, roots)):
        left[i] = [s * x for x in dense[k]]
    right = [[row[i] * s for i, s in zip(g.perm, roots)] for row in dense]
    assert exact(g.apply_left(dense)) == exact(left)
    assert exact(g.apply_right(dense)) == exact(right)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(lambda d: st.tuples(genperms(d), genperms(d))))
def test_genperm_compose_and_inverse_match_dense(gh):
    g, h = gh
    dim = g.dim
    assert mat_eq(g.compose(h).to_dense(), mat_mul(g.to_dense(), h.to_dense()))
    assert mat_eq(mat_mul(g.to_dense(), g.inverse().to_dense()), identity(dim))
    assert g.compose(g.inverse()) == GenPerm(range(dim), [0] * dim, 1)


def test_genperm_equality_across_conductors():
    assert GenPerm([1, 0], [2, 0], 3) == GenPerm([1, 0], [6, 9], 9)
    assert GenPerm([1, 0], [2, 0], 3) != GenPerm([1, 0], [2, 1], 9)
    assert GenPerm([1, 0], [0, 0], 3) != GenPerm([0, 1], [0, 0], 3)
