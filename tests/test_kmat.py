from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from heisenrep.cyclo import CycNum, euler_phi, root_of_unity
from heisenrep.kmat import mat_mul

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


def exact(mat):
    return [[(x.n, x.num, x.den) for x in row] for row in mat]


@st.composite
def entries(draw, height):
    n = draw(st.sampled_from(CONDUCTORS))
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
