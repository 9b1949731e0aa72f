import random
from fractions import Fraction

import pytest
from dense_oracle import lift_by_powers, lift_eq
from hypothesis import given, settings, strategies as st

from heisenrep.cyclo import (
    CycNum,
    CycloError,
    cyclotomic_poly,
    euler_phi,
    from_powers,
    gauss_sum_quadratic,
    in_subfield,
    legendre,
    mul_root,
    root_of_unity,
    sqrt_prime,
)

ODD_PRIMES_TO_50 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def sympy_reduce(coeffs, n):
    """Independent oracle: polynomial arithmetic over Q via sympy."""
    import sympy

    x = sympy.symbols("x")
    poly = sum(sympy.Rational(c) * x ** i for i, c in enumerate(coeffs))
    phi = sympy.cyclotomic_poly(n, x)
    rem = sympy.rem(sympy.expand(poly), phi, x)
    return sympy.Poly(rem, x).all_coeffs()[::-1]


def test_zeta3_sum_is_minus_one():
    z = root_of_unity(3)
    assert z + z ** 2 == -1


def test_zeta12_inverse_pair():
    assert root_of_unity(12, 1) * root_of_unity(12, 11) == 1


def test_one_plus_two_zeta3_squared_matches_polynomial_oracle():
    z = root_of_unity(3)
    value = (1 + 2 * z) ** 2
    # oracle: expand (1 + 2x)^2 and reduce mod the third cyclotomic polynomial
    oracle = sympy_reduce([1, 4, 4], 3)
    expect = CycNum(3, [int(c) for c in (oracle + [0] * 2)[:2]])
    assert value == expect
    assert value == -3


def test_root_of_unity_order_and_identity():
    z = root_of_unity(3)
    assert z ** 3 == 1
    assert root_of_unity(12, 3) ** 2 == -1
    assert root_of_unity(1, 5) == 1
    assert root_of_unity(7, 0) == 1


def test_primitivity_up_to_100():
    for n in range(1, 101):
        z = root_of_unity(n)
        acc = z
        for k in range(1, n):
            assert acc != 1, (n, k)
            acc = acc * z
        assert acc == 1, n


def test_sqrt_prime_squares():
    for p in ODD_PRIMES_TO_50:
        s = sqrt_prime(p)
        assert s * s == p
        assert s.n in (p, 4 * p)


def test_sqrt_prime_rejects_bad_input():
    with pytest.raises(CycloError):
        sqrt_prime(2)
    with pytest.raises(CycloError):
        sqrt_prime(9)


def test_sqrt5_by_direct_expansion():
    # oracle: g_5 = 1 + 2 z5 + 2 z5^4, squared by hand via cyc arithmetic
    z = root_of_unity(5)
    g5 = 1 + 2 * z + 2 * z ** 4
    assert gauss_sum_quadratic(5) == g5
    assert g5 * g5 == 5
    assert sqrt_prime(5) == g5


def test_sqrt3_equals_z12_plus_inverse():
    lhs = sqrt_prime(3)
    rhs = root_of_unity(12) + root_of_unity(12, 11)
    assert lhs == rhs
    assert rhs * rhs == 3


def test_gauss_sum_examples():
    g3 = gauss_sum_quadratic(3)
    assert g3 == 1 + 2 * root_of_unity(3)
    assert g3 * g3 == -3
    for p in ODD_PRIMES_TO_50:
        g = gauss_sum_quadratic(p)
        assert g * g == (p if p % 4 == 1 else -p)
        assert g ** 4 == p * p


def test_conj_galois():
    z = root_of_unity(3)
    assert z.conj() == root_of_unity(3, 2)
    assert sqrt_prime(5).conj() == sqrt_prime(5)
    rng = random.Random(0)
    for _ in range(25):
        n = rng.choice([3, 4, 5, 12, 15, 20])
        num = [rng.randrange(-5, 6) for _ in range(euler_phi(n))]
        a = CycNum(n, num, rng.randrange(1, 5))
        assert a.conj().conj() == a


def test_descend_examples():
    down = root_of_unity(12, 4).descend(3)
    assert down is not None and down.n == 3 and down == root_of_unity(3)
    assert sqrt_prime(3).descend(3) is None
    r = CycNum.rational(Fraction(-7, 5), 12)
    one = r.descend(1)
    assert one is not None and one.as_rational() == Fraction(-7, 5)


def test_descend_lift_roundtrip():
    rng = random.Random(1)
    for _ in range(30):
        m = rng.choice([1, 3, 4, 6])
        n = m * rng.choice([2, 3, 5])
        num = [rng.randrange(-4, 5) for _ in range(euler_phi(m))]
        a = CycNum(m, num, rng.randrange(1, 4))
        lifted = a.lift(n)
        back = lifted.descend(m)
        assert back is not None and back == a


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        root_of_unity(3) / CycNum.zero(3)


def test_nonpositive_conductor_rejected():
    for n in (0, -3):
        with pytest.raises(CycloError):
            CycNum.from_json({"conductor": n, "coeffs": ["1/1"]})
        with pytest.raises(CycloError):
            root_of_unity(n)
        with pytest.raises(CycloError):
            CycNum.rational(1, n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_from_powers_matches_naive_sum(data):
    n = data.draw(st.integers(1, 40))
    terms = data.draw(st.lists(
        st.tuples(st.integers(-n, 3 * n), st.integers(-6, 6)), max_size=8))
    den = data.draw(st.integers(1, 7))
    naive = CycNum.zero(n)
    for e, c in terms:
        naive = naive + c * root_of_unity(n, e)
    value = from_powers(n, terms, den)
    assert value.n == n
    assert value == naive / den


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lift_matches_the_walk_through_from_powers(data):
    """``lift`` through ``mul_root`` gives what the former walk through
    ``from_powers`` gave, over conductors 1 to 60 and multiples up to 4:
    value, conductor, coefficients and denominator; and a lift to the
    own conductor is x itself."""
    n = data.draw(st.integers(1, 60))
    phi = euler_phi(n)
    num = data.draw(st.lists(st.integers(-9, 9), min_size=phi, max_size=phi))
    x = CycNum(n, num, data.draw(st.sampled_from([1, 2, 3, -4, 6])))
    m = n * data.draw(st.integers(1, 4))
    got, want = x.lift(m), lift_by_powers(x, m)
    assert (got.n, got.num, got.den) == (want.n, want.num, want.den)
    assert got.n == m and got == x and (m != n or got is x)


def test_lift_refuses_a_conductor_that_n_does_not_divide():
    for m in (0, -3, 4, 10):
        with pytest.raises(CycloError):
            root_of_unity(3).lift(m)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inverse_matches_sympy_invert(data):
    import sympy

    n = data.draw(st.integers(1, 40))
    phi = euler_phi(n)
    num = data.draw(st.lists(st.integers(-6, 6), min_size=phi, max_size=phi)
                    .filter(any))
    den = data.draw(st.integers(1, 7))
    x = sympy.symbols("x")
    poly = sum(sympy.Rational(c, den) * x ** i for i, c in enumerate(num))
    oracle = sympy.Poly(sympy.invert(poly, sympy.cyclotomic_poly(n, x), x), x)
    coeffs = oracle.all_coeffs()[::-1]
    coeffs += [0] * (phi - len(coeffs))
    expect = CycNum.from_fractions(
        n, [Fraction(int(c.p), int(c.q)) for c in map(sympy.Rational, coeffs)])
    assert CycNum(n, num, den).inverse() == expect


def test_min_conductor_examples():
    assert root_of_unity(12, 4).min_conductor() == 3
    assert sqrt_prime(3).min_conductor() == 12
    assert CycNum.rational(Fraction(-7, 5), 15).min_conductor() == 1
    for x in (root_of_unity(12, 4), sqrt_prime(3), sqrt_prime(5),
              CycNum.rational(Fraction(-7, 5), 15), root_of_unity(9, 3) + 2):
        assert x.lift(x.n * 5).min_conductor() == x.min_conductor()


def test_hash_agrees_across_conductors():
    assert hash(root_of_unity(3)) == hash(root_of_unity(12, 4))
    assert hash(CycNum.rational(2, 15)) == hash(CycNum.rational(2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_field_axioms(data):
    n = data.draw(st.sampled_from([3, 4, 5, 12]))
    phi = euler_phi(n)
    nums = st.lists(st.integers(-8, 8), min_size=phi, max_size=phi)
    dens = st.integers(1, 6)
    a = CycNum(n, data.draw(nums), data.draw(dens))
    b = CycNum(n, data.draw(nums), data.draw(dens))
    c = CycNum(n, data.draw(nums), data.draw(dens))
    assert (a + b) + c == a + (b + c)
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if not b.is_zero():
        assert (a / b) * b == a


def test_multiplication_against_sympy_oracle():
    rng = random.Random(7)
    import sympy

    x = sympy.symbols("x")
    for _ in range(10):
        n = rng.choice([5, 12])
        phi = euler_phi(n)
        av = [rng.randrange(-6, 7) for _ in range(phi)]
        bv = [rng.randrange(-6, 7) for _ in range(phi)]
        mine = CycNum(n, av) * CycNum(n, bv)
        pa = sum(c * x ** i for i, c in enumerate(av))
        pb = sum(c * x ** i for i, c in enumerate(bv))
        rem = sympy.rem(sympy.expand(pa * pb), sympy.cyclotomic_poly(n, x), x)
        coeffs = [0] * phi
        for i, c in enumerate(sympy.Poly(rem, x).all_coeffs()[::-1]):
            coeffs[i] = int(c)
        assert mine == CycNum(n, coeffs)


def test_cyclotomic_poly_values():
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(3) == [1, 1, 1]
    assert cyclotomic_poly(4) == [1, 0, 1]
    assert cyclotomic_poly(12) == [1, 0, -1, 0, 1]


def test_serialization_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.choice([3, 12, 15])
        a = CycNum(n, [rng.randrange(-9, 10) for _ in range(euler_phi(n))],
                   rng.randrange(1, 8))
        assert CycNum.from_json(a.to_json()) == a


def fraction_json(x):
    """The serialization by way of Fraction, the reference for to_json."""
    fracs = [Fraction(c, x.den) for c in x.num]
    return {"conductor": x.n,
            "coeffs": ["%d/%d" % (f.numerator, f.denominator) for f in fracs]}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_to_json_matches_fraction_formatter(data):
    n = data.draw(st.sampled_from([1, 3, 5, 9, 15, 27]))
    phi = euler_phi(n)
    coeff = st.one_of(st.integers(-9, 9), st.integers(-2 ** 64, 2 ** 64))
    num = data.draw(st.one_of(st.just([0] * phi),
                              st.lists(coeff, min_size=phi, max_size=phi)))
    den = data.draw(st.one_of(st.integers(1, 30),
                              st.integers(1, 2 ** 61 - 1),
                              st.just(2 ** 61 - 1)))
    x = CycNum(n, num, data.draw(st.sampled_from([den, -den])))
    # the constructors that pass a normalized denominator through
    for y in (x, -x, mul_root(x, 3, data.draw(st.integers(0, 2)))):
        assert y.den > 0
        assert y.to_json() == fraction_json(y)
        assert CycNum.from_json(y.to_json()) == y


EQ_CONDUCTORS = [1, 3, 4, 5, 9, 12, 15, 27]


@st.composite
def eq_operands(draw):
    """Values for comparison: small random elements and zeros at the
    conductors above, and values derived from them that equal them at
    other conductors or differ from them by a sign or a root of unity."""
    n = draw(st.sampled_from(EQ_CONDUCTORS))
    phi = euler_phi(n)
    if draw(st.booleans()):
        x = CycNum.zero(n)
    else:
        num = draw(st.lists(st.integers(-1, 1), min_size=phi, max_size=phi))
        x = CycNum(n, num, draw(st.sampled_from([1, 2, -2])))
    kind = draw(st.sampled_from(["same", "lift", "neg", "root", "rational"]))
    if kind == "lift":
        y = x.lift(x.n * draw(st.sampled_from([1, 2, 3, 5])))
    elif kind == "neg":
        y = -x
    elif kind == "root":
        m = draw(st.sampled_from([1, 2, 3, 4, 5, 9]))
        y = mul_root(x, m, draw(st.integers(-m, m)))
    elif kind == "rational":
        y = draw(st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-1, 2)]))
    else:
        y = x
    return x, y


@settings(max_examples=400, deadline=None)
@given(eq_operands(), eq_operands())
def test_eq_matches_comparison_at_the_lcm(first, second):
    values = [*first, *second]
    for x in values:
        for y in values:
            # a CycNum on the left; two int/Fraction operands are skipped
            a, b = (x, y) if isinstance(x, CycNum) else (y, x)
            if not isinstance(a, CycNum):
                continue
            want = lift_eq(a, b)
            assert (a == b) is want and (b == a) is want
            assert (a != b) is (not want) and (b != a) is (not want)


def test_eq_across_conductors_examples():
    z3 = root_of_unity(3)
    assert z3 == root_of_unity(12, 4) and z3.lift(27) == z3
    assert CycNum.zero(5) == CycNum.zero(27) == 0
    assert CycNum.zero(4) != root_of_unity(4) and root_of_unity(4) != 0
    assert mul_root(-z3, 2, 1) == z3 and -z3 != z3
    assert CycNum.rational(Fraction(1, 2), 15) == Fraction(1, 2)
    assert 2 == CycNum.rational(2, 9) and 2 != CycNum.rational(2, 9) + z3


def test_in_subfield():
    s3 = sqrt_prime(3)
    z3 = root_of_unity(3)
    assert in_subfield(s3, [s3])
    assert in_subfield(z3, [root_of_unity(3)])
    assert not in_subfield(s3, [z3])
    assert in_subfield(s3 * z3, [z3, s3])


def test_legendre():
    assert legendre(2, 3) == -1
    assert legendre(4, 5) == 1
    assert legendre(0, 7) == 0
    assert legendre(3, 7) == -1
