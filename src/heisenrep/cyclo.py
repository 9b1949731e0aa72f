"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, z, ..., z^(phi(N)-1) modulo the
N-th cyclotomic polynomial, with an integer coefficient vector over a common
positive denominator.  Everything is exact; there is no floating point.

The compatible system of roots is zeta_N with zeta_N^(N/M) = zeta_M whenever
M | N, which is what makes cross-conductor lifting and descent canonical.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class CycloError(ValueError):
    pass


def euler_phi(n):
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divmod_int(num, den):
    """Exact division of integer polynomials (den monic up to content)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    dlead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        coef = num[k + len(den) - 1]
        assert coef % dlead == 0
        q = coef // dlead
        out[k] = q
        if q:
            for j, d in enumerate(den):
                num[k + j] -= q * d
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return out


_CYCLO_POLY_CACHE = {1: [-1, 1]}


def cyclotomic_poly(n):
    """Coefficient list (ascending) of the n-th cyclotomic polynomial."""
    if n in _CYCLO_POLY_CACHE:
        return _CYCLO_POLY_CACHE[n]
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            phi_d = cyclotomic_poly(d)
            new = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                if a:
                    for j, b in enumerate(phi_d):
                        new[i + j] += a * b
            den = new
    poly = _poly_divmod_int(num, den)
    _CYCLO_POLY_CACHE[n] = poly
    return poly


class _Ctx:
    """Per-conductor tables: the reduction of each power of zeta mod Phi_N
    as the (index, coefficient) pairs of its nonzero coefficients."""

    __slots__ = ("n", "phi", "poly", "pow_terms")

    def __init__(self, n):
        self.n = n
        poly = cyclotomic_poly(n)
        self.poly = poly
        self.phi = len(poly) - 1
        phi = self.phi
        # x^e reduced mod Phi_N for e up to max(N, 2*phi - 1)
        top = max(n, 2 * phi - 1) + 1
        cur = [0] * phi
        cur[0] = 1
        terms = self.pow_terms = [((0, 1),)]
        for _ in range(1, top):
            nxt = [0] + cur[:-1] if phi > 1 else [0]
            lead = cur[phi - 1]
            if lead:
                # x^phi == -(poly[0] + ... + poly[phi-1] x^(phi-1))
                for j in range(phi):
                    nxt[j] -= lead * poly[j]
            cur = nxt
            terms.append(tuple((j, r) for j, r in enumerate(cur) if r))


_CTX_CACHE = {}


def _ctx(n):
    ctx = _CTX_CACHE.get(n)
    if ctx is None:
        if n < 1:
            raise CycloError("conductor must be positive, got %r" % (n,))
        ctx = _Ctx(n)
        _CTX_CACHE[n] = ctx
    return ctx


def _normalize(num, den):
    if den < 0:
        den = -den
        num = [-x for x in num]
    g = den
    for x in num:
        if x:
            g = gcd(g, x)
            if g == 1:
                break
    if g > 1:
        den //= g
        num = [x // g for x in num]
    if not any(num):
        den = 1
    return tuple(num), den


class CycNum:
    """Element of Q(zeta_N), coefficients in the power basis mod Phi_N."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n, num, den=1, _normalized=False):
        ctx = _ctx(n)
        if len(num) != ctx.phi:
            raise CycloError(
                "coefficient vector has length %d, expected phi(%d)=%d"
                % (len(num), n, ctx.phi)
            )
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        self.n = n
        if _normalized:
            self.num = tuple(num)
            self.den = den
        else:
            self.num, self.den = _normalize(list(num), den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(value, n=1):
        frac = Fraction(value)
        ctx = _ctx(n)
        num = [0] * ctx.phi
        num[0] = frac.numerator
        return CycNum(n, num, frac.denominator)

    @staticmethod
    def from_fractions(n, fracs):
        """The element with power-basis coefficients ``fracs`` (rationals)."""
        den = lcm(*(f.denominator for f in fracs))
        return CycNum(n, [int(f * den) for f in fracs], den)

    @staticmethod
    def zero(n=1):
        return CycNum.rational(0, n)

    @staticmethod
    def one(n=1):
        return CycNum.rational(1, n)

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def as_rational(self):
        if not self.is_rational():
            raise CycloError("not a rational number")
        return Fraction(self.num[0], self.den)

    def lift(self, m):
        """Rewrite at conductor m (requires n | m): ``mul_root`` by 1."""
        if m < 1 or m % self.n != 0:
            raise CycloError("cannot lift conductor %d to %d" % (self.n, m))
        return mul_root(self, m, 0)

    def _common(self, other):
        if not isinstance(other, CycNum):
            other = CycNum.rational(other)
        t = lcm(self.n, other.n)
        return self.lift(t), other.lift(t)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        a, b = self._common(other)
        da, db = a.den, b.den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        num = [x * ma + y * mb for x, y in zip(a.num, b.num)]
        return CycNum(a.n, num, da * ma)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.n, [-x for x in self.num], self.den, _normalized=True)

    def __sub__(self, other):
        if not isinstance(other, CycNum):
            other = CycNum.rational(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, CycNum):
            other = CycNum.rational(other)
        a, b = self._common(other)
        ctx = _ctx(a.n)
        phi = ctx.phi
        an, bn = a.num, b.num
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(an):
            if x:
                for j, y in enumerate(bn):
                    if y:
                        conv[i + j] += x * y
        out = conv[:phi]
        table = ctx.pow_terms
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                for j, r in table[k]:
                    out[j] += c * r
        return CycNum(a.n, out, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self):
        """1/x = P / N(x), where P is the product of the conjugates
        sigma_k(x) over the units k != 1 mod N, so that the norm
        N(x) = x * P is rational."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.n)
        n = self.n
        P = CycNum.one(n)
        for k in range(2, n):
            if gcd(k, n) == 1:
                P = P * self.galois(k)
        norm = (self * P).as_rational()
        return CycNum(n, [x * norm.denominator for x in P.num],
                      P.den * norm.numerator)

    def __truediv__(self, other):
        if not isinstance(other, CycNum):
            other = CycNum.rational(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return CycNum.rational(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = CycNum.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        """Exact equality.  At one conductor the representations are
        compared directly: every constructor normalizes (content reduced,
        den > 0, zero over 1), the _normalized paths keep that, and the
        power basis mod Phi_N is a basis.  A zero equals only a zero;
        other values are compared at the lcm of their conductors."""
        if not isinstance(other, CycNum):
            if isinstance(other, (int, Fraction)):
                other = CycNum.rational(other)
            else:
                return NotImplemented
        if self.n == other.n:
            return self.num == other.num and self.den == other.den
        if not any(self.num) or not any(other.num):
            return not any(self.num) and not any(other.num)
        a, b = self._common(other)
        return a.num == b.num and a.den == b.den

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        d = self.descend_min()
        return hash((d.n, d.num, d.den))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.num):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("%d*z%d" % (c, self.n))
            else:
                terms.append("%d*z%d^%d" % (c, self.n, i))
        body = " + ".join(terms) if terms else "0"
        if self.den != 1:
            return "(%s)/%d" % (body, self.den)
        return body

    # -- Galois -------------------------------------------------------

    def galois(self, k):
        """Apply zeta_N -> zeta_N^k; requires gcd(k, N) = 1."""
        n = self.n
        k %= n
        if n == 1:
            return self
        if gcd(k, n) != 1:
            raise CycloError("galois exponent %d not coprime to %d" % (k, n))
        return from_powers(n, zip(range(0, k * len(self.num), k), self.num),
                           self.den)

    def conj(self):
        """The automorphism zeta -> zeta^(-1) (complex conjugation)."""
        return self.galois(self.n - 1) if self.n > 2 else self

    def _fixed_below(self, m):
        """Whether self is fixed by every zeta_N -> zeta_N^k with
        k = 1 (mod m), the automorphisms fixing Q(zeta_m) for m | N; so
        whether self lies in Q(zeta_m)."""
        n = self.n
        return all(self.galois(k) == self
                   for k in range(1 + m, n, m) if gcd(k, n) == 1)

    def descend(self, m):
        """Representation at conductor m if self lies in Q(zeta_m), else None.

        Membership is decided by invariance under the Galois automorphisms
        fixing Q(zeta_m); the coefficients are then found by exact solving.
        """
        x = self
        if x.n % m != 0:
            x = x.lift(lcm(x.n, m))
        n = x.n
        if n == m:
            return x
        if not x._fixed_below(m):
            return None
        # solve for coordinates over the power basis of Q(zeta_m)
        ctx_n = _ctx(n)
        phi_m = _ctx(m).phi
        step = n // m
        cols = [_power_sum(ctx_n, ((step * j, 1),)) for j in range(phi_m)]
        target = [Fraction(c, x.den) for c in x.num]
        sol = _solve_rational(cols, target)
        if sol is None:
            return None
        return CycNum.from_fractions(m, sol)

    def descend_min(self):
        """Representation at the smallest conductor dividing n."""
        return self.descend(self.min_conductor())

    def min_conductor(self):
        """The smallest m | n with self in Q(zeta_m)."""
        n = self.n
        return next(m for m in range(1, n + 1)
                    if n % m == 0 and self._fixed_below(m))

    # -- serialization ------------------------------------------------

    def to_json(self):
        """Coefficients as reduced fractions "p/q" with q > 0; den is
        positive, as ``_normalize`` makes it and the _normalized
        constructors keep it."""
        den = self.den
        if den == 1:
            coeffs = ["%d/1" % c for c in self.num]
        else:
            coeffs = []
            for c in self.num:
                g = gcd(c, den)
                coeffs.append("%d/%d" % (c // g, den // g))
        return {"conductor": self.n, "coeffs": coeffs}

    @staticmethod
    def from_json(obj):
        return CycNum.from_fractions(obj["conductor"],
                                     [Fraction(s) for s in obj["coeffs"]])


def _solve_rational(cols, target):
    """Solve sum_j x_j cols[j] == target over Q; cols are coefficient rows."""
    rows = len(target)
    ncols = len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(ncols)] + [target[i]]
           for i in range(rows)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][ncols]
    # m validity: columns with no pivot stay zero; verify exactness
    for i in range(rows):
        acc = Fraction(0)
        for j in range(ncols):
            if sol[j]:
                acc += sol[j] * cols[j][i]
        if acc != target[i]:
            return None
    return sol


# -- public operations ----------------------------------------------------


def _power_sum(ctx, terms):
    """Power-basis coefficients of sum of c * zeta^(e mod N) over the (e, c)
    pairs of ``terms``, at the conductor N of ``ctx``; the one place
    exponent multiplicities become field elements."""
    n = ctx.n
    table = ctx.pow_terms
    out = [0] * ctx.phi
    for e, c in terms:
        if c:
            for j, r in table[e % n]:
                out[j] += c * r
    return out


def from_powers(n, terms, den=1):
    """sum of c * zeta_n^(e mod n) over the (e, c) pairs of ``terms``, over
    den."""
    return CycNum(n, _power_sum(_ctx(n), terms), den)


def mul_root(x, n, e):
    """x * zeta_n^e, at conductor N = lcm(n, x.n), as one walk over the
    coefficients of x: the coefficient of zeta_(x.n)^t moves to exponent
    t * N / x.n + e * N / n of zeta_N, with no polynomial product.

    x itself is the result when it needs neither a lift nor a rotation,
    and when it is a zero of conductor N.

    Lifting and multiplying by a root of unity map Z[zeta_N] onto itself,
    so they keep the content of x (the gcd of its coefficients, in a
    Z-basis of Z[zeta_N]); a normalized x therefore gives a normalized
    result, built without a second gcd pass.
    """
    N = lcm(n, x.n)
    shift = (N // n) * e
    if N == x.n and not (shift % N and any(x.num)):
        return x
    step = N // x.n
    terms = zip(range(shift, shift + step * len(x.num), step), x.num)
    return CycNum(N, _power_sum(_ctx(N), terms), x.den, _normalized=True)


def root_of_unity(n, k=1):
    """zeta_n^k as a CycNum of conductor n."""
    ctx = _ctx(n)
    num = [0] * ctx.phi
    for j, r in ctx.pow_terms[k % n]:
        num[j] = r
    return CycNum(n, num)


def gauss_sum_quadratic(p):
    """g_p = sum over x mod p of zeta_p^(x^2); satisfies g_p^2 = (-1)^((p-1)/2) p."""
    if p == 2 or euler_phi(p) != p - 1:
        raise CycloError("%r is not an odd prime" % (p,))
    return from_powers(p, ((x * x, 1) for x in range(p)))


def sqrt_prime(p):
    """The canonical square root of an odd prime p inside Q(zeta_4p).

    g_p when p = 1 (mod 4), and zeta_4^(-1) g_p when p = 3 (mod 4); in both
    cases the square is exactly p and the value is the positive real root
    under the standard embedding.
    """
    g = gauss_sum_quadratic(p)
    if p % 4 == 1:
        return g
    return root_of_unity(4, 3) * g


def legendre(a, p):
    """Legendre symbol (a|p) in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def fixing_exponents(n, fixed):
    """All k in (Z/n)^* whose Galois action fixes every element of ``fixed``."""
    out = []
    lifted = [f.lift(n) if f.n != n else f for f in fixed]
    for k in range(1, n + 1):
        if gcd(k, n) != 1:
            continue
        if all(f.galois(k) == f for f in lifted):
            out.append(k)
    return out


def in_subfield(a, generators):
    """Exact membership of ``a`` in the subfield generated by ``generators``.

    Tested by invariance under every Galois automorphism of the common
    conductor that fixes all the generators.
    """
    n = lcm(a.n, *(g.n for g in generators)) if generators else a.n
    a = a.lift(n)
    for k in fixing_exponents(n, [g.lift(n) for g in generators]):
        if a.galois(k) != a:
            return False
    return True
