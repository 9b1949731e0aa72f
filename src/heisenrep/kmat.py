"""Dense matrices over cyclotomic scalars, plus generalized permutations.

Group-element actions on induced modules are monomial (one nonzero entry
per column, a root of unity), so they get a compact GenPerm form: a
permutation and, per column, an exponent of zeta_n.  ``compose`` adds
exponents and ``inverse`` negates them.  Applying a GenPerm to a dense
matrix multiplies each entry x by its root zeta_n^e with
``cyclo.mul_root``: one walk over the coefficients of x at shifted
exponents of zeta_N, N = lcm(n, x.n), with no polynomial product.
The intertwining operators stay dense.

``kron`` gives entry (a_ij, b_kl) the conductor lcm(a_ij.n, b_kl.n) of its
own two factors, zero or not.  An entry with a zero factor is the shared
zero of that conductor, not a product.  A product x * y of two nonzero
entries at N = lcm(x.n, y.n) is read off its exponent pairs: the term
(s * N / x.n + t * N / y.n, a_s * b_t) for each pair of coefficients a_s of
x and b_t of y, counted per exponent mod N and reduced once through
``cyclo.from_powers`` over x.den * y.den, so no polynomial product or lift
is formed.  Each factor's shifted terms are made once per conductor it
meets.

``mat_mul`` works on packed integers (Kronecker substitution).  N is the
lcm of the conductors of the nonzero entries of both factors; each row of
``a`` and each column of ``b`` is put over one common denominator, and each
entry becomes an integer polynomial in zeta_N, unreduced: the coefficient
of zeta_n^t sits at exponent t * N / n.  The polynomial is packed into one
Python int with signed digits of w bits, P = sum of c_e * 2^(w e): the
coefficients of x are shifted to their digits once, and the packed int is
multiplied by den / x.den, which multiplies every digit.  With L one more
than the highest exponent (phi(n) - 1) * N / n over the conductors n of
the entries (phi(N) when every entry has conductor N), each of the 2L - 1
digits of sum over k of P(a_ik) P(b_kj) is at most
inner * L * max|a coefficient| * max|b coefficient| in absolute value, so
w = bit_length of that bound + 2 leaves every digit clear of its
neighbours whatever the heights.  Each output entry is unpacked once and
reduced once, through ``cyclo.from_powers``.

``mat_mul(a, b, adjoint=True)`` is a @ b^H, b^H the conjugate transpose of
b.  Entry b_jk is packed as entry (k, j) of the right factor at the negated
exponents -t * N / n: conjugation maps zeta_n^t to zeta_n^-t, and it keeps
conductors and denominators, so no conjugate is formed and the result
equals the product with b^H built entrywise.  Every entry of b is packed D
digits higher, D the largest (phi(n) - 1) * N / n over the conductors n of
b, so no packed polynomial is longer than those of b^H built entrywise, and
the output digit at position e holds the exponent e - D.

``mat_mul(a, b, scale=c)`` is c * (a @ b), the product ``scalar_mul``
would give, with no second pass: c joins the conductors of N, each packed
output entry is multiplied by the packed c * c.den (exponents 0 to E, the
absolute values of its coefficients summing to S) before it is unpacked,
and its denominator is den_a * den_b * c.den.  The product has E more
digits, each at most S times the bound above, so w is taken for that
bound.

An output entry with no k where both a_ik and b_kj are nonzero is zero at
conductor c.n (1 with no scale); any other entry has conductor n = lcm of
c.n and of lcm(a_ik.n, b_kj.n) over those k, even when the sum cancels.
Every exponent in such an entry's product is a multiple of N / n, so it is
read off at conductor n directly.  The zero entries of one conductor in
the output are one shared object, so ``neg`` keeps them and ``mat_eq``
passes them by identity.
"""

from __future__ import annotations

from math import lcm
from operator import lshift, mul

from .cyclo import CycNum, euler_phi, from_powers, mul_root, root_of_unity


def zeros(rows, cols, n=1):
    z = CycNum.zero(n)
    return [[z for _ in range(cols)] for _ in range(rows)]


def identity(dim, n=1):
    z = CycNum.zero(n)
    o = CycNum.one(n)
    return [[o if i == j else z for j in range(dim)] for i in range(dim)]


def mat_mul(a, b, adjoint=False, scale=None):
    """scale * (a @ b) by Kronecker substitution; see the module notes.
    With ``adjoint`` it is a @ b^H, b^H the conjugate transpose of b.
    ``scale`` (a CycNum, 1 when None) multiplies each packed output entry
    before it is unpacked."""
    rows = len(a)
    if adjoint:
        # b with no rows is 0 x inner for any inner
        inner = len(b[0]) if b else len(a[0]) if a else 0
        cols = len(b)
        nz_b = [(k, j, y) for j, row in enumerate(b) for k, y in enumerate(row)
                if any(y.num)]
    else:
        inner, cols = len(b), (len(b[0]) if b else 0)
        nz_b = [(k, j, y) for k, row in enumerate(b) for j, y in enumerate(row)
                if any(y.num)]
    if a and len(a[0]) != inner:
        raise ValueError("cannot multiply a %dx%d matrix by a %dx%d matrix"
                         % (rows, len(a[0]), inner, cols))
    if scale is None:
        scale = CycNum.one(1)
    nz_a = [(i, k, x) for i, row in enumerate(a) for k, x in enumerate(row)
            if any(x.num)]
    conds_a = {x.n for (_, _, x) in nz_a}
    conds_b = {y.n for (_, _, y) in nz_b}
    N = lcm(scale.n, *conds_a, *conds_b)
    den_a = [1] * rows
    for (i, _, x) in nz_a:
        den_a[i] = lcm(den_a[i], x.den)
    den_b = [1] * cols
    for (_, j, y) in nz_b:
        den_b[j] = lcm(den_b[j], y.den)
    # the highest exponent of zeta_N that an entry of conductor m holds
    top = {m: N // m * (euler_phi(m) - 1)
           for m in conds_a | conds_b | {scale.n}}
    # D of the module notes; 0 unless adjoint
    lift = max((top[m] for m in conds_b), default=0) if adjoint else 0
    length = 1 + max(max((top[m] for m in conds_a), default=0),
                     lift if adjoint else
                     max((top[m] for m in conds_b), default=0))
    # the largest integer coefficient over each row's or column's common
    # denominator
    height_a = max((max(map(abs, x.num)) * (den_a[i] // x.den)
                    for (i, _, x) in nz_a), default=0)
    height_b = max((max(map(abs, y.num)) * (den_b[j] // y.den)
                    for (_, j, y) in nz_b), default=0)
    w = (inner * length * height_a * height_b
         * sum(map(abs, scale.num))).bit_length() + 2
    # the bit positions of the coefficients of an entry of conductor m:
    # zeta_m^t sits at exponent t * N / m, or at D - t * N / m conjugated
    places = {m: [w * (N // m) * t for t in range(euler_phi(m))] for m in top}
    places_b = {m: [w * lift - s for s in places[m]] for m in conds_b} \
        if adjoint else places
    packed_a = [[0] * inner for _ in range(rows)]
    masks_a = {}
    for (i, k, x) in nz_a:
        packed = sum(map(lshift, x.num, places[x.n]))
        packed_a[i][k] = packed * (den_a[i] // x.den)
        masks_a.setdefault(x.n, [0] * rows)[i] |= 1 << k
    packed_b = [[0] * inner for _ in range(cols)]
    masks_b = {}
    for (k, j, y) in nz_b:
        packed = sum(map(lshift, y.num, places_b[y.n]))
        packed_b[j][k] = packed * (den_b[j] // y.den)
        masks_b.setdefault(y.n, [0] * cols)[j] |= 1 << k
    packed_s = sum(map(lshift, scale.num, places[scale.n]))
    # conductor pairs with the rows and columns in which they meet
    pairs = [(lcm(c, d), ma, mb) for c, ma in masks_a.items()
             for d, mb in masks_b.items()]
    # adding half to every digit makes them all nonnegative, so each digit
    # is read with a shift and a mask, with no borrow from its neighbour
    digits = 2 * length - 1 + top[scale.n]
    half = 1 << (w - 1)
    low = (1 << w) - 1
    offset = sum(half << (w * e) for e in range(digits))
    shifts = range(0, w * digits, w)
    # one zero per conductor, shared by every zero entry of the output
    zeros = {scale.n: CycNum.zero(scale.n)}
    out = []
    for i in range(rows):
        prow = packed_a[i]
        new = []
        for j in range(cols):
            hits = [n for (n, ma, mb) in pairs if ma[i] & mb[j]]
            if not hits:
                new.append(zeros[scale.n])
                continue
            n = lcm(scale.n, *hits)
            acc = sum(map(mul, prow, packed_b[j]))
            if not acc:
                new.append(zeros.get(n) or zeros.setdefault(n, CycNum.zero(n)))
                continue
            acc = acc * packed_s + offset
            conv = [((acc >> s) & low) - half for s in shifts]
            step = N // n
            x = from_powers(
                n, enumerate(conv[lift % step::step], -(lift // step)),
                den_a[i] * den_b[j] * scale.den)
            new.append(x if any(x.num) else zeros.setdefault(n, x))
        out.append(new)
    return out


def scalar_mul(c, a):
    """c * a.  The zero entries of each conductor m share one zero of
    conductor lcm(c.n, m), the value c * x has."""
    zero = {m: CycNum.zero(lcm(c.n, m))
            for m in {x.n for row in a for x in row if not any(x.num)}}
    return [[c * x if any(x.num) else zero[x.n] for x in row] for row in a]


def neg(a):
    """-a.  A zero entry is its own negative and is kept as it is."""
    return [[-x if any(x.num) else x for x in row] for row in a]


def mat_eq(a, b):
    """Exact equality; matrices of different shapes are unequal.  List
    equality tests identity before it calls ``CycNum.__eq__``, so shared
    zeros cost no comparison."""
    return a == b


def trace(a):
    acc = CycNum.zero(1)
    for i in range(len(a)):
        acc = acc + a[i][i]
    return acc


def kron(a, b):
    """The Kronecker product; see the module notes for its zeros and
    products."""
    conds_a = {x.n for row in a for x in row if any(x.num)}
    conds_b = {y.n for row in b for y in row if any(y.num)}
    terms_a = [[_shifted(x, conds_b) for x in row] for row in a]
    terms_b = [[_shifted(y, conds_a) for y in row] for row in b]
    zeros = {}
    out = []
    for row_a, trow_a in zip(a, terms_a):
        for row_b, trow_b in zip(b, terms_b):
            new = []
            for x, tx in zip(row_a, trow_a):
                for y, ty in zip(row_b, trow_b):
                    N = lcm(x.n, y.n)
                    if tx is None or ty is None:
                        z = zeros.get(N)
                        if z is None:
                            z = zeros[N] = CycNum.zero(N)
                        new.append(z)
                        continue
                    counts = [0] * N
                    for (e, c) in tx[N]:
                        for (f, d) in ty[N]:
                            counts[(e + f) % N] += c * d
                    new.append(from_powers(N, enumerate(counts), x.den * y.den))
            out.append(new)
    return out


def _shifted(x, conds):
    """The terms of x at N = lcm(x.n, d) for each conductor d in ``conds``,
    keyed by N: (exponent of zeta_N, coefficient) pairs in ascending order,
    the coefficient of zeta_n^t at exponent t * N / n, unreduced; None when
    x is zero."""
    if not any(x.num):
        return None
    return {N: [(N // x.n * t, c) for t, c in enumerate(x.num) if c]
            for N in {lcm(x.n, d) for d in conds}}


def proportionality(a, b):
    """Scalar c with a == c * b, else None (also when b is zero).  c is read
    off the first nonzero entry of b.  Where b is zero, x == c * 0 exactly
    when x is zero, so only the nonzero entries of b are multiplied."""
    c = None
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if any(y.num):
                if c is None:
                    c = x / y
                elif x != c * y:
                    return None
            elif any(x.num):
                return None
    return c


def mat_inverse(a):
    dim = len(a)
    aug = [list(row) + list(ident_row) for row, ident_row in zip(a, identity(dim))]
    for col in range(dim):
        piv = next((i for i in range(col, dim) if not aug[i][col].is_zero()), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for i in range(dim):
            if i != col and not aug[i][col].is_zero():
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[dim:] for row in aug]


def mat_to_json(a):
    return [[x.to_json() for x in row] for row in a]


def mat_from_json(obj):
    return [[CycNum.from_json(x) for x in row] for row in obj]


class GenPerm:
    """Monomial operator: e_j -> zeta_n^expo[j] * e_[perm[j]]."""

    __slots__ = ("perm", "expo", "n")

    def __init__(self, perm, expo, n):
        self.perm = tuple(perm)
        self.expo = tuple(e % n for e in expo)
        self.n = n

    @property
    def dim(self):
        return len(self.perm)

    def to_dense(self, n=1):
        """The dense matrix, with zeros of conductor n."""
        m = zeros(self.dim, self.dim, n)
        for j, (i, e) in enumerate(zip(self.perm, self.expo)):
            m[i][j] = root_of_unity(self.n, e)
        return m

    def compose(self, other):
        """self after other (matrix product self @ other)."""
        n = lcm(self.n, other.n)
        s, t = n // self.n, n // other.n
        perm = [self.perm[i] for i in other.perm]
        expo = [t * e + s * self.expo[i] for i, e in zip(other.perm, other.expo)]
        return GenPerm(perm, expo, n)

    def inverse(self):
        perm = [0] * self.dim
        expo = [0] * self.dim
        for j, (i, e) in enumerate(zip(self.perm, self.expo)):
            perm[i] = j
            expo[i] = -e
        return GenPerm(perm, expo, self.n)

    def apply_left(self, dense):
        """self @ dense for a dense matrix."""
        rows = [None] * len(dense)
        n = self.n
        for i, e, row in zip(self.perm, self.expo, dense):
            rows[i] = [mul_root(x, n, e) for x in row]
        return rows

    def apply_right(self, dense):
        """dense @ self."""
        n = self.n
        return [[mul_root(row[i], n, e) for i, e in zip(self.perm, self.expo)]
                for row in dense]

    def __eq__(self, other):
        if not isinstance(other, GenPerm) or self.perm != other.perm:
            return False
        n = lcm(self.n, other.n)
        s, t = n // self.n, n // other.n
        return all((s * e - t * f) % n == 0
                   for e, f in zip(self.expo, other.expo))
