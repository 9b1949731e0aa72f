"""Dense matrices over cyclotomic scalars, generalized permutations and
phase matrices.

Group-element actions on induced modules are monomial (one nonzero entry
per column, a root of unity), so they get a compact GenPerm form: a
permutation and, per column, an exponent of zeta_n.  ``compose`` adds
exponents and ``inverse`` negates them.  Applying a GenPerm to a dense
matrix multiplies each entry x by its root zeta_n^e with
``cyclo.mul_root``: one walk over the coefficients of x at shifted
exponents of zeta_N, N = lcm(n, x.n), with no polynomial product.
``apply_both`` places each entry of left @ x @ right once and rotates it
once, by the sum of its row's and its column's exponents.

The standard intertwiners are phase matrices (``PhaseMat``): every entry
is 0 or one root zeta_n^e, kept per row as (column, exponent) pairs at
modulus n.  ``phase_product(a, b, c)`` is c * (a @ b^H), b^H the conjugate
transpose of b: entry (r, s) is the sum of c * zeta_n^(x - y) over the
columns k where a_rk = zeta_n^x and b_sk = zeta_n^y are both nonzero (n
the lcm of the two moduli).  The n rotations c * zeta_n^d are made once
per product with ``cyclo.mul_root``, at N = lcm(c.n, n), and their
power-basis coefficients are packed as signed w-bit digits of one int
each; an entry adds one packed rotation per shared column and is unpacked
once.  No digit exceeds inner * h in absolute value, h the largest
coefficient of a rotation, so w = bit_length(inner * h) + 2.  Each entry
has the value and conductor of ``scalar_mul(c, mat_mul(a, b^H))`` on the
dense factors: zero at conductor c.n where no column is shared, zero at N
where the sum cancels, each of them one object per product.  ``moved``
transports a phase matrix along two GenPerms by permuting its rows and
columns and adding exponents; ``scaled`` multiplies it by a scalar with
one ``mul_root`` per exponent; ``product_proportionality`` reads the
scalar relating a phase matrix a to a product t @ b^H off one entry of the
product and compares the packed sum of every entry with one packed
rotation of it, so no entry of the product becomes a ``CycNum``.

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

An output entry with no k where both a_ik and b_kj are nonzero is zero at
conductor 1; any other entry has conductor n = lcm of lcm(a_ik.n, b_kj.n)
over those k, even when the sum cancels.
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


def mat_mul(a, b):
    """a @ b by Kronecker substitution; see the module notes."""
    rows = len(a)
    inner, cols = len(b), (len(b[0]) if b else 0)
    if a and len(a[0]) != inner:
        raise ValueError("cannot multiply a %dx%d matrix by a %dx%d matrix"
                         % (rows, len(a[0]), inner, cols))
    nz_a = [(i, k, x) for i, row in enumerate(a) for k, x in enumerate(row)
            if any(x.num)]
    nz_b = [(k, j, y) for k, row in enumerate(b) for j, y in enumerate(row)
            if any(y.num)]
    conds_a = {x.n for (_, _, x) in nz_a}
    conds_b = {y.n for (_, _, y) in nz_b}
    N = lcm(*conds_a, *conds_b)
    den_a = [1] * rows
    for (i, _, x) in nz_a:
        den_a[i] = lcm(den_a[i], x.den)
    den_b = [1] * cols
    for (_, j, y) in nz_b:
        den_b[j] = lcm(den_b[j], y.den)
    # the highest exponent of zeta_N that an entry of conductor m holds
    top = {m: N // m * (euler_phi(m) - 1) for m in conds_a | conds_b}
    length = 1 + max(top.values(), default=0)
    # the largest integer coefficient over each row's or column's common
    # denominator
    height_a = max((max(map(abs, x.num)) * (den_a[i] // x.den)
                    for (i, _, x) in nz_a), default=0)
    height_b = max((max(map(abs, y.num)) * (den_b[j] // y.den)
                    for (_, j, y) in nz_b), default=0)
    w = (inner * length * height_a * height_b).bit_length() + 2
    # the bit positions of the coefficients of an entry of conductor m:
    # zeta_m^t sits at exponent t * N / m
    places = {m: [w * (N // m) * t for t in range(euler_phi(m))] for m in top}
    packed_a = [[0] * inner for _ in range(rows)]
    masks_a = {}
    for (i, k, x) in nz_a:
        packed = sum(map(lshift, x.num, places[x.n]))
        packed_a[i][k] = packed * (den_a[i] // x.den)
        masks_a.setdefault(x.n, [0] * rows)[i] |= 1 << k
    packed_b = [[0] * inner for _ in range(cols)]
    masks_b = {}
    for (k, j, y) in nz_b:
        packed = sum(map(lshift, y.num, places[y.n]))
        packed_b[j][k] = packed * (den_b[j] // y.den)
        masks_b.setdefault(y.n, [0] * cols)[j] |= 1 << k
    # conductor pairs with the rows and columns in which they meet
    pairs = [(lcm(c, d), ma, mb) for c, ma in masks_a.items()
             for d, mb in masks_b.items()]
    # adding half to every digit makes them all nonnegative, so each digit
    # is read with a shift and a mask, with no borrow from its neighbour
    digits = 2 * length - 1
    half = 1 << (w - 1)
    low = (1 << w) - 1
    offset = sum(half << (w * e) for e in range(digits))
    shifts = range(0, w * digits, w)
    # one zero per conductor, shared by every zero entry of the output
    zeros = {1: CycNum.zero(1)}
    out = []
    for i in range(rows):
        prow = packed_a[i]
        new = []
        for j in range(cols):
            hits = [n for (n, ma, mb) in pairs if ma[i] & mb[j]]
            if not hits:
                new.append(zeros[1])
                continue
            n = lcm(*hits)
            acc = sum(map(mul, prow, packed_b[j]))
            if not acc:
                new.append(zeros.get(n) or zeros.setdefault(n, CycNum.zero(n)))
                continue
            acc += offset
            conv = [((acc >> s) & low) - half for s in shifts]
            x = from_powers(n, enumerate(conv[::N // n]), den_a[i] * den_b[j])
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
    when x is zero, so only the nonzero entries of b are multiplied.

    The dense form of ``product_proportionality``; the solver works on
    phase matrices, and this stays as the dense reference (the benchmark
    tracer also wraps it by name)."""
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
    """The JSON form of each entry.  An entry object met again in the
    matrix (a shared zero, most often) gets the form made for it the first
    time, so each distinct object is serialized once."""
    forms = {}
    out = []
    for row in a:
        new = []
        for x in row:
            form = forms.get(id(x))
            if form is None:
                form = forms[id(x)] = x.to_json()
            new.append(form)
        out.append(new)
    return out


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

    def apply_both(self, dense, right):
        """self @ dense @ right: entry (r, c) of dense goes once to row
        self.perm[r] and to the column j with right.perm[j] = c, rotated
        once by the sum of the two exponents."""
        n = lcm(self.n, right.n)
        s, t = n // self.n, n // right.n
        cols = [(c, t * f) for c, f in zip(right.perm, right.expo)]
        rows = [None] * len(dense)
        for i, e, row in zip(self.perm, self.expo, dense):
            e *= s
            rows[i] = [mul_root(row[c], n, e + f) for c, f in cols]
        return rows

    def __eq__(self, other):
        if not isinstance(other, GenPerm) or self.perm != other.perm:
            return False
        n = lcm(self.n, other.n)
        s, t = n // self.n, n // other.n
        return all((s * e - t * f) % n == 0
                   for e, f in zip(self.expo, other.expo))


class PhaseMat:
    """A matrix whose nonzero entries are roots of unity: row r is a tuple
    of (column, exponent) pairs, one per nonzero entry zeta_n^e, with e
    taken mod n; see the module notes."""

    __slots__ = ("rows", "cols", "n")

    def __init__(self, rows, cols, n):
        self.rows = tuple(tuple((k, e % n) for k, e in row) for row in rows)
        self.cols = cols
        self.n = n

    def to_dense(self):
        """The dense matrix: zeta_n^e at conductor n, and one shared zero of
        conductor n."""
        return self.scaled(CycNum.one(1))

    def scaled(self, c):
        """c * self as a dense matrix, with the values and conductors
        (lcm(c.n, n), zeros included) of ``scalar_mul(c, self.to_dense())``."""
        n = self.n
        rots = [mul_root(c, n, e) for e in range(n)]
        zero = CycNum.zero(lcm(c.n, n))
        out = []
        for row in self.rows:
            new = [zero] * self.cols
            for k, e in row:
                new[k] = rots[e]
            out.append(new)
        return out

    def moved(self, left, right):
        """left @ self @ right for GenPerms left and right, as a PhaseMat:
        row r goes to row left.perm[r] and column c to the column j with
        right.perm[j] = c, and the exponent gains left.expo[r] and
        right.expo[j]."""
        n = lcm(self.n, left.n, right.n)
        s, t, u = n // self.n, n // left.n, n // right.n
        to = [0] * self.cols
        shift = [0] * self.cols
        for j, (c, f) in enumerate(zip(right.perm, right.expo)):
            to[c] = j
            shift[c] = u * f
        rows = [None] * len(self.rows)
        for row, r, e in zip(self.rows, left.perm, left.expo):
            e *= t
            rows[r] = [(to[c], s * x + e + shift[c]) for c, x in row]
        return PhaseMat(rows, right.dim, n)


class _Packing:
    """Power-basis coefficients as signed digits of w bits, one int per
    value: ``pack`` places them (None when a digit does not fit, so that
    equal ints mean equal coefficients) and ``unpack`` reads a packed sum
    back; adding half to every digit makes them all nonnegative, so each
    digit is read with a shift and a mask, with no borrow from its
    neighbour."""

    __slots__ = ("places", "half", "low", "offset")

    def __init__(self, w, length):
        self.places = range(0, w * length, w)
        self.half = 1 << (w - 1)
        self.low = (1 << w) - 1
        self.offset = sum(self.half << p for p in self.places)

    def pack(self, num):
        if max(map(abs, num)) >= self.half:
            return None
        return sum(map(lshift, num, self.places))

    def unpack(self, acc):
        acc += self.offset
        return [((acc >> p) & self.low) - self.half for p in self.places]


def _packed_sums(a, b, scale):
    """The entries of scale * (a @ b^H) as packed sums, and their
    ``_Packing``: per row of a, one int per row of b, the sum of the packed
    rotations of scale over the columns the two rows share, or None where
    they share none; see the module notes."""
    if a.cols != b.cols:
        raise ValueError("cannot multiply a %dx%d matrix by the adjoint of a "
                         "%dx%d matrix" % (len(a.rows), a.cols, len(b.rows),
                                           b.cols))
    n = lcm(a.n, b.n)
    s, t = n // a.n, n // b.n
    rots = [mul_root(scale, n, d).num for d in range(n)]
    w = (a.cols * max(abs(c) for rot in rots for c in rot)).bit_length() + 2
    packing = _Packing(w, len(rots[0]))
    # indexed by x - y in (-n, n): a negative index is the rotation x - y + n
    packed = [packing.pack(rot) for rot in rots]
    rows_b = [[(k, t * y) for k, y in row] for row in b.rows]

    def sums():
        xs = [None] * a.cols
        for row in a.rows:
            for k, x in row:
                xs[k] = s * x
            new = []
            for row_b in rows_b:
                terms = [packed[x - y] for k, y in row_b
                         if (x := xs[k]) is not None]
                new.append(sum(terms) if terms else None)
            yield new
            for k, _x in row:
                xs[k] = None

    return sums(), packing


def phase_product(a, b, scale):
    """scale * (a @ b^H) for phase matrices a and b, as a dense matrix; see
    the module notes."""
    sums, packing = _packed_sums(a, b, scale)
    N = lcm(scale.n, a.n, b.n)
    missed = CycNum.zero(scale.n)
    cancelled = missed if N == scale.n else CycNum.zero(N)
    return [[missed if acc is None else
             CycNum(N, packing.unpack(acc), scale.den) if acc else cancelled
             for acc in row] for row in sums]


def product_proportionality(a, t, b):
    """Scalar c with a == c * (t @ b^H) for phase matrices a, t and b, else
    None (also when the product is zero): the value and conductor of the
    dense proportionality of a.to_dense() and ``phase_product(t, b, 1)``,
    with no entry of the product made a ``CycNum``.

    The entries of t @ b^H are packed sums, as in ``phase_product``, of
    the roots of unity at N = lcm(a.n, t.n, b.n).  kappa = 1 / c is the
    entry under the first nonzero entry zeta^e of a, times zeta^(-e), and
    a == c * (t @ b^H) exactly when every entry of the product is
    kappa * zeta^f where a has zeta^f and zero where a is zero.  The digits
    of an entry fit their width, so its packed sum equals the packed
    rotation of kappa exactly when the values are equal; a rotation whose
    digits do not fit equals no entry.  The product is formed row by row,
    and the first row that fails ends the test.
    """
    if len(a.rows) != len(t.rows) or a.cols != len(b.rows):
        raise ValueError("a %dx%d matrix cannot be proportional to a %dx%d "
                         "matrix times the adjoint of a %dx%d matrix"
                         % (len(a.rows), a.cols, len(t.rows), t.cols,
                            len(b.rows), b.cols))
    N = lcm(a.n, t.n, b.n)
    sums, packing = _packed_sums(t, b, CycNum.one(N))
    kappa = None
    above = False   # a nonzero product entry above a's first nonzero row
    for row_a, row in zip(a.rows, sums):
        if kappa is None:
            if not row_a:
                above = above or any(row)
                continue
            k, e = min(row_a)
            if above or not row[k]:
                return None
            kappa = mul_root(CycNum(N, packing.unpack(row[k])), a.n, -e)
            want = [packing.pack(mul_root(kappa, a.n, f).num)
                    for f in range(a.n)]
        expected = {k: want[f] for k, f in row_a}
        if any((acc or 0) != expected.get(k, 0) for k, acc in enumerate(row)):
            return None
    if kappa is None:
        return CycNum.zero(N) if above else None
    return kappa.inverse()
