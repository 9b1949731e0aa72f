"""Dense matrices over cyclotomic scalars, generalized permutations,
phase matrices and packed matrices.

Group-element actions on induced modules are monomial (one nonzero entry
per column, a root of unity), so they get a compact GenPerm form: a
permutation and, per column, an exponent of zeta_n.  ``compose`` adds
exponents and ``inverse`` negates them.  Applying a GenPerm to a dense
matrix multiplies each entry x by its root zeta_n^e with
``cyclo.mul_root``: one walk over the coefficients of x at shifted
exponents of zeta_N, N = lcm(n, x.n), with no polynomial product.

Packed integers (Kronecker substitution).  An element of Q(zeta_N) over a
denominator is a vector v in Z[x]/(x^N - 1), x for zeta_N and the
coefficient of zeta_m^t at exponent t * N / m, packed into one int
P = sum of v_t 2^(w t).  While every digit lies in [-2^(w-1), 2^(w-1)),
adding 2^(w-1) to each leaves them in [0, 2^w) with no carry, so the
digits are unique and each is read with a shift and a mask (``_digits``).

``mat_mul`` packs each row of ``a`` and each column of ``b`` over one
common denominator, N the lcm of the conductors of the nonzero entries.
With L one more than the highest exponent (phi(n) - 1) * N / n over their
conductors n, each of the 2L - 1 digits of sum over k of P(a_ik) P(b_kj)
is at most inner * L * max|a coefficient| * max|b coefficient|, and w is
the bit length of that bound + 2.  Each output entry is unpacked and
reduced once, through ``cyclo.from_powers``: zero at conductor 1 when no
k has a_ik and b_kj nonzero, else at n = lcm over those k of
lcm(a_ik.n, b_kj.n), even when the sum cancels, read off at n directly.
The zero entries of one conductor are one object, so ``mat_eq`` passes
them by identity.

The standard intertwiners are phase matrices (``PhaseMat``): every entry
is 0 or one root zeta_n^e, kept per row as (column, exponent) pairs at
modulus n; ``scaled`` multiplies one by a scalar, one ``mul_root`` per
exponent.  ``phase_product(a, b, c)`` is c * (a @ b^H) as a ``Packed``
matrix at N = lcm(c.n, n), n the lcm of the moduli.  ``Rotations`` packs
c * zeta_n^x for each x < n once.  Column k of b is one int
(``phase_columns``, which a caller that multiplies by b again keeps),
with the monomial zeta_n^-y at digit (-y mod n) N / n of slot s for each
row s of b with b_sk = zeta_n^y; row r of the product is the sum, over the
columns k where a_rk = zeta_n^x, of the rotation by x times the column
int of k, folded once.  Each digit then adds one coefficient of a
rotation per column, so its height is inner times the largest
coefficient of a rotation.  Its dense view has the values of
``scalar_mul(c, mat_mul(a, b^H))``, every entry at N.

A ``Packed`` matrix holds one int per row at one conductor N, width w and
denominator, its column count, its height h (no digit exceeds it,
h < 2^(w-1)) and per row a mask of the entries that may be nonzero.
Entry c of a row sits in slot c, 2N digits from digit 2N c on; its
vector fills the low N digits and the high N are 0.  The row is the
integer sum of its entries shifted to their slots, so the signed-digit
codec holds across the row: adding 2^(w-1) to the low N digits of every
slot makes every digit of the row nonnegative, and an entry is read with
a shift and a mask (``entry``).  ``to_dense`` gives every zero entry the
one zero of N; it and ``moved`` read the entries at the mask bits only.
Negation negates each row, and ``sign_to`` tells a matrix, its negation
and any other apart by their rows and form alone.  ``moved`` applies a
GenPerm on each side, whose moduli divide N, rotating each entry's digits
once (x^N = 1) into its new slot.

Folding.  A product of an entry (N digits) and a row puts a vector of
2N - 1 digits into each slot, which 2N digits hold, and a sum of such
products keeps that form while its digits stay in range.  With 2^(w-1)
added to all 2N digits of every slot, the low N digits of each slot and
the high N (shifted down by N digits) are read with one mask each, and
their sum less twice the bias of the low digits is the row mod x^N - 1:
digit t + N added onto digit t in every slot.

The kernel test.  For N = p^a, x^N - 1 = (x^(N/p) - 1) Phi_N with
Phi_N = sum over j < p of x^(j N/p), the minimal polynomial of zeta_N.  So
v is 0 in Q(zeta_N) exactly when v = q Phi_N, deg q < N - phi(N) = N/p:
the p copies of q do not overlap, so every block of N/p digits of v equals
the lowest, and equal blocks give v = q Phi_N.  With in-range digits this
is v == low(v) * sum over j < p of 2^(w j N/p), low(v) the signed lowest
block, and the same comparison tests every slot of a row at once: low(v)
holds the lowest block of each slot, and the p copies of a slot's block
stay inside its low N digits.  low(v) is read by adding 2^(w-1) to all N
low digits of every slot, masking the lowest block of each slot and
taking the bias of the block back off.  Biasing the block digits alone
would not do: when the highest nonzero digit of a slot lies above its
lowest block and is negative, all that lies below the next slot sums to
a negative number, which borrows one from that slot's lowest block, so a
vanishing slot there reads as nonzero.  At N = 1 it is v == 0; any other
N raises ValueError.

Widths.  ``a @ b`` adds, for each k in the mask of row i of a, entry
(i, k) times row k of b, and folds the row.  A digit, folded or not, sums
a_ik[u] b_kj[v] over k and at most N pairs (u, v): the product has height
inner * N * h_a * h_b over d_a d_b.  a == b tests x * d_b - y * d_a for
each pair of rows, with digits at most h_a d_b + h_b d_a.  Both take
operands of one form, one conductor and one width covering the bound,
and raise ValueError naming both forms otherwise, so a narrow width is
refused, never a wrong answer; every pair of a ``CanonicalSystem`` sits
at its one conductor and at ``pair_width``, which covers its checks.

``kron`` gives entry (a_ij, b_kl) the conductor lcm(a_ij.n, b_kl.n) of its
own two factors, zero or not.  An entry with a zero factor is the shared
zero of that conductor, not a product.  A product x * y of two nonzero
entries at N = lcm(x.n, y.n) is read off its exponent pairs: the term
(s * N / x.n + t * N / y.n, a_s * b_t) for each pair of coefficients a_s of
x and b_t of y, counted per exponent mod N and reduced once through
``cyclo.from_powers`` over x.den * y.den, so no polynomial product or lift
is formed.  Each factor's shifted terms are made once per conductor it
meets.
"""

from __future__ import annotations

from functools import lru_cache
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
    digits = 2 * length - 1
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
            conv = _digits(acc, w, digits)
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


class Form(dict):
    """The JSON form of a matrix entry, as ``mat_to_json`` makes it: the
    writer in ``cli`` makes the text of each such object once."""

    __slots__ = ()


def mat_to_json(a):
    """The JSON form of each entry, one ``Form`` per distinct value.  An
    entry object met again (a shared zero, most often) is found by its id,
    with no tuple hash; another object of the same value (n, num, den)
    gets the form made for that value."""
    by_id, by_value = {}, {}
    out = []
    for row in a:
        new = []
        for x in row:
            form = by_id.get(id(x))
            if form is None:
                key = (x.n, x.num, x.den)
                form = by_value.get(key)
                if form is None:
                    form = by_value[key] = Form(x.to_json())
                by_id[id(x)] = form
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

    def to_dense(self):
        """The dense matrix, with zeros of conductor n."""
        m = zeros(self.dim, self.dim, self.n)
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


class PhaseMat:
    """A matrix whose nonzero entries are roots of unity: row r is a tuple
    of (column, exponent) pairs, one per nonzero entry zeta_n^e, with e
    taken mod n; see the module notes."""

    __slots__ = ("rows", "cols", "n")

    def __init__(self, rows, cols, n):
        self.rows = tuple(tuple((k, e % n) for k, e in row) for row in rows)
        self.cols = cols
        self.n = n

    @classmethod
    def reduced(cls, rows, cols, n):
        """The phase matrix of rows in the stored form, exponents in [0, n)."""
        self = cls.__new__(cls)
        self.rows, self.cols, self.n = rows, cols, n
        return self

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


def phase_product(a, b, scale, width=0):
    """scale * (a @ b^H) for phase matrices a and b, as a ``Packed`` matrix
    of digit width at least ``width``; see the module notes."""
    return Rotations(scale, lcm(a.n, b.n)).product(a, b, width)


class Rotations:
    """The factors of ``phase_product``: scale * zeta_n^d for each d < n,
    as coefficient lists at conductor lcm(scale.n, n) over scale.den, and
    ``top``, their largest coefficient.  ``product`` packs them at its
    width and keeps the ints for the next product at that width."""

    __slots__ = ("scale", "n", "nums", "top", "_width", "_ints")

    def __init__(self, scale, n):
        self.scale, self.n = scale, n
        self.nums = [mul_root(scale, n, d).num for d in range(n)]
        self.top = max(abs(c) for num in self.nums for c in num)
        self._width = self._ints = None

    def product(self, a, b, width=0, columns=None):
        """scale * (a @ b^H) for phase matrices a and b whose moduli divide
        n, of digit width at least ``width``: row r sums, over the nonzero
        columns k of row r of a, the packed rotation by a_rk times the
        column int of b at k, then folds once.  ``columns`` are
        ``phase_columns(b, N, width)``, N = lcm(scale.n, n), when the
        caller keeps them; they are made here when not given or when the
        product needs a wider width."""
        if a.cols != b.cols:
            raise ValueError("cannot multiply a %dx%d matrix by the adjoint of "
                             "a %dx%d matrix" % (len(a.rows), a.cols,
                                                 len(b.rows), b.cols))
        n, scale = self.n, self.scale
        N = lcm(scale.n, n)
        s = n // a.n
        height = a.cols * self.top
        w = max(width, height.bit_length() + 1)
        if w != self._width:
            places = range(0, w * len(self.nums[0]), w)
            self._ints = [sum(map(lshift, num, places)) for num in self.nums]
            self._width = w
        rots = self._ints
        col_ints, col_masks = columns if columns and w == width \
            else phase_columns(b, N, w)
        cols = len(b.rows)
        rows, masks = [], []
        for row in a.rows:
            acc = mask = 0
            for k, x in row:
                acc += rots[s * x] * col_ints[k]
                mask |= col_masks[k]
            rows.append(_fold(acc, N, w, cols) if acc else 0)
            masks.append(mask)
        return Packed(rows, cols, masks, N, scale.den, w, height)


def phase_columns(b, N, w):
    """Column k of the phase matrix b as one int of 2N-digit slots of
    width w, with zeta_m^-y at digit (-y mod m) * N / m of slot c for each
    row c of b with b_ck = zeta_m^y, m = b.n dividing N, and the mask of
    those rows c: the column ints and masks of ``Rotations.product``."""
    step, slot = N // b.n, 2 * N * w
    ints, masks = [0] * b.cols, [0] * b.cols
    for c, row in enumerate(b.rows):
        for k, y in row:
            ints[k] += 1 << slot * c + w * step * (-y % b.n)
            masks[k] |= 1 << c
    return ints, masks


@lru_cache(maxsize=None)
def _offset(w, count):
    """2^(w-1) in each of ``count`` w-bit digits."""
    return sum(1 << (w * e + w - 1) for e in range(count))


def _digits(x, w, count):
    """The ``count`` signed w-bit digits of x, lowest first; see the module
    notes."""
    x += _offset(w, count)
    half, low = 1 << (w - 1), (1 << w) - 1
    return [((x >> q) & low) - half for q in range(0, w * count, w)]


@lru_cache(maxsize=None)
def _row_form(n, w, cols):
    """A row of ``cols`` slots of 2n digits of width w: (the slot width in
    bits, the sum over the slots c of 2^(slot width * c), 2^(w-1) in the
    low n digits of every slot, the mask of those digits); see the module
    notes."""
    slot = 2 * n * w
    spread = sum(1 << slot * c for c in range(cols))
    return slot, spread, _offset(w, n) * spread, ((1 << w * n) - 1) * spread


def _fold(acc, n, w, cols):
    """The row ``acc``, whose slots hold 2n digits, folded mod x^n - 1:
    digit t + n of each slot added onto digit t."""
    _slot, _spread, off, low = _row_form(n, w, cols)
    acc += off + (off << w * n)
    return (acc & low) + (acc >> w * n & low) - 2 * off


@lru_cache(maxsize=4096)
def _bits(mask):
    """The positions of the set bits of ``mask``, lowest first."""
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


@lru_cache(maxsize=None)
def _blocks(n, w):
    """(block length N/p, sum over j < p of 2^(w j N/p)) for the kernel
    test at conductor n = p^a, and (0, 0) at n = 1; see the module notes."""
    if n == 1:
        return 0, 0
    p = next(q for q in range(2, n + 1) if n % q == 0)
    if pow(p, n.bit_length(), n):  # n | p^k, k > log2 n, only for n = p^a
        raise ValueError("the packed kernel test needs a prime-power "
                         "conductor, not %d" % n)
    block = n // p
    return block, sum(1 << (w * j * block) for j in range(p))


def _one_form(a, b, need, verb):
    """Raise ValueError, naming both forms, unless a and b share one
    conductor and one width of at least ``need`` bits."""
    if (a.n, a.width) != (b.n, b.width) or a.width < need:
        raise ValueError(
            "cannot %s a packed matrix at conductor %d, width %d and one at "
            "conductor %d, width %d: they need one conductor and one width "
            "of at least %d bits" % (verb, a.n, a.width, b.n, b.width, need))


class Packed:
    """A matrix over Q(zeta_n) as one int per row over one denominator,
    with its column count, digit width, height and row masks; see the
    module notes."""

    __slots__ = ("rows", "cols", "masks", "n", "den", "width", "height")

    def __init__(self, rows, cols, masks, n, den, width, height):
        self.rows, self.cols, self.masks = rows, cols, masks
        self.n, self.den = n, den
        self.width, self.height = width, height

    @classmethod
    def from_entries(cls, entries, masks, n, den, width, height):
        """The matrix whose entry (i, j) is the int ``entries[i][j]`` of n
        signed digits of width ``width``, as ``entry`` reads it."""
        slot = 2 * n * width
        rows = [sum(x << slot * j for j, x in enumerate(row))
                for row in entries]
        return cls(rows, len(entries[0]) if entries else 0, masks, n, den,
                   width, height)

    def entry(self, i, j):
        """Entry (i, j) as one int: its n signed digits of width ``width``,
        digit t the coefficient of x^t."""
        return self._entries(self.rows[i], 1 << j)[0][1]

    def _entries(self, row, mask):
        """(j, entry j) of a row for each j in ``mask``."""
        n, w = self.n, self.width
        slot, _spread, off, _low = _row_form(n, w, self.cols)
        row += off
        full, half = (1 << w * n) - 1, _offset(w, n)
        return [(j, (row >> slot * j & full) - half) for j in _bits(mask)]

    @staticmethod
    def identity(dim, n, width):
        """The identity at conductor n."""
        slot = 2 * n * width
        return Packed([1 << slot * i for i in range(dim)], dim,
                      [1 << i for i in range(dim)], n, 1, width, 1)

    def to_dense(self):
        """The dense matrix, each entry reduced once by ``from_powers``;
        every zero is the one zero of conductor n."""
        n, w, den = self.n, self.width, self.den
        zero = CycNum.zero(n)
        out = []
        for row, mask in zip(self.rows, self.masks):
            new = [zero] * self.cols
            for j, x in self._entries(row, mask):
                x = from_powers(n, enumerate(_digits(x, w, n)), den) if x \
                    else zero
                new[j] = x if any(x.num) else zero
            out.append(new)
        return out

    def __neg__(self):
        return Packed([-x for x in self.rows], self.cols, self.masks, self.n,
                      self.den, self.width, self.height)

    def sign_to(self, other):
        """1 if self is other bit for bit (rows, masks, conductor,
        denominator, width and height), -1 if self is -other bit for bit,
        and 0 otherwise: O(dim) int comparisons, no product."""
        a, b = self, other
        if a is b:
            return 1
        if (len(a.rows), a.cols, a.masks, a.n, a.den, a.width, a.height) != (
                len(b.rows), b.cols, b.masks, b.n, b.den, b.width, b.height):
            return 0
        if a.rows == b.rows:
            return 1
        return -1 if all(x == -y for x, y in zip(a.rows, b.rows)) else 0

    def moved(self, left, right):
        """left @ self @ right for GenPerms left and right: entry (r, c)
        goes to row left.perm[r] and to the column j with
        right.perm[j] = c, rotated once by the sum of the two exponents.
        The moduli of left and right divide the conductor."""
        n, w = self.n, self.width
        if n % left.n or n % right.n:
            raise ValueError(
                "cannot move a packed matrix at conductor %d, width %d along "
                "GenPerms of moduli %d and %d: each must divide the conductor"
                % (n, w, left.n, right.n))
        s, t = n // left.n, n // right.n
        slot = 2 * n * w
        off, full = _offset(w, n), (1 << w * n) - 1
        to = [None] * right.dim
        for j, (c, f) in enumerate(zip(right.perm, right.expo)):
            to[c] = (j, t * f)
        rows, masks = [0] * len(self.rows), [0] * len(self.rows)
        for i, e, row, mask in zip(left.perm, left.expo, self.rows, self.masks):
            acc = new = 0
            for c, x in self._entries(row, mask):
                j, f = to[c]
                if x:
                    d, x = (s * e + f) % n, x + off
                    x = ((x << w * d) & full | x >> w * (n - d)) - off
                    acc += x << slot * j
                new |= 1 << j
            rows[i], masks[i] = acc, new
        return Packed(rows, right.dim, masks, n, self.den, w, self.height)

    def __matmul__(self, other):
        """self @ other, folded mod x^N - 1, over self.den * other.den: row
        i adds entry (i, k) times row k of other for each k in row i's
        mask."""
        a, b, n = self, other, self.n
        height = len(b.rows) * n * a.height * b.height
        _one_form(a, b, height.bit_length() + 1, "multiply")
        w, b_rows, b_masks = a.width, b.rows, b.masks
        rows, masks = [], []
        for row, mask in zip(a.rows, a.masks):
            acc = reach = 0
            for k, x in a._entries(row, mask):
                acc += x * b_rows[k]
                reach |= b_masks[k]
            rows.append(_fold(acc, n, w, b.cols) if acc else 0)
            masks.append(reach)
        return Packed(rows, b.cols, masks, n, a.den * b.den, w, height)

    def __eq__(self, other):
        """Exact equality of values, a row at a time through the kernel
        test; matrices of different shapes are unequal."""
        if not isinstance(other, Packed):
            return NotImplemented
        if (len(self.rows), self.cols) != (len(other.rows), other.cols):
            return False
        a, b = self, other
        need = a.height * b.den + b.height * a.den
        _one_form(a, b, need.bit_length() + 1, "compare")
        w, da, db = a.width, a.den, b.den
        block, repeat = _blocks(a.n, w)
        # the lowest block of every slot and 2^(w-1) in its digits
        _slot, spread, off, _low = _row_form(a.n, w, a.cols)
        low = ((1 << w * block) - 1) * spread
        off_low = _offset(w, block) * spread
        return all(v == (((v + off) & low) - off_low) * repeat
                   for x, y in zip(a.rows, b.rows) if (v := x * db - y * da))
