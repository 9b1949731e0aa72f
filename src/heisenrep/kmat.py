"""Dense matrices over cyclotomic scalars, plus generalized permutations.

Group-element actions on induced modules are monomial (one nonzero entry
per column), so they get a compact GenPerm form with O(dim^2) products
against dense matrices; intertwiners stay dense.
"""

from __future__ import annotations

from .cyclo import CycNum


def zeros(rows, cols, n=1):
    z = CycNum.zero(n)
    return [[z for _ in range(cols)] for _ in range(rows)]


def identity(dim, n=1):
    z = CycNum.zero(n)
    o = CycNum.one(n)
    return [[o if i == j else z for j in range(dim)] for i in range(dim)]


def mat_mul(a, b):
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


def scalar_mul(c, a):
    return [[c * x for x in row] for row in a]


def neg(a):
    return [[-x for x in row] for row in a]


def mat_eq(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if x != y:
                return False
    return True


def trace(a):
    acc = CycNum.zero(1)
    for i in range(len(a)):
        acc = acc + a[i][i]
    return acc


def kron(a, b):
    ra, rb = len(a), len(b)
    ca, cb = len(a[0]), len(b[0])
    out = []
    for i in range(ra * rb):
        i1, i2 = divmod(i, rb)
        row = []
        for j in range(ca * cb):
            j1, j2 = divmod(j, cb)
            row.append(a[i1][j1] * b[i2][j2])
        out.append(row)
    return out


def scalar_of(a):
    """If a == c * identity, return c, else None."""
    dim = len(a)
    if dim == 0:
        return CycNum.one(1)
    c = a[0][0]
    for i in range(dim):
        for j in range(dim):
            if i == j:
                if a[i][j] != c:
                    return None
            elif not a[i][j].is_zero():
                return None
    return c


def proportionality(a, b):
    """Scalar c with a == c * b, else None (b must be nonzero)."""
    ref = None
    for i in range(len(b)):
        for j in range(len(b[0])):
            if not b[i][j].is_zero():
                ref = (i, j)
                break
        if ref:
            break
    if ref is None:
        return None
    c = a[ref[0]][ref[1]] / b[ref[0]][ref[1]]
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if x != c * y:
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
    """Monomial operator: e_j -> scalars[j] * e_[perm[j]]."""

    __slots__ = ("perm", "scalars")

    def __init__(self, perm, scalars):
        self.perm = tuple(perm)
        self.scalars = tuple(scalars)

    @property
    def dim(self):
        return len(self.perm)

    def to_dense(self, n=1):
        m = zeros(self.dim, self.dim, n)
        for j, (i, s) in enumerate(zip(self.perm, self.scalars)):
            m[i][j] = s
        return m

    def compose(self, other):
        """self after other (matrix product self @ other)."""
        perm = tuple(self.perm[other.perm[j]] for j in range(other.dim))
        scalars = tuple(
            other.scalars[j] * self.scalars[other.perm[j]] for j in range(other.dim)
        )
        return GenPerm(perm, scalars)

    def inverse(self):
        dim = self.dim
        perm = [0] * dim
        scalars = [None] * dim
        for j in range(dim):
            perm[self.perm[j]] = j
            scalars[self.perm[j]] = self.scalars[j].inverse()
        return GenPerm(perm, scalars)

    def apply_left(self, dense):
        """self @ dense for a dense matrix."""
        rows = [None] * len(dense)
        for k in range(len(dense)):
            s = self.scalars[k]
            rows[self.perm[k]] = [s * x for x in dense[k]]
        return rows

    def apply_right(self, dense):
        """dense @ self."""
        out = []
        for row in dense:
            out.append([row[self.perm[j]] * self.scalars[j] for j in range(self.dim)])
        return out

    def __eq__(self, other):
        return (
            isinstance(other, GenPerm)
            and self.perm == other.perm
            and self.scalars == other.scalars
        )
