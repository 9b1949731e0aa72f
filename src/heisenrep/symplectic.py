"""Symplectic modules: alternating nondegenerate pairings on finite abelian
groups of odd exponent, lagrangian calculus, the symplectic group, enhanced
lagrangians, and Gauss sums of symmetric forms.

The pairing is stored additively: gram[i][j] is <e_i, e_j> in Z/n, encoding
omega(m, m') = zeta_n^<m, m'>.  This fixes the identification of mu_n with
the powers of one generator zeta_n once and for all.
"""

from __future__ import annotations

import itertools
import random
from math import isqrt, lcm

from . import intlin
from .abgroup import (
    AbGroup,
    Subgroup,
    elementary_prime,
    prime_factors,
    quotient_pair,
    strict_ints,
    subgroup_from_gens,
    zero_subgroup,
)
from .cyclo import from_powers, legendre


class SymplecticError(ValueError):
    pass


class BudgetError(RuntimeError):
    """Raised when an exhaustive operation exceeds its enumeration budget."""


DEFAULT_LAGRANGIAN_BUDGET = 3 ** 8
DEFAULT_SP_ENUM_BUDGET = 81


class SympMod:
    """Finite abelian group with an alternating nondegenerate Z/n pairing."""

    __slots__ = ("group", "n", "gram", "dual")

    def __init__(self, group, gram):
        self.group = group
        self.n = group.exponent()
        rows = (strict_ints(row, SymplecticError, "gram entries") for row in gram)
        self.gram = tuple(tuple(x % self.n for x in row) for row in rows)
        self.validate()
        self.dual = self._dual_basis()

    def validate(self):
        m = self.group.rank
        n = self.n
        if n % 2 == 0:
            raise SymplecticError("exponent must be odd; even order is unsupported")
        if len(self.gram) != m or any(len(r) != m for r in self.gram):
            raise SymplecticError("gram matrix has wrong shape")
        for i in range(m):
            if self.gram[i][i] % n != 0:
                raise SymplecticError("pairing is not alternating")
            for j in range(m):
                if (self.gram[i][j] + self.gram[j][i]) % n != 0:
                    raise SymplecticError("pairing is not antisymmetric")
                di, dj = self.group.orders[i], self.group.orders[j]
                if (di * self.gram[i][j]) % n or (dj * self.gram[i][j]) % n:
                    raise SymplecticError("pairing not compatible with orders")
        if m:
            size = self.group.order()
            root = isqrt(size)
            if root * root != size:
                raise SymplecticError("group order is not a square")
            if root % n != 0:
                raise SymplecticError("exponent does not divide sqrt(|M|)")
        rad = self.radical()
        if rad.order() != 1:
            raise SymplecticError("pairing is degenerate; radical has order %d"
                                  % rad.order())

    def _dual_basis(self):
        """The elements d_j with <e_i, d_j> = delta_ij * n / o_j (mod n),
        o_j the order of e_j; they exist and are unique because the pairing
        is nondegenerate.  A vector v has coordinate <v, d_j> / (n / o_j)
        mod o_j."""
        m = self.group.rank
        n = self.n
        # x @ stacked == target (mod n) reads <e_i, x> = target[i]
        stacked = [[self.gram[i][k] for i in range(m)] for k in range(m)]
        stacked += [[n if j == i else 0 for j in range(m)] for i in range(m)]
        reduced, _full, trans = intlin.hnf(stacked, with_transform=True)
        dual = []
        for j, d in enumerate(self.group.orders):
            c = intlin.solve_lattice(reduced, [n // d if i == j else 0
                                               for i in range(m)])
            if c is None:
                raise SymplecticError("pairing is degenerate")
            dual.append(self.group.reduce(
                [sum(ck * trans[k][col] for k, ck in enumerate(c))
                 for col in range(m)]))
        return tuple(dual)

    def is_elementary(self):
        """Whether M is (Z/p)^m for one prime p; the zero module counts."""
        return not self.group.rank or elementary_prime(self.group) is not None

    def pair(self, a, b):
        n = self.n
        acc = 0
        for i, x in enumerate(a):
            if x:
                row = self.gram[i]
                for j, y in enumerate(b):
                    if y:
                        acc += x * y * row[j]
        return acc % n

    def beta(self, a, b):
        """Unique alternating biadditive half of the pairing: 2*beta = <,>."""
        return (((self.n + 1) // 2) * self.pair(a, b)) % self.n

    def radical(self):
        m = self.group.rank
        if m == 0:
            return zero_subgroup(self.group)
        cols = [[self.gram[i][j] for j in range(m)] for i in range(m)]
        ker = intlin.stacked_kernel_mod(cols, self.n)
        gens = [self.group.reduce(row) for row in ker]
        return subgroup_from_gens(self.group, gens)

    def __eq__(self, other):
        return (
            isinstance(other, SympMod)
            and self.group == other.group
            and self.gram == other.gram
        )

    def __repr__(self):
        return "SympMod(orders=%r, n=%d)" % (self.group.orders, self.n)

    def to_json(self):
        return {"orders": list(self.group.orders), "gram": [list(r) for r in self.gram]}

    @staticmethod
    def from_json(obj):
        return SympMod(AbGroup(obj["orders"]), obj["gram"])


def standard_module(blocks):
    """Orthogonal sum of hyperbolic planes: one (e, f) pair of order q per
    unit of multiplicity, with <e, f> = n/q.
    """
    orders = []
    for q, mult in blocks:
        if q < 3 or q % 2 == 0:
            raise SymplecticError("block order %r must be an odd prime power > 1" % (q,))
        fs = prime_factors(q)
        if len(fs) != 1:
            raise SymplecticError("block order %r is not a prime power" % (q,))
        for _ in range(mult):
            orders.extend([q, q])
    n = 1
    for d in orders:
        n = lcm(n, d)
    m = len(orders)
    gram = [[0] * m for _ in range(m)]
    for i in range(0, m, 2):
        q = orders[i]
        gram[i][i + 1] = n // q
        gram[i + 1][i] = (-(n // q)) % n
    return SympMod(AbGroup(orders), gram)


def orth_complement(M, S):
    """S^perp = {m : <m, s> = 0 for all s in S}, computed exactly."""
    m = M.group.rank
    gens = S.gens()
    if not gens or m == 0:
        return subgroup_from_gens(M.group, M.group.basis())
    cols = [[M.pair(e, g) for g in gens] for e in M.group.basis()]
    ker = intlin.stacked_kernel_mod(cols, M.n)
    return subgroup_from_gens(M.group, [M.group.reduce(r) for r in ker])


def is_isotropic(M, S):
    gens = S.gens()
    return all(M.pair(a, b) == 0 for a, b in itertools.combinations(gens, 2))


class Lagrangian:
    __slots__ = ("module", "sub")

    def __init__(self, module, sub, validate=True):
        self.module = module
        self.sub = sub
        if validate:
            perp = orth_complement(module, sub)
            if perp != sub:
                raise SymplecticError("subgroup is not lagrangian")

    def key(self):
        return self.sub.key()

    def order(self):
        return self.sub.order()

    def __eq__(self, other):
        return isinstance(other, Lagrangian) and self.sub == other.sub

    def __hash__(self):
        return hash(self.sub)

    def __repr__(self):
        return "Lagrangian(%r)" % (self.sub.rows,)

    def to_json(self):
        return {"gens": [list(r) for r in self.sub.rows]}


def enumerate_lagrangians(M, budget=DEFAULT_LAGRANGIAN_BUDGET):
    """All lagrangian subgroups, canonically ordered (by their HNF rows).

    Walks the isotropic subgroups upward; any subgroup generated by an
    isotropic subgroup and a vector of its orthogonal complement is again
    isotropic, so the walk is complete.  An elementary module is walked
    over F_p (``_isotropic_walk_fp``), any other through HNF.
    """
    size = M.group.order()
    if size > budget:
        raise BudgetError(
            "lagrangian enumeration budget exceeded (|M| = %d > %d); "
            "pass an explicit budget to override" % (size, budget)
        )
    if M.is_elementary():
        found = _isotropic_walk_fp(M)
    else:
        found = _isotropic_walk(M, isqrt(size))
    return [Lagrangian(M, found[k]) for k in sorted(found.keys())]


def _isotropic_walk(M, target):
    """The lagrangians keyed by HNF rows: each isotropic S of order below
    ``target`` is extended by every element of S^perp outside it."""
    zero = zero_subgroup(M.group)
    seen = {zero.key(): zero}
    frontier = [zero]
    found = {}
    if target == 1:
        found[zero.key()] = zero
    while frontier:
        nxt = []
        for S in frontier:
            if S.order() >= target:
                continue
            perp = orth_complement(M, S)
            for v in perp.elements():
                if S.contains(v):
                    continue
                T = subgroup_from_gens(M.group, list(S.gens()) + [v])
                k = T.key()
                if k in seen:
                    continue
                seen[k] = T
                if T.order() < target:
                    nxt.append(T)
                elif T.order() == target:
                    found[k] = T
        frontier = nxt
    return found


def _isotropic_walk_fp(M):
    """The lagrangians of M = F_p^2r keyed by HNF rows, walked level by
    level over the isotropic subspaces, each held as its echelon basis.

    An isotropic S of dimension k < r is extended by one vector per line of
    S^perp / S.  In the echelon basis of S^perp built from the rows of S
    first, the pivots of S stay pivots, and the rows W at the other pivots
    are zero at them; so span(W) meets S in 0 and is a complement of S in
    S^perp.  Each line is one combination v of W whose first nonzero
    coefficient, on row i of W, is 1.  Then v is 1 at the pivot j of that
    row and zero at the pivots of S, so the rows of S cleared at column j,
    with v, are the echelon basis of S + <v>.  Each subspace of dimension
    k + 1 is reached from each of its hyperplanes and kept once.
    """
    p, m = M.n, M.group.rank
    level = [()]
    for _ in range(m // 2):
        nxt = set()
        for S in level:
            perp = orth_complement(
                M, Subgroup(M.group, intlin.hnf_mod(S, p, m))).gens()
            pivots = {row.index(1) for row in S}
            W = [w for w in intlin.echelon_mod(list(S) + perp, p)
                 if w.index(1) not in pivots]
            for i, w in enumerate(W):
                j = w.index(1)
                for tail in itertools.product(range(p), repeat=len(W) - i - 1):
                    v = w
                    for c, u in zip(tail, W[i + 1:]):
                        if c:
                            v = tuple((x + c * y) % p for x, y in zip(v, u))
                    rows = [tuple((x - row[j] * y) % p for x, y in zip(row, v))
                            if row[j] else row for row in S]
                    rows.append(v)
                    # in order of pivots: an earlier pivot is the larger row
                    nxt.add(tuple(sorted(rows, reverse=True)))
        level = nxt
    found = {}
    for S in level:
        sub = Subgroup(M.group, intlin.hnf_mod(S, p, m))
        found[sub.key()] = sub
    return found


def induced_form(M, S):
    """Symplectic module on S^perp / S with the scaled-down induced pairing.

    Returns (Mc, qmap) where qmap is the QuotientMap from S^perp onto Mc's
    underlying group.  The pairing of Mc pulls back to the pairing of M.
    """
    if not is_isotropic(M, S):
        raise SymplecticError("subgroup is not isotropic")
    perp = orth_complement(M, S)
    qm = quotient_pair(perp, S)
    Q = qm.group
    nq = Q.exponent()
    scale_den = M.n // nq if nq else M.n
    k = Q.rank
    gens = [qm.section(e) for e in Q.basis()]
    gram = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            v = M.pair(gens[i], gens[j])
            if nq:
                if v % (M.n // nq) != 0:
                    raise SymplecticError("induced pairing does not scale")
                gram[i][j] = v // (M.n // nq)
    Mc = SympMod(Q, gram)
    return Mc, qm


class SympAut:
    """Automorphism of a SympMod preserving the pairing; rows are images of
    the standard generators, acting on row vectors by v -> v @ mat."""

    __slots__ = ("module", "mat")

    def __init__(self, module, mat, validate=True):
        self.module = module
        self.mat = tuple(tuple(int(x) % module.group.orders[j] if module.group.rank else 0
                               for j, x in enumerate(row)) for row in mat)
        if validate:
            self.validate()

    def validate(self):
        M = self.module
        m = M.group.rank
        if len(self.mat) != m:
            raise SymplecticError("matrix has wrong shape")
        n = M.n
        for i in range(m):
            di = M.group.orders[i]
            for j in range(m):
                dj = M.group.orders[j]
                if (di * self.mat[i][j]) % dj != 0:
                    raise SymplecticError("matrix does not define a homomorphism")
        # invertibility: generators must generate
        img = subgroup_from_gens(M.group, [self.mat[i] for i in range(m)])
        if img.order() != M.group.order():
            raise SymplecticError("matrix is not invertible")
        basis = M.group.basis()
        for i in range(m):
            for j in range(m):
                if M.pair(self.mat[i], self.mat[j]) != M.pair(basis[i], basis[j]):
                    raise SymplecticError("matrix does not preserve the pairing")

    def apply(self, v):
        m = self.module.group.rank
        out = [0] * m
        for i, x in enumerate(v):
            if x:
                row = self.mat[i]
                for j in range(m):
                    out[j] += x * row[j]
        return self.module.group.reduce(out)

    def compose(self, other):
        """self after other: (self*other)(v) = self(other(v))."""
        return SympAut(
            self.module,
            [self.apply(other.mat[i]) for i in range(self.module.group.rank)],
            validate=False,
        )

    def inverse(self):
        """g^(-1) read off the pairing: <g^(-1) e_i, d_j> = <e_i, g d_j> for
        symplectic g and the dual basis d_j of the module, so row i of
        g^(-1) has coordinates <e_i, g d_j> / (n / o_j) mod o_j, o_j the
        order of e_j.  The rows are checked by composing back,
        g(row_i) == e_i for every i; since M is finite, that makes them the
        inverse."""
        M = self.module
        group = M.group
        n = M.n
        images = [self.apply(d) for d in M.dual]
        basis = group.basis()
        inv = SympAut(M, [[M.pair(e, gd) // (n // o)
                           for gd, o in zip(images, group.orders)]
                          for e in basis], validate=False)
        if any(self.apply(row) != group.reduce(e)
               for row, e in zip(inv.mat, basis)):
            raise SymplecticError("matrix is not invertible")
        return inv

    def is_identity(self):
        # mat holds reduced rows, so an order-1 summand's unit is 0 there
        group = self.module.group
        return self.mat == tuple(group.reduce(e) for e in group.basis())

    def on_subgroup(self, sub):
        return subgroup_from_gens(self.module.group, [self.apply(g) for g in sub.gens()])

    def key(self):
        return self.mat

    def __eq__(self, other):
        return isinstance(other, SympAut) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return "SympAut(%r)" % (self.mat,)


def identity_aut(M):
    return SympAut(M, M.group.basis(), validate=False)


def transvection(M, v, lam):
    """m -> m + lam <m, v> v; symplectic for every v and lam."""
    m = M.group.rank
    basis = M.group.basis()
    rows = []
    for i in range(m):
        c = (lam * M.pair(basis[i], v)) % M.n
        row = list(basis[i])
        for j in range(m):
            row[j] += c * v[j]
        rows.append(M.group.reduce(row))
    return SympAut(M, rows, validate=False)


def transvections(M):
    """All distinct transvection automorphisms, canonically ordered."""
    seen = {}
    for v in M.group.elements():
        if not any(v):
            continue
        for lam in range(1, M.n):
            t = transvection(M, v, lam)
            seen.setdefault(t.key(), t)
    out = [identity_aut(M)] + [seen[k] for k in sorted(seen.keys())]
    return out


def sp_enumerate(M, budget=DEFAULT_SP_ENUM_BUDGET):
    """The full symplectic group of a module of rank 0 or 2, by brute force
    over the 2x2 matrices; raises BudgetError in any other rank or over the
    budget on |M|."""
    size = M.group.order()
    if size > budget:
        raise BudgetError(
            "Sp enumeration budget exceeded (|M| = %d > %d)" % (size, budget)
        )
    m = M.group.rank
    if m == 0:
        return [identity_aut(M)]
    if m != 2:
        raise BudgetError("Sp enumeration is supported in rank 2 only")
    out = []
    for entries in itertools.product(range(M.n), repeat=4):
        try:
            out.append(SympAut(M, [entries[:2], entries[2:]]))
        except SymplecticError:
            continue
    return sorted(out, key=lambda g: g.key())


def sp_sample(M, seed, count):
    """Deterministic pseudorandom products of transvections."""
    rng = random.Random(seed)
    elements = list(M.group.elements())
    nonzero = [v for v in elements if any(v)]
    out = []
    for _ in range(count):
        g = identity_aut(M)
        if nonzero:
            for _ in range(8):
                v = nonzero[rng.randrange(len(nonzero))]
                lam = rng.randrange(1, M.n) if M.n > 1 else 0
                g = g.compose(transvection(M, v, lam))
        out.append(g)
    return out


# -- enhanced lagrangians -------------------------------------------------


class EnhLag:
    """Lagrangian of an elementary module plus a two-valued lift datum."""

    __slots__ = ("lag", "eps")

    def __init__(self, lag, eps):
        if eps not in (1, -1):
            raise SymplecticError("lift datum must be +1 or -1")
        if not lag.module.is_elementary():
            raise SymplecticError("enhanced data lives on elementary modules only")
        self.lag = lag
        self.eps = eps

    def flip(self):
        return EnhLag(self.lag, -self.eps)

    def key(self):
        return (self.lag.key(), self.eps)

    def __eq__(self, other):
        return isinstance(other, EnhLag) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "EnhLag(%r, %+d)" % (self.lag.sub.rows, self.eps)

    def to_json(self):
        return {"gens": [list(r) for r in self.lag.sub.rows], "eps": self.eps}


def enhanced_points(lag):
    return EnhLag(lag, 1), EnhLag(lag, -1)


def fp_basis(sub, p):
    """Canonical F_p basis of an elementary subgroup: the HNF rows with unit
    pivot, which form a fully reduced echelon basis mod p."""
    rows = []
    for i, row in enumerate(sub.rows):
        piv = row[sub._pivots[i]]
        if piv == 1:
            rows.append(tuple(x % p for x in row))
        elif piv % p != 0:
            raise SymplecticError("subgroup is not elementary")
    return rows


def act_enhanced(g, point):
    """Transport of an enhanced lagrangian along a symplectic automorphism.

    The lift multiplies by the Legendre class of the determinant relating
    the transported canonical basis to the canonical basis of the image.
    """
    M = point.lag.module
    p = M.n
    rows = fp_basis(point.lag.sub, p)
    if not rows:
        # zero lagrangian of the trivial or zero-dimensional case: the empty
        # wedge transports trivially
        return EnhLag(point.lag, point.eps)
    images = [g.apply(r) for r in rows]
    new_sub = g.on_subgroup(point.lag.sub)
    new_rows = fp_basis(new_sub, p)
    # coordinates of each image over the echelon basis of the image subgroup
    d = len(rows)
    coord = []
    for img in images:
        vec = list(img)
        cs = [0] * d
        for idx, brow in enumerate(new_rows):
            piv = next(j for j, x in enumerate(brow) if x % p == 1)
            c = vec[piv] % p
            cs[idx] = c
            if c:
                for j in range(len(vec)):
                    vec[j] = (vec[j] - c * brow[j]) % p
        if any(x % p for x in vec):
            raise SymplecticError("image basis solve failed")
        coord.append(cs)
    u = _det_mod(coord, p)
    if u == 0:
        raise SymplecticError("degenerate basis transport")
    sign = legendre(u, p)
    return EnhLag(Lagrangian(M, new_sub, validate=False), point.eps * sign)


def _det_mod(mat, p):
    d = len(mat)
    a = [[x % p for x in row] for row in mat]
    det = 1
    for col in range(d):
        piv = next((i for i in range(col, d) if a[i][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = (det * a[col][col]) % p
        inv = pow(a[col][col], -1, p)
        for i in range(col + 1, d):
            if a[i][col]:
                f = (a[i][col] * inv) % p
                for j in range(col, d):
                    a[i][j] = (a[i][j] - f * a[col][j]) % p
    return det % p


# -- Gauss sums -----------------------------------------------------------


def gauss_sum(group, gram):
    """G = sum over l of zeta_e^b(l, l) for a symmetric nondegenerate
    pairing b on an odd abelian group; satisfies G^4 = |L|^2."""
    if group.order() % 2 == 0:
        raise SymplecticError("group must have odd order")
    e = group.exponent()
    m = group.rank
    gram = [[x % e for x in strict_ints(row, SymplecticError, "gram entries")]
            for row in gram]
    if len(gram) != m or any(len(row) != m for row in gram):
        raise SymplecticError("gram matrix has wrong shape")
    for i in range(m):
        for j in range(m):
            if gram[i][j] != gram[j][i]:
                raise SymplecticError("pairing is not symmetric")
            di, dj = group.orders[i], group.orders[j]
            if (di * gram[i][j]) % e or (dj * gram[i][j]) % e:
                raise SymplecticError("pairing not compatible with orders")
    cols = [[gram[i][j] for j in range(m)] for i in range(m)]
    ker = intlin.stacked_kernel_mod(cols, e)
    if subgroup_from_gens(group, [group.reduce(r) for r in ker]).order() != 1:
        raise SymplecticError("pairing is degenerate")
    counts = [0] * e
    for l in group.elements():
        acc = 0
        for i, x in enumerate(l):
            if x:
                row = gram[i]
                for j, y in enumerate(l):
                    if y:
                        acc += x * y * row[j]
        counts[acc % e] += 1
    return from_powers(e, enumerate(counts))
