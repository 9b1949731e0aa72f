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
from operator import add, mul

from . import intlin
from .abgroup import (
    AbGroup,
    QuotientMap,
    Subgroup,
    elementary_prime,
    prime_factors,
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
        return kernel_subgroup(self.group, self.gram, self.n)

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


def kernel_subgroup(group, cols, n):
    """The subgroup of the x in ``group`` with x @ cols == 0 (mod n), cols
    holding one row per standard generator: the reductions of
    ``intlin.stacked_kernel_mod`` generate it."""
    return subgroup_from_gens(group, [group.reduce(r) for r in
                                      intlin.stacked_kernel_mod(cols, n)])


def orth_complement(M, S):
    """S^perp = {m : <m, s> = 0 for all s in S}, computed exactly."""
    gens = S.gens()
    return kernel_subgroup(
        M.group, [[M.pair(e, g) for g in gens] for e in M.group.basis()], M.n)


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

    An elementary module F_p^2r is listed cell by cell: in a symplectic
    basis (e_1..e_r, f_1..f_r), read in the column order
    (e_1, ..., e_r, f_r, ..., f_1), the reduced echelon basis of a
    lagrangian L has exactly one of e_i, f_i as a pivot for each i.  (The
    tails of that order form a flag W with W_k^perp = W_(2r+2-k), and
    dim(L cap W_k) = r - k + 1 + dim(L cap W_k^perp) for L = L^perp, so
    the pivot set jumps at k exactly when it does not at 2r + 1 - k.)  The
    echelon basis is unique, so L lies in the one Schubert cell of its
    e-pivots J, an affine space of p^(sum over i in J of r + 1 - i) points
    (Fulton-Pragacz, "Schubert varieties and degeneracy loci", LNM 1689,
    1998), and ``_lagrangian_cells`` writes each point down once.  Every
    result is checked: r independent pairwise orthogonal echelon rows
    span an isotropic subgroup of order sqrt(|M|), which is lagrangian.

    Any other module is walked through HNF (``_isotropic_walk``): a
    subgroup generated by an isotropic subgroup and a vector of its
    orthogonal complement is again isotropic, so the walk is complete.
    """
    size = M.group.order()
    if size > budget:
        raise BudgetError(
            "lagrangian enumeration budget exceeded (|M| = %d > %d); "
            "pass an explicit budget to override" % (size, budget)
        )
    if not M.is_elementary():
        found = _isotropic_walk(M, isqrt(size))
        return [Lagrangian(M, found[k]) for k in sorted(found.keys())]
    p, m = M.n, M.group.rank
    cols = list(zip(*M.gram))
    known = {}

    def held(a):
        """One object per distinct echelon row a, with a G for the gram G:
        <a, b> = (a G) . b."""
        if a not in known:
            known[a] = (a, [sum(map(mul, a, col)) for col in cols])
        return known[a]

    found, points = {}, 0
    for rows in _lagrangian_cells(M):
        echelon = [held(a) for a in intlin.echelon_mod(rows, p)]
        if len(echelon) != m // 2 or any(
                sum(map(mul, a_gram, b)) % p
                for i, (_a, a_gram) in enumerate(echelon)
                for b, _b_gram in echelon[i + 1:]):
            raise SymplecticError("Schubert cell point %r is not lagrangian; "
                                  "this is a bug" % ([a for a, _ in echelon],))
        sub = Subgroup(M.group, intlin.hnf_mod([a for a, _ in echelon], p, m))
        found[sub.key()] = sub
        points += 1
    if len(found) != points:
        raise SymplecticError("two Schubert cell points give one lagrangian; "
                              "this is a bug")
    return [Lagrangian(M, found[k], validate=False) for k in sorted(found)]


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


def symplectic_basis(M):
    """(e_1..e_r, f_1..f_r) in M = F_p^2r with <e_i, f_j> = delta_ij and
    <e_i, e_j> = <f_i, f_j> = 0, by Gram-Schmidt for the pairing: e is the
    first vector left, f the first that pairs with it (the vectors left span
    a nondegenerate subspace), scaled to <e, f> = 1, and every other v
    becomes v - <v, f> e + <v, e> f.  A ``standard_module`` gets its
    coordinate basis back."""
    p = M.n
    left = [tuple(v) for v in M.group.basis()]
    es, fs = [], []
    while left:
        e = left.pop(0)
        f = left.pop(next(j for j, v in enumerate(left) if M.pair(e, v)))
        s = pow(M.pair(e, f), -1, p)
        f = tuple(s * x % p for x in f)
        left = [tuple((x - M.pair(v, f) * a + M.pair(v, e) * b) % p
                      for x, a, b in zip(v, e, f)) for v in left]
        es.append(e)
        fs.append(f)
    return es, fs


def _lagrangian_cells(M):
    """A spanning set, in M's coordinates, of every lagrangian of
    M = F_p^2r, one Schubert cell after the other (``enumerate_lagrangians``).

    In the basis of ``symplectic_basis``, the columns read in the order
    (e_1..e_r, f_r..f_1), an echelon basis with the pivots e_i (i in J) and
    f_k (k not in J) is zero at the other pivots and free at every other
    column after its own pivot: row e_i at e_k (k > i, k not in J) and at
    f_j (j in J), row f_k at f_i (i in J, i < k).  Isotropy fixes the rest
    of the cell, with free entries x_ik at e_k and y_ij at f_j of row e_i:

        row e_i = e_i + sum_k x_ik e_k + sum_j y_ij f_j,
        row f_k = f_k - sum over i in J, i < k of x_ik f_i,

    as <row e_i, row f_k> = x_ik plus the f_i entry of row f_k, and
    <row e_i, row e_j> = y_ji - y_ij; two rows f_k pair to zero.  So
    row e_i has r - i + 1 free entries (y_ij = y_ji counted in the earlier
    row), and the cell has p^(sum over i in J of r + 1 - i) points.

    Each point is the base rows plus one multiple of a fixed step per free
    entry, the r rows held as one flat vector, row i pivoting at e_i or
    f_i; a cell is listed by adding the steps one free entry at a time,
    entries taken mod p by ``echelon_mod``.
    """
    p, m = M.n, M.group.rank
    r = m // 2
    es, fs = symplectic_basis(M)
    zero = (0,) * m
    for J in itertools.chain.from_iterable(
            itertools.combinations(range(r), k) for k in range(r + 1)):
        steps = []
        for i in J:
            for k in range(i + 1, r):
                steps.append([(i, fs[k]), (k, fs[i])] if k in J else
                             [(i, es[k]), (k, [-x for x in fs[i]])])
            steps.append([(i, fs[i])])
        points = [[x for k in range(r) for x in (es[k] if k in J else fs[k])]]
        for terms in steps:
            placed = dict(terms)
            step = [x for k in range(r) for x in placed.get(k, zero)]
            multiples = [[c * x for x in step] for c in range(1, p)]
            points += [list(map(add, point, mult)) for point in points
                       for mult in multiples]
        for point in points:
            yield [point[k * m:k * m + m] for k in range(r)]


def induced_form(M, S):
    """Symplectic module on S^perp / S with the scaled-down induced pairing.

    Returns (Mc, qmap) where qmap is the QuotientMap from S^perp onto Mc's
    underlying group.  The pairing of Mc pulls back to the pairing of M.
    """
    if not is_isotropic(M, S):
        raise SymplecticError("subgroup is not isotropic")
    perp = orth_complement(M, S)
    qm = QuotientMap(perp, S)
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
        self.mat = tuple(tuple(int(x) % module.group.orders[j]
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
    return SympAut(M, _transvection_rows(M, v, lam, _pairings(M, v)),
                   validate=False)


def _pairings(M, v):
    """<e_i, v> for every standard generator e_i: row i of the gram
    dotted with v (not reduced)."""
    return [sum(map(mul, row, v)) for row in M.gram]


def _transvection_rows(M, v, lam, pairings):
    """The rows t_{v,lam}(e_i) = e_i + lam <e_i, v> v, reduced, from the
    ``pairings`` <e_i, v>; a tuple equal to the ``mat`` of the
    transvection."""
    n, reduce = M.n, M.group.reduce
    rows = []
    for i, p in enumerate(pairings):
        c = lam * p % n
        row = [c * x for x in v]
        row[i] += 1
        rows.append(reduce(row))
    return tuple(rows)


def transvections(M):
    """All distinct transvection automorphisms, canonically ordered: the
    identity, then the rest sorted by key.  For every lam, v and -v give
    one transvection (lam <m, -v> (-v) = lam <m, v> v), so each v is
    visited once up to sign: v is skipped when -v came before it.  The
    pairings <e_i, v> are taken once per v, and an automorphism is made
    only for rows not met before."""
    orders = M.group.orders
    seen = {}
    for v in M.group.elements():
        if not any(v) or tuple(-x % d for x, d in zip(v, orders)) < v:
            continue
        pairings = _pairings(M, v)
        for lam in range(1, M.n):
            rows = _transvection_rows(M, v, lam, pairings)
            if rows not in seen:
                seen[rows] = SympAut(M, rows, validate=False)
    return [identity_aut(M)] + [seen[k] for k in sorted(seen)]


def sp_enumerate(M, budget=DEFAULT_SP_ENUM_BUDGET):
    """The full symplectic group of a module of rank 0 or 2, in key order;
    raises BudgetError in any other rank or over the budget on |M|.

    In rank 2 both orders equal n (|M| is a square and n divides its
    root), and <e_1, e_2> = g is a unit mod n.  The rows r_1 = (a, b),
    r_2 = (c, d) pair to <r_1, r_2> = (ad - bc) g, so <r_1, r_2> = g says
    that ad - bc = 1: every such matrix is invertible and, the pairing
    being alternating, preserves it.  The candidates are listed in the
    order of their entries, which is key order."""
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
    n, g = M.n, M.gram[0][1]
    return [SympAut(M, ((a, b), (c, d)), validate=False)
            for a, b, c, d in itertools.product(range(n), repeat=4)
            if ((a * d - b * c) * g - g) % n == 0]


def sp_sample(M, seed, count):
    """Deterministic pseudorandom products t_1 t_2 ... t_8 of transvections
    t = t_{v,lam}, v a nonzero vector and lam in 1..n-1 drawn in that
    order.  Each product is kept as its rows g(e_i): row i of g t is
    g(t e_i) = g e_i + lam <e_i, v> g(v), so a step applies g once, to v,
    and changes only the rows with a nonzero coefficient."""
    rng = random.Random(seed)
    group = M.group
    n, reduce = M.n, group.reduce
    nonzero = [v for v in group.elements() if any(v)]
    identity = [reduce(e) for e in group.basis()]
    out = []
    for _ in range(count):
        rows = list(identity)
        if nonzero:
            for _ in range(8):
                v = nonzero[rng.randrange(len(nonzero))]
                lam = rng.randrange(1, n)
                gv = [0] * group.rank
                for x, row in zip(v, rows):
                    if x:
                        gv = [s + x * y for s, y in zip(gv, row)]
                for i, p in enumerate(_pairings(M, v)):
                    c = lam * p % n
                    if c:
                        rows[i] = reduce([x + c * y
                                          for x, y in zip(rows[i], gv)])
        out.append(SympAut(M, rows, validate=False))
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


def act_enhanced(g, point):
    """Transport of an enhanced lagrangian along a symplectic automorphism.

    The lift multiplies by the Legendre class of the determinant of the
    transported echelon basis of L over the echelon basis of gL, which is
    the span of the images by construction.
    """
    M = point.lag.module
    p = M.n
    rows = point.lag.sub.echelon()
    if not rows:
        # zero lagrangian of the trivial or zero-dimensional case: the empty
        # wedge transports trivially
        return EnhLag(point.lag, point.eps)
    images = [g.apply(r) for r in rows]
    new_sub = subgroup_from_gens(M.group, images)
    u = intlin.orientation(images, new_sub.echelon(), p)
    if u == 0:
        raise SymplecticError("degenerate basis transport")
    sign = legendre(u, p)
    return EnhLag(Lagrangian(M, new_sub, validate=False), point.eps * sign)


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
    if kernel_subgroup(group, gram, e).order() != 1:
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
