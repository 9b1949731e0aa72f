"""Heisenberg extensions H = M x mu_n and their induced modules.

Group elements are pairs (m, a) with a the exponent of zeta_n, multiplied
through the half-form: (m1,a1)(m2,a2) = (m1+m2, a1+a2+beta(m1,m2)).  The
induced module over a lagrangian L is induced from the canonical character
(l, a) -> zeta_n^a of L x mu_n and carries explicit action matrices over
the cyclotomic field; the basis is indexed by the lexicographically minimal
coset representatives of M/L (the box below the HNF pivots of L), and the
action is by right translation.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import isqrt
from operator import mul

from .abgroup import AbGroup, p_valuation, prime_factors
from .cyclo import from_powers
from .kmat import GenPerm, mat_to_json
from .symplectic import SympMod, SymplecticError


class HeisGrp:
    __slots__ = ("base", "n")

    def __init__(self, base):
        self.base = base
        self.n = base.n

    def identity(self):
        return (self.base.group.zero(), 0)

    def product(self, h1, h2):
        m1, a1 = h1
        m2, a2 = h2
        m = self.base.group.add(m1, m2)
        a = (a1 + a2 + self.base.beta(m1, m2)) % self.n
        return (m, a)

    def inverse(self, h):
        m, a = h
        return (self.base.group.neg(m), (-a) % self.n)

    def sigma(self, h):
        """The symmetric structure: (m, a) -> (-m, a)."""
        m, a = h
        return (self.base.group.neg(m), a % self.n)

    def commutator(self, h1, h2):
        a = self.product(self.product(h1, h2), self.inverse(self.product(h2, h1)))
        return a

    def g_act(self, g, h):
        """Symplectic automorphisms act through the base: (m, a) -> (gm, a)."""
        m, a = h
        return (g.apply(m), a % self.n)

    def elements(self):
        for m in self.base.group.elements():
            for a in range(self.n):
                yield (m, a)

    def order(self):
        return self.base.group.order() * self.n

    def __eq__(self, other):
        return isinstance(other, HeisGrp) and self.base == other.base

    def __repr__(self):
        return "HeisGrp(%r)" % (self.base,)


def heis_primary(H, p):
    """The p-primary Heisenberg subgroup as a Heisenberg group in its own
    coordinates, together with the embedding of its generators into M."""
    M = H.base
    n = H.n
    np_part = p ** p_valuation(n, p)
    if np_part == 1:
        triv = SympMod(AbGroup(()), [])
        return HeisGrp(triv), []
    orders = []
    embed = []
    m = M.group.rank
    for i, d in enumerate(M.group.orders):
        dp = p ** p_valuation(d, p)
        if dp > 1:
            orders.append(dp)
            embed.append(M.group.reduce(tuple((d // dp) if j == i else 0
                                              for j in range(m))))
    gram = []
    for ei in embed:
        row = []
        for ej in embed:
            v = M.pair(ei, ej)
            assert v % (n // np_part) == 0
            row.append(v // (n // np_part))
        gram.append(row)
    Mp = SympMod(AbGroup(orders), gram)
    return HeisGrp(Mp), embed


def primary_split(H):
    """Primary Heisenberg factors with projection data.

    Returns a list of (p, Hp, embed, crt) where crt * (n / p^r) = 1 mod p^r;
    an element (m, a) of H decomposes with m_p = crt * (n/p^r) * m and
    central part a_p = crt * a mod p^r.
    """
    n = H.n
    out = []
    for p in prime_factors(n):
        Hp, embed = heis_primary(H, p)
        npr = Hp.n
        rest = n // npr
        crt = pow(rest, -1, npr)
        out.append((p, Hp, embed, crt))
    return out


def primary_project(H, Hp, embed, crt, h):
    """Component of h in the p-primary factor, in the factor's coordinates."""
    m, a = h
    M = H.base
    npr = Hp.n
    rest = H.n // npr
    mp_ambient = M.group.scale((crt * rest) % H.n, m)
    # embed generators are diagonal multiples of standard generators,
    # so coordinates read off directly
    coords = []
    for gen, dp in zip(embed, Hp.base.group.orders):
        i = next(k for k, x in enumerate(gen) if x)
        step = gen[i]
        x = mp_ambient[i]
        assert x % step == 0
        coords.append((x // step) % dp)
    return (tuple(coords), (crt * a) % npr if npr else 0)


class InducedModule:
    """The right-translation module of functions f on H with
    f(lbar h) = chi(lbar) f(h) for lbar in L-bar = L x mu_n, where
    chi((l, a)) = zeta_n^a is the canonical character.

    chi is a character of L-bar because beta = ((n+1)/2) * pairing vanishes
    on L x L, L being isotropic.  The basis is indexed by the coset
    representatives of M/L that ``coset_reduce`` returns: the HNF of L holds
    d_i e_i for every i, so it has a pivot in every column, and the
    representatives are exactly the box of vectors with i-th coordinate in
    [0, rows[i][i]), in lexicographic order.

    ``_source_words`` holds what ``intertwine.hom_dim`` checked of the
    module as a source, made on its first call.
    """

    __slots__ = ("H", "lag", "reps", "index", "dim", "_rep_of_cache",
                 "_generator_tables", "_support_counts", "_source_words")

    def __init__(self, H, lag):
        self.H = H
        self.lag = lag
        self.reps = tuple(itertools.product(
            *(range(row[i]) for i, row in enumerate(lag.sub.rows))))
        self.index = {r: i for i, r in enumerate(self.reps)}
        self.dim = len(self.reps)
        expected = isqrt(H.base.group.order())
        if self.dim != expected:
            raise SymplecticError("induced module dimension %d != sqrt(|M|) = %d"
                                  % (self.dim, expected))
        self._rep_of_cache = {}
        self._generator_tables = None
        self._support_counts = None
        self._source_words = None

    def rep_of(self, m):
        """The canonical coset representative of m + L."""
        r = self._rep_of_cache.get(m)
        if r is None:
            r = self.lag.sub.coset_reduce(m)
            self._rep_of_cache[m] = r
        return r

    def locate(self, y):
        """(j, e) with (y, 0) = (l, e) * (r_j, 0) in H: r_j = rep_of(y),
        l = y - r_j in L and e = -beta(l, r_j) mod n.

        This is the one decomposition every basis computation of the model
        rests on: the basis function f_j is supported on L-bar * (r_j, 0)
        with f_j((r_j, 0)) = 1, so f_j((y, 0)) = zeta_n^e.
        """
        r = self.rep_of(y)
        l = self.H.base.group.sub(y, r)
        return self.index[r], -self.H.base.beta(l, r) % self.H.n

    def rho_parts(self, h):
        """(perm, exponents): column j maps to row perm[j] with scalar
        zeta_n^(exponents[j]), read row by row: (r_i, 0)(m, a) =
        (r_i + m, a + beta(r_i, m)), and ``locate`` puts r_i + m in
        column j."""
        beta = self.H.base.beta
        add = self.H.base.group.add
        m, a = h
        n = self.H.n
        perm = [0] * self.dim
        expo = [0] * self.dim
        for i, ri in enumerate(self.reps):
            j, e = self.locate(add(ri, m))
            perm[j] = i
            expo[j] = (a + beta(ri, m) + e) % n
        return perm, expo

    def rho_genperm(self, h):
        perm, expo = self.rho_parts(h)
        return GenPerm(perm, expo, self.H.n)

    def rho(self, h):
        """Dense action matrix of h."""
        return self.rho_genperm(h).to_dense()

    def group_generators(self):
        """A generating set of H: module generators of M plus the center."""
        group = self.H.base.group
        return [(e, 0) for e in group.basis()] + [(group.zero(), 1)]

    def generator_tables(self):
        """``point_table`` of ``rho_parts`` of each of
        ``group_generators``, made once."""
        if self._generator_tables is None:
            self._generator_tables = [
                point_table(*self.rho_parts(h), self.H.n)
                for h in self.group_generators()]
        return self._generator_tables

    def support_counts(self):
        """chi((l, 0)) for every l in L, as its sorted nonzero (exponent,
        count) pairs, made once.

        h = (m, a) sends the coset r + L to r - m + L, so column j is a fixed
        point exactly when r_j - m lies in r_j + L, that is when m lies in L:
        for m outside L the trace is zero, and for m in L every coset is
        fixed with l = m in ``locate``, contributing
        zeta_n^(a + beta(r_j, m) - beta(m, r_j)) = zeta_n^(a + <r_j, m>), as
        2 beta = <,> is alternating.  The exponent <r_j, l> = (r_j G) . l is
        linear in l, so each row r_j G (G the gram) is made once.
        """
        if self._support_counts is None:
            n = self.H.n
            cols = list(zip(*self.H.base.gram))
            rows = [[sum(map(mul, r, col)) for col in cols] for r in self.reps]
            self._support_counts = {
                l: sorted(Counter(sum(map(mul, row, l)) % n
                                  for row in rows).items())
                for l in self.lag.sub.elements()}
        return self._support_counts

    def character(self, h):
        """chi((m, a)): the ``support_counts`` of m shifted by a, and none,
        so the zero of conductor n, for m outside L."""
        m, a = h
        terms = self.support_counts().get(self.H.base.group.reduce(m), ())
        return from_powers(self.H.n, ((e + a, c) for e, c in terms))

    def to_json(self):
        return {
            "lagrangian": self.lag.to_json(),
            "dim": self.dim,
            "generators": [
                {"element": [list(m), a], "matrix": mat_to_json(self.rho((tuple(m), a)))}
                for (m, a) in self.group_generators()
            ],
        }


def point_table(perm, expo, n):
    """The monomial map (perm, expo) as a permutation of the dim * n points
    k * n + e, point k * n + e standing for zeta_n^e times basis vector k:
    column k maps to row perm[k] with zeta_n^(expo[k]), so point k * n + e
    goes to perm[k] * n + (expo[k] + e) mod n.  A product of such maps is
    the composition of their tables, with no arithmetic."""
    return tuple(j * n + (x + e) % n for j, x in zip(perm, expo)
                 for e in range(n))


def induce(H, lag):
    return InducedModule(H, lag)


def g_transport(g, module, target):
    """The isomorphism H_L -> H_gL given by (g f)(h) = f(g^(-1) h), as a
    GenPerm onto the prebuilt ``target`` module over gL.

    g f_j is supported on gL-bar * (g r_j, 0).  With i, e =
    target.locate(g r_j), that is (g r_j, 0) = (l, e) * (r_i, 0), so
    (g f_j)((r_i, 0)) = f_j((g^(-1) l, e)^(-1) * (r_j, 0)) = zeta_n^(-e):
    column j maps to row i with exponent -e, and no g^(-1) is formed.
    Composition-compatible: transport(g1 g2) = transport(g1) o
    transport(g2) exactly.
    """
    # g is injective, so g L <= N with |N| = |L| gives g L = N
    if target.lag.order() != module.lag.order() or not all(
            target.lag.sub.contains(g.apply(l)) for l in module.lag.sub.gens()):
        raise SymplecticError("supplied target module has the wrong lagrangian")
    perm = [0] * module.dim
    expo = [0] * module.dim
    for j, rj in enumerate(module.reps):
        perm[j], e = target.locate(g.apply(rj))
        expo[j] = -e
    return GenPerm(perm, expo, module.H.n)
