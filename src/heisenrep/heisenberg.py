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
from math import isqrt

from .abgroup import AbGroup
from .cyclo import from_powers
from .kmat import GenPerm
from .symplectic import Lagrangian, SympMod, SymplecticError


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
    np_part = 1
    nn = n
    while nn % p == 0:
        nn //= p
        np_part *= p
    if np_part == 1:
        triv = SympMod(AbGroup(()), [])
        return HeisGrp(triv), []
    orders = []
    embed = []
    m = M.group.rank
    for i, d in enumerate(M.group.orders):
        dp = 1
        dd = d
        while dd % p == 0:
            dd //= p
            dp *= p
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


def primary_embed(H, Hp, embed, hp):
    """Map an element of a primary Heisenberg factor into H.

    The center maps by zeta_{p^r} = zeta_n^(n/p^r); the cocycles agree
    because both half-forms are the inverse of 2 in their rings.
    """
    mp, ap = hp
    M = H.base
    m = M.group.zero()
    for coord, gen in zip(mp, embed):
        m = M.group.add(m, M.group.scale(coord, gen))
    scale = H.n // Hp.n if Hp.n else H.n
    return (m, (ap * scale) % H.n)


def primary_split(H):
    """Primary Heisenberg factors with projection data.

    Returns a list of (p, Hp, embed, crt) where crt * (n / p^r) = 1 mod p^r;
    an element (m, a) of H decomposes with m_p = crt * (n/p^r) * m and
    central part a_p = crt * a mod p^r.
    """
    from .abgroup import prime_factors

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
    """

    __slots__ = ("H", "lag", "reps", "index", "dim", "_rep_of_cache")

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

    def rep_of(self, m):
        """The canonical coset representative of m + L."""
        r = self._rep_of_cache.get(m)
        if r is None:
            r = self.lag.sub.coset_reduce(m)
            self._rep_of_cache[m] = r
        return r

    def rho_parts(self, h):
        """(perm, exponents): column j maps to row perm[j] with scalar
        zeta_n^(exponents[j])."""
        M = self.H.base
        group = M.group
        m, a = h
        n = self.H.n
        perm = [0] * self.dim
        expo = [0] * self.dim
        for j, rj in enumerate(self.reps):
            ri = self.rep_of(group.sub(rj, m))
            i = self.index[ri]
            lp = group.sub(group.add(ri, m), rj)
            e = (a + M.beta(ri, m) - M.beta(lp, rj)) % n
            perm[j] = i
            expo[j] = e
        return perm, expo

    def rho_genperm(self, h):
        perm, expo = self.rho_parts(h)
        return GenPerm(perm, expo, self.H.n)

    def rho(self, h):
        """Dense action matrix of h."""
        return self.rho_genperm(h).to_dense(self.H.n)

    def group_generators(self):
        """A generating set of H: module generators of M plus the center."""
        group = self.H.base.group
        return [(e, 0) for e in group.basis()] + [(group.zero(), 1)]

    def char_exponent_counts(self, h):
        """Trace of rho(h) as a vector of zeta_n exponent multiplicities."""
        counts = [0] * self.H.n
        perm, expo = self.rho_parts(h)
        for j in range(self.dim):
            if perm[j] == j:
                counts[expo[j]] += 1
        return counts

    def character(self, h):
        return from_powers(self.H.n, enumerate(self.char_exponent_counts(h)))

    def to_json(self):
        from .kmat import mat_to_json

        return {
            "lagrangian": self.lag.to_json(),
            "dim": self.dim,
            "generators": [
                {"element": [list(m), a], "matrix": mat_to_json(self.rho((tuple(m), a)))}
                for (m, a) in self.group_generators()
            ],
        }


def induce(H, lag):
    return InducedModule(H, lag)


def g_transport(g, module, target=None):
    """The isomorphism H_L -> H_gL given by (g f)(h) = f(g^(-1) h).

    Returns (GenPerm matrix, target InducedModule).  Composition-compatible:
    transport(g1 g2) = transport(g1) o transport(g2) exactly.  A prebuilt
    ``target`` module over gL may be supplied to avoid reconstruction.
    """
    H = module.H
    M = H.base
    group = M.group
    n = H.n
    g_inv = g.inverse()
    if target is None:
        new_lag = Lagrangian(M, g.on_subgroup(module.lag.sub), validate=False)
        target = InducedModule(H, new_lag)
    else:
        if target.lag.sub != g.on_subgroup(module.lag.sub):
            raise SymplecticError("supplied target module has the wrong lagrangian")
    perm = [0] * module.dim
    expo = [0] * module.dim
    for i, ri in enumerate(target.reps):
        x = g_inv.apply(ri)
        rj = module.rep_of(x)
        j = module.index[rj]
        lp = group.sub(x, rj)
        perm[j] = i
        expo[j] = -M.beta(lp, rj)
    return GenPerm(perm, expo, n), target
