"""Reduction of a p-primary symplectic module to an elementary quotient.

The canonical isotropic subgroup S is built by the halving recursion
S_1 = p^ceil(r/2) M on the exponent; M_c = S^perp / S is then an F_p
symplectic space.  Induced modules over lagrangians containing S have their
S-invariants identified with induced modules of the reduced Heisenberg
group, which is why the canonical system lifts from M_c to M with its
scalars unchanged.
"""

from __future__ import annotations

from .abgroup import prime_factors, subgroup_from_gens, zero_subgroup
from .heisenberg import HeisGrp, induce
from .intertwine import CanonicalSystem, standard_pairs
from .symplectic import (
    Lagrangian,
    SympAut,
    induced_form,
    orth_complement,
)


class ReductionError(ValueError):
    pass


def _p_valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def canonical_isotropic(M):
    """The characteristic isotropic subgroup S with S^perp/S elementary.

    Returns (S, chain) where chain lists the exponent valuation at each
    recursion level.  Base case: elementary modules give S = 0.
    """
    primes = prime_factors(M.group.order()) if M.group.rank else []
    if len(primes) > 1:
        raise ReductionError("module is not primary; reduce per prime")
    p = primes[0] if primes else None
    if p is None:
        return zero_subgroup(M.group), [0]
    r_s = _p_valuation(M.n, p)
    if r_s <= 1:
        return zero_subgroup(M.group), [r_s]
    r_half = (r_s + 1) // 2
    m = M.group.rank
    step = p ** r_half
    S1 = subgroup_from_gens(
        M.group, [tuple(step if j == i else 0 for j in range(m)) for i in range(m)]
    )
    M1, qm1 = induced_form(M, S1)
    S_next, chain = canonical_isotropic(M1)
    gens = [qm1.section(g) for g in S_next.gens()] + list(S1.gens())
    S = subgroup_from_gens(M.group, gens)
    return S, [r_s] + chain


class ReductionData:
    """Everything attached to the reduction (M, S) -> (M_c, omega_c)."""

    def __init__(self, M):
        primes = prime_factors(M.group.order()) if M.group.rank else []
        if len(primes) > 1:
            raise ReductionError("module is not primary; reduce per prime")
        self.M = M
        self.p = primes[0] if primes else 1
        self.S, self.chain = canonical_isotropic(M)
        self.S_perp = orth_complement(M, self.S)
        self.Mc, self.qm = induced_form(M, self.S)
        if not self.Mc.is_elementary():
            raise ReductionError("reduced module is not elementary abelian")
        self.Hc = HeisGrp(self.Mc)
        self.H = HeisGrp(M)

    def proj(self, m):
        return self.qm.proj(m)

    def section(self, q):
        return self.qm.section(q)

    def in_domain(self, h):
        """Membership of (m, a) in the alpha domain S^perp x mu_p."""
        m, a = h
        n = self.M.n
        return self.S_perp.contains(m) and (a * self.p) % n == 0

    def alpha(self, h):
        """The reduction homomorphism on S^perp x mu_p, kernel exactly S.

        The central scale identifies the order-p subgroup of mu_n with mu_p
        through zeta_n^(n/p) = zeta_p; no larger central domain admits a
        homomorphism compatible with the reduced cocycle.
        """
        if not self.in_domain(h):
            raise ReductionError("element %r is outside S^perp x mu_p" % (h,))
        m, a = h
        n = self.M.n
        return (self.proj(m), (a // (n // self.p)) % self.p if self.p > 1 else 0)

    def central_lift(self, hc):
        """The subgroup embedding H_c -> H^S/S, choosing the canonical
        section on the module part."""
        mc, b = hc
        return (self.section(mc), (b * (self.M.n // self.p)) % self.M.n)

    def lag_lift(self, lag_c):
        """Preimage in S^perp of a lagrangian of M_c; lagrangian in M."""
        gens = [self.section(g) for g in lag_c.sub.gens()] + list(self.S.gens())
        sub = subgroup_from_gens(self.M.group, gens)
        L = Lagrangian(self.M, sub)
        return L


def g_to_gc(red, g):
    """The induced symplectic automorphism of M_c; errors if g moves S."""
    if g.on_subgroup(red.S) != red.S:
        raise ReductionError("automorphism does not fix the canonical subgroup")
    if g.on_subgroup(red.S_perp) != red.S_perp:
        raise ReductionError("automorphism does not fix S^perp")
    rows = []
    for e in red.Mc.group.basis():
        rows.append(red.proj(g.apply(red.section(e))))
    return SympAut(red.Mc, rows)


def lift_canonical_system(red, sys_c):
    """Lift the canonical system from M_c to intertwiners over M.

    The lagrangians of M_c lift to the lagrangians of M containing S, and
    tau: H_{L_c} -> (H_L)^S, tau(f)((m, a)) = zeta_n^a * f((m mod S, 0)) on
    S^perp x mu_n and zero off it, identifies each reduced induced module
    with the S-invariants of the lifted one.  Each lifted operator is the
    H-intertwiner c_i * T_{i,B} restricting on S-invariants to
    tau o F_c o tau^(-1), and its scalar is the scalar c_i solved on M_c:
    both standard intertwiners average over L_i / (L_i cap L_B), and since
    L_i and L_B contain S that set maps one-to-one onto
    L_i^c / (L_i^c cap L_B^c).  The homomorphism ``alpha`` carries the
    cocycle and the lagrangian characters on S^perp to those of M_c, so
    tau carries one sum onto the other term by term:
    T_{i,B} o tau_B = tau_i o T^c_{i,B}.  The scalar relating the lifted
    to the reduced operator is therefore 1, and the standard intertwiners
    over M with ``sys_c.c`` are the lift.

    When M_c is M, every order is p and the quotient map and tau are
    identities, so ``sys_c`` itself is the lift.  A trivial S is not enough:
    orders (3, 3, 1) give S = 0 but an M_c of rank 2, lifted to rank 3.
    """
    if red.Mc == red.M:
        return sys_c
    lifted_lags = [red.lag_lift(L) for L in sys_c.lags]
    mods = [induce(red.H, L) for L in lifted_lags]
    B = sys_c.base_index
    T_LB, T_BL, delta = standard_pairs(mods, B)
    return CanonicalSystem(red.M, sys_c.enh_module, lifted_lags,
                           sys_c.enh_lags, B, mods, T_LB, T_BL, delta,
                           sys_c.c, conductor=red.M.n)
