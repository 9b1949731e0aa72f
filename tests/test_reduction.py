import hashlib
import random

import pytest
from dense_oracle import (
    central_lift,
    is_identity,
    tau_matched_scalars,
    tau_matrix,
)
from helpers import sampled_automorphisms

from heisenrep.abgroup import AbGroup, subgroup_from_gens
from heisenrep.heisenberg import HeisGrp, induce
from heisenrep.intertwine import solve_canonical_system
from heisenrep.kmat import identity, mat_eq, mat_mul, scalar_mul
from heisenrep.reduction import (
    ReductionData,
    ReductionError,
    canonical_isotropic,
    g_to_gc,
    lift_canonical_system,
)
from heisenrep.symplectic import (
    SympAut,
    SympMod,
    enumerate_lagrangians,
    sp_sample,
    standard_module,
)


def test_canonical_isotropic_elementary_base_case():
    M = standard_module([(3, 1)])
    S, chain = canonical_isotropic(M)
    assert S.order() == 1 and chain == [1]


def test_canonical_isotropic_z9():
    M9 = standard_module([(9, 1)])
    S, chain = canonical_isotropic(M9)
    assert S == subgroup_from_gens(M9.group, [[3, 0], [0, 3]])
    assert chain == [2, 0]
    red = ReductionData(M9)
    assert red.Mc.group.order() == 1


def test_canonical_isotropic_z27():
    M27 = standard_module([(27, 1)])
    S, chain = canonical_isotropic(M27)
    assert S == subgroup_from_gens(M27.group, [[9, 0], [0, 9]])
    assert chain == [3, 1]
    red = ReductionData(M27)
    assert red.Mc.group.orders == (3, 3)


def test_canonical_isotropic_mixed():
    Mmix = standard_module([(9, 1), (3, 1)])
    S, chain = canonical_isotropic(Mmix)
    assert S == subgroup_from_gens(Mmix.group, [[3, 0, 0, 0], [0, 3, 0, 0]])
    red = ReductionData(Mmix)
    assert red.Mc.group.orders == (3, 3)


def test_recursion_strictly_decreases_exponent():
    rng = random.Random(0)
    from heisenrep.symplectic import induced_form, orth_complement

    for blocks in ([(27, 1)], [(9, 1), (3, 1)], [(27, 1), (3, 1)], [(25, 1)],
                   [(9, 2)]):
        M = standard_module(blocks)
        p = 3 if M.n % 3 == 0 else 5
        v = 0
        n = M.n
        while n % p == 0:
            n //= p
            v += 1
        if v < 2:
            continue
        r_half = (v + 1) // 2
        m = M.group.rank
        S1 = subgroup_from_gens(
            M.group,
            [tuple(p ** r_half if j == i else 0 for j in range(m)) for i in range(m)],
        )
        M1, _ = induced_form(M, S1)
        assert M1.n < M.n


def test_reduction_invariants():
    for blocks in ([(9, 1)], [(27, 1)], [(9, 1), (3, 1)], [(3, 2)]):
        M = standard_module(blocks)
        red = ReductionData(M)
        from heisenrep.symplectic import is_isotropic, orth_complement

        assert is_isotropic(M, red.S)
        assert orth_complement(M, red.S) == red.S_perp
        if red.Mc.group.rank:
            assert all(d == red.p for d in red.Mc.group.orders)


def test_S_is_characteristic():
    for blocks in ([(9, 1)], [(27, 1)], [(9, 1), (3, 1)]):
        M = standard_module(blocks)
        red = ReductionData(M)
        for g in sp_sample(M, 7, 25):
            assert g.on_subgroup(red.S) == red.S
        for g in sampled_automorphisms(M, 8, 25):
            assert g.on_subgroup(red.S) == red.S


def test_rejects_non_primary():
    M15 = SympMod(AbGroup([15, 15]), [[0, 1], [-1, 0]])
    with pytest.raises(ReductionError):
        ReductionData(M15)


def test_alpha_homomorphism_and_kernel():
    Mmix = standard_module([(9, 1), (3, 1)])
    red = ReductionData(Mmix)
    Hc, alpha = red.Hc, red.alpha
    H = HeisGrp(Mmix)
    n = Mmix.n
    p = red.p
    dom = [(m, a) for m in red.S_perp.elements()
           for a in range(0, n, n // p)]
    rng = random.Random(1)
    for _ in range(120):
        h1 = dom[rng.randrange(len(dom))]
        h2 = dom[rng.randrange(len(dom))]
        prod = H.product(h1, h2)
        assert red.in_domain(prod)
        assert alpha(prod) == Hc.product(alpha(h1), alpha(h2))
    kernel = [h for h in dom if alpha(h) == Hc.identity()]
    assert sorted(kernel) == sorted((s, 0) for s in red.S.elements())
    with pytest.raises(ReductionError):
        alpha(((1, 0, 0, 0), 0))


def test_elementary_reduction_is_identity():
    # S = 0: H_c = H on the nose, alpha = id, tau = id
    M = standard_module([(3, 1)])
    red = ReductionData(M)
    assert red.S.order() == 1
    assert red.Mc == M
    H = HeisGrp(M)
    for h in H.elements():
        assert red.alpha(h) == h
    Lc = enumerate_lagrangians(red.Mc)[0]
    Vc = induce(red.Hc, Lc)
    V = induce(H, red.lag_lift(Lc))
    assert mat_eq(tau_matrix(red, Vc, V), identity(3, 3))
    sys = solve_canonical_system(red.Mc, verify="none")
    assert lift_canonical_system(red, sys) is sys


# SHA-256 of the export and of the exact entries of act_h on every element
# of H followed by act_g on sp_sample(M, 3, 3), for the module with orders
# (3, 3, 1): S is trivial but M_c has rank 2, so the system is still lifted
ORDER_ONE_SUMMAND = {"orders": [3, 3, 1],
                     "gram": [[0, 1, 0], [2, 0, 0], [0, 0, 0]]}
ORDER_ONE_EXPORT = \
    "2cf83f3ea490542f4c2075f3161dbb9625906b18f50a8c9e10148ec738732161"
ORDER_ONE_ACTIONS = \
    "679bcc3153db21f1b50efdfa7e683e8a634890149bb958a059c104bbc479997e"


def test_trivial_S_with_smaller_Mc_is_lifted():
    from heisenrep.canonrep import build_pi
    from heisenrep.cli import dumps

    M = SympMod.from_json(ORDER_ONE_SUMMAND)
    red = ReductionData(M)
    assert red.S.order() == 1 and red.Mc != M
    pi = build_pi(M, system_verify="none")
    export = dumps(pi.export()).encode()
    assert hashlib.sha256(export).hexdigest() == ORDER_ONE_EXPORT
    mats = [pi.act_h(h) for h in pi.H.elements()]
    mats += [pi.act_g(g) for g in sp_sample(M, 3, 3)]
    entries = [(x.n, x.num, x.den) for mat in mats for row in mat for x in row]
    assert hashlib.sha256(repr(entries).encode()).hexdigest() == \
        ORDER_ONE_ACTIONS


def test_alpha_respects_sigma():
    Mmix = standard_module([(9, 1), (3, 1)])
    red = ReductionData(Mmix)
    H = HeisGrp(Mmix)
    n, p = Mmix.n, red.p
    for m in list(red.S_perp.elements())[:20]:
        for a in range(0, n, n // p):
            lhs = red.alpha(H.sigma((m, a)))
            rhs = red.Hc.sigma(red.alpha((m, a)))
            assert lhs == rhs


def test_lag_lift_properties():
    for blocks in ([(27, 1)], [(9, 1), (3, 1)]):
        M = standard_module(blocks)
        red = ReductionData(M)
        from heisenrep.symplectic import orth_complement

        for Lc in enumerate_lagrangians(red.Mc):
            L = red.lag_lift(Lc)
            assert orth_complement(M, L.sub) == L.sub
            for g in red.S.gens():
                assert L.sub.contains(g)
            for g in L.sub.gens():
                assert red.S_perp.contains(g)
            assert L.order() ** 2 == M.group.order()


def test_tau_is_equivariant_isomorphism():
    Mmix = standard_module([(9, 1), (3, 1)])
    red = ReductionData(Mmix)
    H = HeisGrp(Mmix)
    lags_c = enumerate_lagrangians(red.Mc)
    for Lc in lags_c:
        Vc = induce(red.Hc, Lc)
        V = induce(H, red.lag_lift(Lc))
        tau = tau_matrix(red, Vc, V)
        # injective with image the S-invariants: rank check via columns
        assert Vc.dim == 3 and V.dim == 27
        cols = [[tau[i][j] for i in range(V.dim)] for j in range(Vc.dim)]
        assert all(any(not x.is_zero() for x in col) for col in cols)
        # S-invariance of every image vector
        for s in red.S.gens():
            rho_s = V.rho((s, 0))
            moved = mat_mul(rho_s, tau)
            assert mat_eq(moved, tau)
        # H_c-equivariance through the central embedding
        rng = random.Random(2)
        for _ in range(20):
            mc = tuple(rng.randrange(d) for d in red.Mc.group.orders)
            b = rng.randrange(red.p)
            hc = (mc, b)
            lift = central_lift(red, hc)
            lhs = mat_mul(V.rho(lift), tau)
            rhs = mat_mul(tau, Vc.rho(hc))
            assert mat_eq(lhs, rhs)


def test_invariant_dimension_matches():
    # dim of the S-invariants equals sqrt(|Mc|), computed via the averaging
    # projector trace
    Mmix = standard_module([(9, 1), (3, 1)])
    red = ReductionData(Mmix)
    H = HeisGrp(Mmix)
    Lc = enumerate_lagrangians(red.Mc)[0]
    V = induce(H, red.lag_lift(Lc))
    from heisenrep.cyclo import CycNum
    from heisenrep.kmat import trace

    acc = None
    for s in red.S.elements():
        m = V.rho((s, 0))
        acc = m if acc is None else [[x + y for x, y in zip(r1, r2)]
                                     for r1, r2 in zip(acc, m)]
    tr = trace(acc) / red.S.order()
    assert tr == 3


def test_lift_canonical_system_z9():
    M9 = standard_module([(9, 1)])
    red = ReductionData(M9)
    sys_c = solve_canonical_system(red.Mc, verify="light")
    lifted = lift_canonical_system(red, sys_c)
    assert lifted.modules[0].dim == 9
    assert mat_eq(lifted.operator((0, 1), (0, 1)), identity(9, lifted.conductor))
    from heisenrep.cyclo import CycNum

    assert mat_eq(lifted.operator((0, 1), (0, -1)),
                  scalar_mul(CycNum.rational(-1), identity(9, lifted.conductor)))


LIFT_CASES = (
    [("z27", [(27, 1)], b) for b in range(4)]
    + [("z9+z3", [(9, 1), (3, 1)], b) for b in range(4)]
    + [("orders331", ORDER_ONE_SUMMAND, b) for b in range(4)]
    + [("z9+z3^2", [(9, 1), (3, 2)], b) for b in range(2)]
)


@pytest.mark.parametrize("label,spec,base", LIFT_CASES,
                         ids=["%s-base%d" % (c[0], c[2]) for c in LIFT_CASES])
def test_lift_restricts_to_reduced_system(label, spec, base):
    # the defining diagram: lifted operator composed with tau equals tau
    # composed with the reduced operator; every lifted scalar is the one
    # the dense oracle matches through tau
    M = (SympMod.from_json(spec) if isinstance(spec, dict)
         else standard_module(spec))
    red = ReductionData(M)
    sys_c = solve_canonical_system(red.Mc, base_index=base, verify="none")
    lifted = lift_canonical_system(red, sys_c)
    assert lifted is not sys_c and lifted.base_index == base
    matched = tau_matched_scalars(red, sys_c, lifted)
    assert all(lifted.c[i] == matched[i] for i in range(sys_c.count))
    rng = random.Random(3)
    pts = lifted.enhanced()
    for _ in range(10):
        n0 = pts[rng.randrange(len(pts))]
        l0 = pts[rng.randrange(len(pts))]
        tau_l = tau_matrix(red, sys_c.modules[l0[0]], lifted.modules[l0[0]])
        tau_n = tau_matrix(red, sys_c.modules[n0[0]], lifted.modules[n0[0]])
        lhs = mat_mul(lifted.operator(n0, l0), tau_l)
        rhs = mat_mul(tau_n, sys_c.operator(n0, l0))
        assert mat_eq(lhs, rhs)


def test_lift_intertwines(setup_quick=None):
    Mmix = standard_module([(9, 1), (3, 1)])
    red = ReductionData(Mmix)
    sys_c = solve_canonical_system(red.Mc, verify="none")
    lifted = lift_canonical_system(red, sys_c)
    H = HeisGrp(Mmix)
    rng = random.Random(4)
    op = lifted.operator((1, 1), (0, 1))
    for _ in range(12):
        h = (tuple(rng.randrange(d) for d in Mmix.group.orders),
             rng.randrange(9))
        lhs = mat_mul(op, lifted.modules[0].rho(h))
        rhs = mat_mul(lifted.modules[1].rho(h), op)
        assert mat_eq(lhs, rhs)


def test_g_to_gc():
    Mmix = standard_module([(9, 1), (3, 1)])
    red = ReductionData(Mmix)
    ident = SympAut(Mmix, [[1 if i == j else 0 for j in range(4)]
                           for i in range(4)])
    assert is_identity(g_to_gc(red, ident))
    gs = sp_sample(Mmix, 5, 10)
    for g in gs:
        gc = g_to_gc(red, g)
        gc.validate()
    for g1 in gs[:4]:
        for g2 in gs[4:8]:
            lhs = g_to_gc(red, g1.compose(g2))
            rhs = g_to_gc(red, g1).compose(g_to_gc(red, g2))
            assert lhs == rhs


def test_g_to_gc_rejects_a_matrix_moving_S_perp():
    # every endomorphism of (Z/9)^2+(Z/3)^2 fixes S = 3M and S^perp = M[3];
    # a matrix sending the order-3 generator e3 to an element of order 9
    # is none, and it moves S^perp
    Mmix = standard_module([(9, 1), (3, 1)])
    red = ReductionData(Mmix)
    assert red.Mc != red.M
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]
    g = SympAut(Mmix, rows, validate=False)
    assert not red.S_perp.contains(g.apply((0, 0, 1, 0)))
    with pytest.raises(ReductionError, match="S\\^perp"):
        g_to_gc(red, g)


def test_g_to_gc_is_g_when_Mc_is_M():
    M = standard_module([(3, 2)])
    red = ReductionData(M)
    assert red.Mc == red.M
    for g in sp_sample(M, 3, 4):
        assert g_to_gc(red, g) is g


def test_lifted_entries_stay_in_K_at_deep_exponent():
    # conductor 108 exercise: the (Z/27)^2 lift lives in Q(mu_27, sqrt 3)
    M27 = standard_module([(27, 1)])
    red = ReductionData(M27)
    sys_c = solve_canonical_system(red.Mc, verify="none")
    lifted = lift_canonical_system(red, sys_c)
    assert lifted.entries_in_field()
    assert mat_eq(lifted.operator((0, 1), (0, 1)),
                  identity(27, lifted.conductor))


def test_g_to_gc_kills_congruence_elements():
    # an automorphism acting as the identity modulo S acts as the identity
    # on the reduced module
    M9 = standard_module([(9, 1)])
    red = ReductionData(M9)
    g = SympAut(M9, [[4, 3], [3, 7]])  # congruent to identity mod 3
    gc = g_to_gc(red, g)
    assert is_identity(gc)
