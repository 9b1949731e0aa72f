import random

import pytest
from dense_oracle import (
    is_identity,
    primary_embed,
    rho_parts_by_columns,
    trace_counts,
    transport_by_inverse,
)

from heisenrep.abgroup import AbGroup
from heisenrep.cyclo import from_powers, root_of_unity
from heisenrep.heisenberg import (
    HeisGrp,
    g_transport,
    heis_primary,
    induce,
    primary_project,
    primary_split,
)
from heisenrep.kmat import identity, mat_eq, scalar_mul
from heisenrep.symplectic import (
    SympMod,
    SymplecticError,
    enumerate_lagrangians,
    sp_enumerate,
    sp_sample,
    standard_module,
)


@pytest.fixture(scope="module")
def H3():
    return HeisGrp(standard_module([(3, 1)]))


@pytest.fixture(scope="module")
def lags3(H3):
    return enumerate_lagrangians(H3.base)


def test_group_axioms_exhaustive(H3):
    els = list(H3.elements())
    assert len(els) == 27
    ident = H3.identity()
    for h in els:
        assert H3.product(h, H3.inverse(h)) == ident
        m, a = h
        assert H3.inverse(h) == (H3.base.group.neg(m), (-a) % 3)
    rng = random.Random(0)
    for _ in range(300):
        h1, h2, h3 = (els[rng.randrange(27)] for _ in range(3))
        assert H3.product(H3.product(h1, h2), h3) == \
            H3.product(h1, H3.product(h2, h3))


def test_commutator_is_pairing(H3):
    M = H3.base
    assert H3.commutator(((1, 0), 0), ((0, 1), 0)) == ((0, 0), 1)
    for h1 in H3.elements():
        for h2 in H3.elements():
            assert H3.commutator(h1, h2) == ((0, 0), M.pair(h1[0], h2[0]))


def test_sigma_is_symmetric_structure(H3):
    els = list(H3.elements())
    for h in els:
        assert H3.sigma(H3.sigma(h)) == h
    for a in range(3):
        assert H3.sigma(((0, 0), a)) == ((0, 0), a)
    rng = random.Random(1)
    for _ in range(150):
        h1, h2 = els[rng.randrange(27)], els[rng.randrange(27)]
        assert H3.sigma(H3.product(h1, h2)) == \
            H3.product(H3.sigma(h1), H3.sigma(h2))


def test_g_action_on_heisenberg(H3):
    sp = sp_enumerate(H3.base)
    ident = next(g for g in sp if is_identity(g))
    els = list(H3.elements())
    for h in els[:9]:
        assert H3.g_act(ident, h) == h
    rng = random.Random(2)
    for g in sp[:8]:
        for _ in range(20):
            h1, h2 = els[rng.randrange(27)], els[rng.randrange(27)]
            assert H3.g_act(g, H3.product(h1, h2)) == \
                H3.product(H3.g_act(g, h1), H3.g_act(g, h2))
        for a in range(3):
            assert H3.g_act(g, ((0, 0), a)) == ((0, 0), a)
        for h in els[:6]:
            assert H3.g_act(g, H3.sigma(h)) == H3.sigma(H3.g_act(g, h))


def test_primary_decomposition_n15():
    M15 = SympMod(AbGroup([15, 15]), [[0, 1], [-1, 0]])
    H15 = HeisGrp(M15)
    fac = primary_split(H15)
    assert [p for (p, _h, _e, _c) in fac] == [3, 5]
    (p3, H3p, emb3, crt3), (p5, H5p, emb5, crt5) = fac
    assert H3p.base.group.orders == (3, 3)
    assert H5p.base.group.orders == (5, 5)
    rng = random.Random(3)
    for _ in range(100):
        a = (tuple(rng.randrange(3) for _ in range(2)), rng.randrange(3))
        b = (tuple(rng.randrange(3) for _ in range(2)), rng.randrange(3))
        lhs = primary_embed(H15, H3p, emb3, H3p.product(a, b))
        rhs = H15.product(primary_embed(H15, H3p, emb3, a),
                          primary_embed(H15, H3p, emb3, b))
        assert lhs == rhs
        c = (tuple(rng.randrange(5) for _ in range(2)), rng.randrange(5))
        x = primary_embed(H15, H3p, emb3, a)
        y = primary_embed(H15, H5p, emb5, c)
        assert H15.product(x, y) == H15.product(y, x)
    for _ in range(100):
        h = (tuple(rng.randrange(15) for _ in range(2)), rng.randrange(15))
        h3 = primary_project(H15, H3p, emb3, crt3, h)
        h5 = primary_project(H15, H5p, emb5, crt5, h)
        back = H15.product(primary_embed(H15, H3p, emb3, h3),
                           primary_embed(H15, H5p, emb5, h5))
        assert back == h


def test_primary_prime_power_is_whole():
    M9 = standard_module([(9, 1)])
    H9 = HeisGrp(M9)
    Hp, embed = heis_primary(H9, 3)
    assert Hp.base.group.order() == 81 and Hp.n == 9
    Hq, _ = heis_primary(H9, 5)
    assert Hq.base.group.order() == 1


# the modules over which every lagrangian is checked: beta vanishes on it,
# and the induced module's coset representatives are the HNF pivot box
LAGRANGIAN_MODULES = {
    "Z3^2": lambda: standard_module([(3, 1)]),
    "Z3^4": lambda: standard_module([(3, 2)]),
    "Z27^2": lambda: standard_module([(27, 1)]),
    "Z9^2+Z3^2": lambda: standard_module([(9, 1), (3, 1)]),
    "Z5^2+Z3^2": lambda: standard_module([(5, 1), (3, 1)]),
    "orders-3-3-1": lambda: SympMod(AbGroup([3, 3, 1]),
                                    [[0, 1, 0], [2, 0, 0], [0, 0, 0]]),
    "orders-9-9-3-3": lambda: SympMod(AbGroup([9, 9, 3, 3]),
                                      [[0, 1, 0, 3], [8, 0, 3, 0],
                                       [0, 6, 0, 3], [6, 0, 6, 0]]),
}


@pytest.fixture(scope="module", params=list(LAGRANGIAN_MODULES))
def module_lags(request):
    M = LAGRANGIAN_MODULES[request.param]()
    return M, enumerate_lagrangians(M)


def test_half_form_vanishes_on_lagrangians(module_lags):
    # (l, a) -> zeta_n^a is a character of L x mu_n exactly when beta
    # vanishes on L x L; beta is biadditive, so generators suffice
    M, lags = module_lags
    assert lags
    for L in lags:
        gens = L.sub.gens()
        assert all(M.beta(a, b) == 0 for a in gens for b in gens)
    if M.group.order() == 9:  # (Z/3)^2 and orders (3, 3, 1): every pair
        for L in lags:
            els = list(L.sub.elements())
            assert all(M.beta(a, b) == 0 for a in els for b in els)


def test_induced_module_basics(H3, lags3):
    L = lags3[0]
    V = induce(H3, L)
    assert V.dim == 3
    for a in range(3):
        assert mat_eq(V.rho(((0, 0), a)),
                      scalar_mul(root_of_unity(3, a), identity(3, 3)))


def test_induced_dim_sqrt(module_lags):
    M, lags = module_lags
    H = HeisGrp(M)
    for L in lags:
        V = induce(H, L)
        assert V.dim ** 2 == M.group.order()
        assert V.reps == tuple(sorted({L.sub.coset_reduce(m)
                                       for m in M.group.elements()}))
        assert all(V.index[r] == i for i, r in enumerate(V.reps))


def test_rho_is_homomorphism_exhaustive(H3, lags3):
    V = induce(H3, lags3[1])
    els = list(H3.elements())
    for h1 in els:
        r1 = V.rho_genperm(h1)
        for h2 in els:
            assert r1.compose(V.rho_genperm(h2)) == \
                V.rho_genperm(H3.product(h1, h2))


def test_rho_matrix_shapes(H3, lags3):
    # on <e1>: rho(e1) diagonal, rho(e2) a scaled permutation
    L = next(L for L in lags3 if L.sub.contains((1, 0)))
    V = induce(H3, L)
    r1 = V.rho(((1, 0), 0))
    assert all(r1[i][j].is_zero() for i in range(3) for j in range(3) if i != j)
    perm, exps = V.rho_parts(((0, 1), 0))
    assert sorted(perm) == [0, 1, 2] and perm != [0, 1, 2]
    assert all(e == 0 for e in exps)


def test_character_support(H3, lags3):
    V = induce(H3, lags3[0])
    for h in H3.elements():
        ch = V.character(h)
        if h[0] == (0, 0):
            assert ch == 3 * root_of_unity(3, h[1])
        else:
            assert ch.is_zero()


def _check_characters(V, hs):
    """``character`` on each h of ``hs``, and ``support_counts`` on each
    (m, 0) of them, against the fixed columns of rho_parts; the counts are
    made once, keyed by the elements of L."""
    n = V.H.n
    counts = V.support_counts()
    assert V.support_counts() is counts
    assert sorted(counts) == sorted(V.lag.sub.elements())
    support = 0
    for m, a in hs:
        want = trace_counts(V, (m, a))
        got, value = V.character((m, a)), from_powers(n, enumerate(want))
        assert (got.n, got.num, got.den) == (value.n, value.num, value.den), \
            (V.lag, m, a)
        if a == 0:
            assert counts.get(m, []) == [(e, c) for e, c in enumerate(want)
                                         if c], (V.lag, m)
        support += any(want)
    return support


@pytest.mark.parametrize("name", list(LAGRANGIAN_MODULES))
def test_char_counts_match_trace_every_lagrangian(name):
    """On every lagrangian's model: every h when |H| times the number of
    lagrangians is at most 10^4, and otherwise every (l, a) with l in L
    and a in (0, 1), and (m, a) for ten seeded m off L and a in (0, 1)."""
    M = LAGRANGIAN_MODULES[name]()
    H = HeisGrp(M)
    lags = enumerate_lagrangians(M)
    rng = random.Random(name)
    everything = H.order() * len(lags) <= 10 ** 4
    for L in lags:
        V = induce(H, L)
        if everything:
            hs = list(H.elements())
        else:
            ms = list(L.sub.elements())
            while len(ms) < V.dim + 10:
                m = tuple(rng.randrange(d) for d in M.group.orders)
                if not L.sub.contains(m):
                    ms.append(m)
            hs = [(m, a) for m in ms for a in (0, 1)]
        _check_characters(V, hs)


@pytest.mark.parametrize("name", ["Z27^2", "Z9^2+Z3^2"])
def test_char_counts_match_trace_on_realization(name):
    from heisenrep.canonrep import build_pi

    V = build_pi(LAGRANGIAN_MODULES[name](), system_verify="none").realization
    hs = [(m, a) for m in V.H.base.group.elements() for a in (0, 1)]
    assert _check_characters(V, hs) == 2 * V.dim


@pytest.fixture(scope="module")
def mods3(H3, lags3):
    return [induce(H3, L) for L in lags3]


def _transport(g, V, mods):
    """g_transport of V onto the module over gL among ``mods``."""
    key = g.on_subgroup(V.lag.sub).key()
    W = next(U for U in mods if U.lag.sub.key() == key)
    return g_transport(g, V, W), W


def test_g_transport_intertwines(H3, mods3):
    sp = sp_enumerate(H3.base)
    rng = random.Random(4)
    els = list(H3.elements())
    V = mods3[0]
    for g in sp[:10]:
        T, W = _transport(g, V, mods3)
        Ti = T.inverse()
        for _ in range(8):
            h = els[rng.randrange(27)]
            lhs = T.compose(V.rho_genperm(h)).compose(Ti)
            rhs = W.rho_genperm(H3.g_act(g, h))
            assert lhs == rhs


def test_g_transport_composition(H3, mods3):
    sp = sp_enumerate(H3.base)
    V = mods3[2]
    rng = random.Random(5)
    for _ in range(20):
        g1, g2 = sp[rng.randrange(24)], sp[rng.randrange(24)]
        T2, W2 = _transport(g2, V, mods3)
        T1, W1 = _transport(g1, W2, mods3)
        T12, W12 = _transport(g1.compose(g2), V, mods3)
        assert W1 is W12
        assert T1.compose(T2) == T12


def test_g_transport_rejects_a_target_over_another_lagrangian(H3, mods3):
    sp = sp_enumerate(H3.base)
    V = mods3[0]
    for g in sp:
        T, W = _transport(g, V, mods3)
        for U in mods3:
            if U is W:
                assert g_transport(g, V, U) == T
            else:
                with pytest.raises(SymplecticError, match="wrong lagrangian"):
                    g_transport(g, V, U)


def test_g_transport_identity(H3, mods3):
    sp = sp_enumerate(H3.base)
    ident = next(g for g in sp if is_identity(g))
    V = mods3[0]
    T = g_transport(ident, V, V)
    assert T.to_dense() == identity(3, 3)


def test_induced_module_export(H3, lags3):
    V = induce(H3, lags3[0])
    data = V.to_json()
    assert data["dim"] == 3
    assert len(data["generators"]) == 3


TRANSPORT_MODULES = {
    "Z3^2": lambda: standard_module([(3, 1)]),
    "Z5^2": lambda: standard_module([(5, 1)]),
    "Z3^4": lambda: standard_module([(3, 2)]),
    "orders-3-3-1": LAGRANGIAN_MODULES["orders-3-3-1"],
    "Z27^2": lambda: standard_module([(27, 1)]),
    "Z9^2+Z3^2": lambda: standard_module([(9, 1), (3, 1)]),
}


def _models(name):
    """The induced models over every lagrangian of the named module; for
    (Z/27)^2 and (Z/9)^2+(Z/3)^2, those of the system lifted from M_c."""
    from heisenrep.intertwine import solve_canonical_system
    from heisenrep.reduction import ReductionData, lift_canonical_system

    M = TRANSPORT_MODULES[name]()
    if M.is_elementary():
        H = HeisGrp(M)
        return M, [induce(H, L) for L in enumerate_lagrangians(M)]
    red = ReductionData(M)
    sys_c = solve_canonical_system(red.Mc, verify="none")
    return M, lift_canonical_system(red, sys_c).modules


@pytest.mark.parametrize("name", list(TRANSPORT_MODULES))
def test_g_transport_matches_the_pull_back_through_the_inverse(name):
    M, mods = _models(name)
    for g in sp_sample(M, 11, 4):
        for V in mods:
            T, W = _transport(g, V, mods)
            assert T == transport_by_inverse(g, V, W), (name, g.mat, V.lag)


@pytest.mark.parametrize("name", ["Z3^2", "orders-3-3-1"])
def test_rho_parts_matches_the_column_reading(name):
    _M, mods = _models(name)
    H = mods[0].H
    for V in mods:
        for h in H.elements():
            assert V.rho_parts(h) == rho_parts_by_columns(V, h), (V.lag, h)
