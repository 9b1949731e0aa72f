import random

import pytest

from heisenrep.abgroup import AbGroup
from heisenrep.cyclo import root_of_unity
from heisenrep.heisenberg import (
    HeisGrp,
    g_transport,
    heis_primary,
    induce,
    primary_embed,
    primary_project,
    primary_split,
)
from heisenrep.kmat import identity, mat_eq, scalar_mul
from heisenrep.symplectic import (
    SympMod,
    enumerate_lagrangians,
    sp_enumerate,
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
    ident = next(g for g in sp if g.is_identity())
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


def test_g_transport_intertwines(H3, lags3):
    sp = sp_enumerate(H3.base)
    rng = random.Random(4)
    els = list(H3.elements())
    V = induce(H3, lags3[0])
    for g in sp[:10]:
        T, W = g_transport(g, V)
        Ti = T.inverse()
        for _ in range(8):
            h = els[rng.randrange(27)]
            lhs = T.compose(V.rho_genperm(h)).compose(Ti)
            rhs = W.rho_genperm(H3.g_act(g, h))
            assert lhs == rhs


def test_g_transport_composition(H3, lags3):
    sp = sp_enumerate(H3.base)
    V = induce(H3, lags3[2])
    rng = random.Random(5)
    for _ in range(20):
        g1, g2 = sp[rng.randrange(24)], sp[rng.randrange(24)]
        T2, W2 = g_transport(g2, V)
        T1, W1 = g_transport(g1, W2)
        T12, W12 = g_transport(g1.compose(g2), V)
        assert W1.lag == W12.lag
        assert T1.compose(T2) == T12


def test_g_transport_identity(H3, lags3):
    sp = sp_enumerate(H3.base)
    ident = next(g for g in sp if g.is_identity())
    V = induce(H3, lags3[0])
    T, W = g_transport(ident, V)
    assert W.lag == V.lag
    assert T.to_dense(3) == identity(3, 3)


def test_induced_module_export(H3, lags3):
    V = induce(H3, lags3[0])
    data = V.to_json()
    assert data["dim"] == 3
    assert len(data["generators"]) == 3
