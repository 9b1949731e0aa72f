import hashlib
import itertools
import json
import random
from math import isqrt

import pytest
from dense_oracle import hnf_inverse
from helpers import lattice_only

from heisenrep import intlin
from heisenrep.abgroup import AbGroup, subgroup_from_gens, zero_subgroup
from heisenrep.cyclo import root_of_unity
from heisenrep.symplectic import (
    BudgetError,
    EnhLag,
    SympAut,
    SympMod,
    SymplecticError,
    act_enhanced,
    enhanced_points,
    enumerate_lagrangians,
    gauss_sum,
    identity_aut,
    induced_form,
    orth_complement,
    sp_enumerate,
    sp_sample,
    standard_module,
    _isotropic_walk,
    transvection,
    transvections,
)


def test_standard_module_shapes():
    M = standard_module([(3, 1)])
    assert M.group.orders == (3, 3) and M.n == 3
    assert M.gram == ((0, 1), (2, 0))
    M9 = standard_module([(9, 1)])
    assert M9.n == 9 and M9.group.orders == (9, 9)
    M34 = standard_module([(3, 2)])
    assert M34.group.orders == (3, 3, 3, 3)
    Mmix = standard_module([(9, 1), (3, 1)])
    assert Mmix.group.orders == (9, 9, 3, 3)
    assert Mmix.gram[2][3] == 3


def test_standard_module_rejects_bad_blocks():
    with pytest.raises(SymplecticError):
        standard_module([(2, 1)])
    with pytest.raises(SymplecticError):
        standard_module([(15, 1)])
    with pytest.raises(SymplecticError):
        standard_module([(1, 1)])


def test_module_validation():
    with pytest.raises(SymplecticError):
        SympMod(AbGroup([3, 3]), [[0, 1], [1, 0]])  # not antisymmetric
    with pytest.raises(SymplecticError):
        SympMod(AbGroup([3, 3]), [[1, 1], [2, 0]])  # not alternating
    with pytest.raises(SymplecticError):
        SympMod(AbGroup([3, 3]), [[0, 0], [0, 0]])  # degenerate


def test_beta_properties():
    M = standard_module([(3, 1)])
    for a in M.group.elements():
        assert M.beta(a, a) == 0
        for b in M.group.elements():
            assert (2 * M.beta(a, b)) % 3 == M.pair(a, b)
            assert (M.beta(a, b) + M.beta(b, a)) % 3 == 0


def test_beta_unique_among_all_biadditive_forms():
    # brute force over all 3^4 biadditive forms on (Z/3)^2: exactly one is
    # alternating with double equal to the pairing, and it is beta
    M = standard_module([(3, 1)])
    hits = []
    for vals in itertools.product(range(3), repeat=4):
        b = [[vals[0], vals[1]], [vals[2], vals[3]]]

        def form(x, y, b=b):
            return sum(x[i] * y[j] * b[i][j] for i in range(2) for j in range(2)) % 3

        alternating = all(form(x, x) == 0 for x in M.group.elements())
        doubles = all(
            (2 * form(x, y)) % 3 == M.pair(x, y)
            for x in M.group.elements()
            for y in M.group.elements()
        )
        if alternating and doubles:
            hits.append(b)
    assert len(hits) == 1
    b = hits[0]
    assert all(
        b[i][j] == M.beta(
            tuple(1 if k == i else 0 for k in range(2)),
            tuple(1 if k == j else 0 for k in range(2)))
        for i in range(2) for j in range(2)
    )


def test_orth_complement():
    M = standard_module([(3, 1)])
    assert orth_complement(M, zero_subgroup(M.group)).order() == 9
    for L in enumerate_lagrangians(M):
        assert orth_complement(M, L.sub) == L.sub
    M9 = standard_module([(9, 1)])
    S = subgroup_from_gens(M9.group, [[3, 0], [0, 3]])
    assert orth_complement(M9, S) == S
    # involution and order product
    rng = random.Random(0)
    for _ in range(15):
        gens = [tuple(rng.randrange(d) for d in M9.group.orders)]
        T = subgroup_from_gens(M9.group, gens)
        P = orth_complement(M9, T)
        assert orth_complement(M9, P) == T
        assert T.order() * P.order() == M9.group.order()


def test_lagrangian_counts():
    assert len(enumerate_lagrangians(standard_module([(3, 1)]))) == 4
    assert len(enumerate_lagrangians(standard_module([(5, 1)]))) == 6
    assert len(enumerate_lagrangians(standard_module([(7, 1)]))) == 8
    assert len(enumerate_lagrangians(standard_module([(3, 2)]))) == 40


def test_lagrangian_properties():
    for blocks in ([(3, 1)], [(9, 1)], [(3, 2)]):
        M = standard_module(blocks)
        root = int(M.group.order() ** 0.5 + 0.5)
        lags = enumerate_lagrangians(M)
        assert len({L.key() for L in lags}) == len(lags)
        for L in lags:
            assert L.order() == root
            assert orth_complement(M, L.sub) == L.sub


def test_lagrangian_budget():
    M = standard_module([(3, 2)])
    with pytest.raises(BudgetError):
        enumerate_lagrangians(M, budget=10)
    assert len(enumerate_lagrangians(M, budget=81)) == 40


# the elementary modules of the construct ladder, (Z/5)^4, and modules
# with a non-standard gram
FP_MODULES = [standard_module(b) for b in
              ([(3, 1)], [(5, 1)], [(7, 1)], [(11, 1)], [(3, 2)], [(5, 2)])] + [
    SympMod(AbGroup([5, 5]), [[0, 2], [3, 0]]),
    SympMod(AbGroup([3] * 4), [[0, 1, 2, 0], [2, 0, 0, 1], [1, 0, 0, 1],
                               [0, 2, 2, 0]]),
]


@pytest.mark.parametrize("M", FP_MODULES, ids=repr)
def test_fp_walk_matches_the_lattice_walk(M):
    """The F_p walk lists the lagrangians of the lattice walk, in the same
    order, when the lattice walk computes every subgroup through HNF."""
    got = [L.key() for L in enumerate_lagrangians(M)]
    with lattice_only():
        want = sorted(_isotropic_walk(M, isqrt(M.group.order())))
    assert got == want


def test_rank6_lagrangian_keys_pinned():
    """(Z/3)^6: 1,120 lagrangians, their key list pinned by SHA-256 as the
    lattice walk listed it at 31c8883."""
    keys = [[list(r) for r in L.key()]
            for L in enumerate_lagrangians(standard_module([(3, 3)]))]
    assert len(keys) == 1120
    assert hashlib.sha256(json.dumps(keys).encode()).hexdigest() == (
        "f0d5560e70493b0edb2b43a9ca84c5875aaf7088b08c356d9af3063413b191b6")


def test_fp_path_makes_no_hnf_call(monkeypatch):
    """Enumerating the lagrangians of an elementary module and moving them
    by symplectic automorphisms runs no HNF; a non-elementary module does."""
    real, calls = intlin.hnf, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(intlin, "hnf", counted)
    for M in FP_MODULES[:-3]:
        lags = enumerate_lagrangians(M)
        for g in sp_sample(M, 1, 3):
            for L in lags:
                act_enhanced(g, EnhLag(L, 1))
                g.on_subgroup(L.sub)
    assert calls == []
    enumerate_lagrangians(standard_module([(9, 1)]))
    assert calls


def test_induced_form_examples():
    M9 = standard_module([(9, 1)])
    S = subgroup_from_gens(M9.group, [[3, 0], [0, 3]])
    Mc, _ = induced_form(M9, S)
    assert Mc.group.order() == 1
    Mmix = standard_module([(9, 1), (3, 1)])
    Smix = subgroup_from_gens(Mmix.group, [[3, 0, 0, 0], [0, 3, 0, 0]])
    Mc2, qm = induced_form(Mmix, Smix)
    assert Mc2.group.orders == (3, 3)
    assert Mc2.n == 3
    with pytest.raises(SymplecticError):
        induced_form(M9, subgroup_from_gens(M9.group, [[1, 0], [0, 1]]))


def test_induced_form_beta_well_defined():
    # the half-form of lifts is independent of the lift choice
    Mmix = standard_module([(9, 1), (3, 1)])
    Smix = subgroup_from_gens(Mmix.group, [[3, 0, 0, 0], [0, 3, 0, 0]])
    Mc, qm = induced_form(Mmix, Smix)
    rng = random.Random(1)
    perp = orth_complement(Mmix, Smix)
    s_elements = list(Smix.elements())
    for _ in range(40):
        q1 = tuple(rng.randrange(d) for d in Mc.group.orders)
        q2 = tuple(rng.randrange(d) for d in Mc.group.orders)
        lift1 = qm.section(q1)
        lift2 = qm.section(q2)
        s1 = s_elements[rng.randrange(len(s_elements))]
        s2 = s_elements[rng.randrange(len(s_elements))]
        moved1 = Mmix.group.add(lift1, s1)
        moved2 = Mmix.group.add(lift2, s2)
        assert Mmix.beta(lift1, lift2) == Mmix.beta(moved1, moved2)
        scale = Mmix.n // Mc.n
        assert Mmix.beta(lift1, lift2) == Mc.beta(q1, q2) * scale % Mmix.n


def test_sp_enumerate_z3_count():
    M = standard_module([(3, 1)])
    sp = sp_enumerate(M)
    assert len(sp) == 24
    assert any(g.is_identity() for g in sp)


def test_sp_enumerate_budget():
    M27 = standard_module([(27, 1)])
    with pytest.raises(BudgetError):
        sp_enumerate(M27)


def test_sp_enumerate_rank4_unsupported():
    with pytest.raises(BudgetError):
        sp_enumerate(standard_module([(3, 2)]))


def test_transvections_are_symplectic():
    for blocks in ([(3, 1)], [(9, 1)], [(9, 1), (3, 1)]):
        M = standard_module(blocks)
        rng = random.Random(0)
        els = list(M.group.elements())
        for _ in range(10):
            v = els[rng.randrange(len(els))]
            lam = rng.randrange(1, M.n)
            t = transvection(M, v, lam)
            t.validate()
            for _ in range(5):
                a = els[rng.randrange(len(els))]
                b = els[rng.randrange(len(els))]
                assert M.pair(t.apply(a), t.apply(b)) == M.pair(a, b)


def test_sp_sample_deterministic_and_valid():
    M = standard_module([(3, 2)])
    gs1 = sp_sample(M, 42, 5)
    gs2 = sp_sample(M, 42, 5)
    assert [g.mat for g in gs1] == [g.mat for g in gs2]
    for g in gs1:
        g.validate()


def test_is_identity_with_order_one_summand():
    # the order-1 summand's unit reduces to 0 in the stored rows
    M = SympMod(AbGroup([3, 3, 1]), [[0, 1, 0], [2, 0, 0], [0, 0, 0]])
    assert identity_aut(M).is_identity()
    ts = transvections(M)
    assert ts[0].is_identity()
    moving = transvection(M, (1, 0, 0), 1)
    assert moving.apply((0, 1, 0)) != (0, 1, 0)
    assert not moving.is_identity()
    assert not any(t.is_identity() for t in ts[1:])


def test_sp_elements_modes():
    M = standard_module([(3, 1)])
    assert len(sp_enumerate(M)) == 24
    ts = transvections(M)
    assert ts[0].is_identity()
    assert len(sp_sample(M, 1, 3)) == 3


def test_aut_inverse_and_compose():
    M = standard_module([(9, 1)])
    for g in sp_sample(M, 3, 8):
        gi = g.inverse()
        assert g.compose(gi).is_identity()
        assert gi.compose(g).is_identity()


INVERSE_MODULES = [
    standard_module([(3, 1)]),
    standard_module([(3, 2)]),
    standard_module([(27, 1)]),
    standard_module([(9, 1), (3, 1)]),
    standard_module([(3, 1), (5, 1)]),
    # an order-1 summand: its dual vector is 0 and the functional is read
    # mod n before it is divided by n / 1
    SympMod(AbGroup([3, 3, 1]), [[0, 1, 0], [2, 0, 0], [0, 0, 0]]),
    # not the standard gram: <e1, e2> = 2
    SympMod(AbGroup([3, 3]), [[0, 2], [1, 0]]),
]


@pytest.mark.parametrize("M", INVERSE_MODULES, ids=repr)
def test_inverse_by_pairing_matches_hnf_oracle(M):
    basis = M.group.basis()
    for j, d in enumerate(M.dual):
        assert [M.pair(e, d) for e in basis] == \
            [(M.n // M.group.orders[j]) % M.n if i == j else 0
             for i in range(len(basis))]
    for g in sp_sample(M, 7, 12):
        gi = g.inverse()
        assert gi == hnf_inverse(g)
        assert g.compose(gi).is_identity()
        assert gi.compose(g).is_identity()


def test_inverse_of_singular_matrix_raises():
    M = standard_module([(3, 1)])
    g = SympAut(M, [[1, 1], [2, 2]], validate=False)
    with pytest.raises(SymplecticError, match="not invertible"):
        g.inverse()
    with pytest.raises(SymplecticError, match="not invertible"):
        hnf_inverse(g)


def test_enhanced_points_and_flip():
    M = standard_module([(3, 1)])
    L = enumerate_lagrangians(M)[0]
    a, b = enhanced_points(L)
    assert a.eps == 1 and b.eps == -1
    assert a.flip() == b


def test_enhanced_rejects_non_elementary():
    M9 = standard_module([(9, 1)])
    L = enumerate_lagrangians(M9)[0]
    with pytest.raises(SymplecticError):
        EnhLag(L, 1)


def test_act_enhanced_legendre_flip():
    M = standard_module([(3, 1)])
    lags = enumerate_lagrangians(M)
    Le1 = next(L for L in lags if L.sub.contains((1, 0)))
    g = SympAut(M, [[2, 0], [0, 2]])
    moved = act_enhanced(g, EnhLag(Le1, 1))
    assert moved.lag == Le1
    assert moved.eps == -1  # legendre(2, 3) = -1


def test_act_enhanced_identity_and_flip_compat():
    M = standard_module([(3, 1)])
    sp = sp_enumerate(M)
    lags = enumerate_lagrangians(M)
    ident = next(g for g in sp if g.is_identity())
    for L in lags:
        pt = EnhLag(L, 1)
        assert act_enhanced(ident, pt) == pt
        g = sp[7]
        assert act_enhanced(g, pt.flip()) == act_enhanced(g, pt).flip()


def test_act_enhanced_is_group_action():
    M = standard_module([(3, 1)])
    sp = sp_enumerate(M)
    lags = enumerate_lagrangians(M)
    rng = random.Random(2)
    for _ in range(60):
        g1 = sp[rng.randrange(len(sp))]
        g2 = sp[rng.randrange(len(sp))]
        pt = EnhLag(lags[rng.randrange(len(lags))], rng.choice([1, -1]))
        assert act_enhanced(g1.compose(g2), pt) == \
            act_enhanced(g1, act_enhanced(g2, pt))


def test_gauss_sum_examples():
    z3 = root_of_unity(3)
    g = gauss_sum(AbGroup([3]), [[1]])
    assert g == 1 + 2 * z3
    assert g ** 4 == 9
    g5 = gauss_sum(AbGroup([5]), [[1]])
    assert g5 ** 4 == 25
    g33 = gauss_sum(AbGroup([3, 3]), [[1, 0], [0, 1]])
    assert g33 == (1 + 2 * z3) ** 2
    assert g33 ** 4 == 81


def test_gauss_sum_rejections():
    with pytest.raises(SymplecticError):
        gauss_sum(AbGroup([3, 3]), [[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(SymplecticError):
        gauss_sum(AbGroup([3]), [[0]])  # degenerate
    with pytest.raises(SymplecticError):
        gauss_sum(AbGroup([4]), [[1]])  # even order


def test_gauss_sum_randomized_corpus():
    rng = random.Random(9)
    made = 0
    while made < 25:
        k = rng.choice([1, 2])
        orders = [rng.choice([3, 5, 9, 27]) for _ in range(k)]
        G = AbGroup(orders)
        if G.order() > 81:
            continue
        e = G.exponent()
        gram = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                vals = [v for v in range(e)
                        if (v * orders[i]) % e == 0 and (v * orders[j]) % e == 0]
                gram[i][j] = gram[j][i] = rng.choice(vals)
        try:
            val = gauss_sum(G, gram)
        except SymplecticError:
            continue
        made += 1
        assert val ** 4 == G.order() ** 2


def test_symp_serialization():
    M = standard_module([(9, 1), (3, 1)])
    assert SympMod.from_json(M.to_json()) == M
