import random

import pytest
from helpers import lattice_only
from hypothesis import given, settings, strategies as st

from heisenrep import intlin
from heisenrep.abgroup import (
    AbGroup,
    GroupError,
    elementary_prime,
    primary_component,
    quotient,
    quotient_pair,
    rho_layer,
    subgroup_from_gens,
    subgroup_intersect,
    subgroup_join,
    torsion_and_scale,
    full_subgroup,
    zero_subgroup,
)


def test_subgroup_examples():
    G = AbGroup([9])
    assert subgroup_from_gens(G, [[3]]).order() == 3
    G2 = AbGroup([3, 3])
    assert subgroup_from_gens(G2, [[1, 0], [0, 1]]).order() == 9
    G3 = AbGroup([9, 3])
    S = subgroup_from_gens(G3, [[3, 1]])
    assert S.order() == 3
    assert set(S.elements()) == {(0, 0), (3, 1), (6, 2)}


def test_subgroup_membership_and_reduction():
    G = AbGroup([9, 3])
    S = subgroup_from_gens(G, [[3, 1]])
    assert S.contains((6, 2))
    assert not S.contains((3, 0))
    assert S.coset_reduce((6, 2)) == (0, 0)


def test_malformed_generators():
    G = AbGroup([3, 3])
    with pytest.raises(GroupError):
        subgroup_from_gens(G, [[1]])


def test_quotient_examples():
    G = AbGroup([9])
    Q, proj, sec = quotient(G, subgroup_from_gens(G, [[3]]))
    assert Q.orders == (3,)
    assert sec(proj((0,))) == (0,)
    G2 = AbGroup([3, 3])
    Qd, _, _ = quotient(G2, subgroup_from_gens(G2, [[1, 1]]))
    assert Qd.order() == 3
    Qt, _, _ = quotient(G, full_subgroup(G))
    assert Qt.order() == 1


def test_quotient_section_contract():
    rng = random.Random(0)
    for _ in range(20):
        G = AbGroup([9, 3, 3])
        S = subgroup_from_gens(
            G, [tuple(rng.randrange(d) for d in G.orders) for _ in range(2)]
        )
        Q, proj, sec = quotient(G, S)
        assert S.order() * Q.order() == G.order()
        assert sec(Q.zero()) == G.zero()
        for q in Q.elements():
            assert proj(sec(q)) == q
        # section picks the lexicographically smallest coset representative
        for q in list(Q.elements())[:4]:
            rep = sec(q)
            coset = sorted(G.add(rep, s) for s in S.elements())
            assert rep == coset[0]


def test_torsion_and_scale():
    G = AbGroup([9])
    t, s = torsion_and_scale(G, 3, 1)
    assert t.order() == 3 and s.order() == 3 and t == s
    G2 = AbGroup([9, 3])
    t2, s2 = torsion_and_scale(G2, 3, 1)
    assert t2.order() == 9 and s2.order() == 3
    t0, s0 = torsion_and_scale(G, 3, 0)
    assert t0.order() == 1 and s0 == full_subgroup(G)
    tc, sc = torsion_and_scale(AbGroup([15]), 7, 1)
    assert tc.order() == 1 and sc.order() == 15


def test_rho_layer_cyclic():
    for m in range(1, 5):
        for k in range(1, 6):
            got = rho_layer(AbGroup([3 ** m]), 3, k)
            assert got.orders == ((3,) if m == k else ())


def test_rho_layer_multiplicative():
    rng = random.Random(2)
    for _ in range(15):
        e1 = rng.randrange(1, 4)
        e2 = rng.randrange(1, 4)
        k = rng.randrange(1, 5)
        single = rho_layer(AbGroup([3 ** e1]), 3, k).order() * \
            rho_layer(AbGroup([3 ** e2]), 3, k).order()
        double = rho_layer(AbGroup([3 ** e1, 3 ** e2]), 3, k).order()
        assert single == double


def test_rho_layer_mixed_example():
    assert rho_layer(AbGroup([9, 3]), 3, 1).order() == 3
    assert rho_layer(AbGroup([9, 3]), 3, 2).order() == 3
    assert rho_layer(AbGroup([9, 3]), 3, 3).order() == 1


def test_rho_layer_elementary_always():
    rng = random.Random(3)
    for _ in range(20):
        orders = [3 ** rng.randrange(1, 4) for _ in range(rng.randrange(1, 4))]
        k = rng.randrange(1, 5)
        q = rho_layer(AbGroup(orders), 3, k)
        assert all(d == 3 for d in q.orders)


def test_primary_components():
    G = AbGroup([15])
    assert primary_component(G, 3).order() == 3
    assert primary_component(G, 7).order() == 1
    G2 = AbGroup([45, 5])
    assert primary_component(G2, 5).order() == 25
    assert primary_component(G2, 3).order() == 9
    # components multiply to the group order and intersect trivially
    c3 = primary_component(G2, 3)
    c5 = primary_component(G2, 5)
    assert c3.order() * c5.order() == G2.order()
    assert subgroup_intersect(c3, c5).order() == 1


def test_canonical_form_uniqueness_under_regeneration():
    rng = random.Random(4)
    for _ in range(40):
        G = AbGroup([rng.choice([3, 9, 27]), rng.choice([3, 9]), 3])
        gens = [tuple(rng.randrange(d) for d in G.orders) for _ in range(2)]
        S = subgroup_from_gens(G, gens)
        els = list(S.elements())
        assert len(els) == S.order()
        resample = rng.sample(els, min(len(els), 4))
        assert subgroup_from_gens(G, resample + gens) == S


def test_join_intersect_orders():
    G = AbGroup([3, 3])
    A = subgroup_from_gens(G, [[1, 0]])
    B = subgroup_from_gens(G, [[0, 1]])
    assert subgroup_join(A, B) == full_subgroup(G)
    assert subgroup_intersect(A, B) == zero_subgroup(G)


def test_quotient_pair_nested():
    G = AbGroup([27])
    A = subgroup_from_gens(G, [[3]])
    B = subgroup_from_gens(G, [[9]])
    qm = quotient_pair(A, B)
    assert qm.group.order() == 3
    with pytest.raises(GroupError):
        quotient_pair(B, A)


def test_serialization():
    G = AbGroup([9, 3])
    assert AbGroup.from_json(G.to_json()) == G
    S = subgroup_from_gens(G, [[3, 1]])
    assert type(S).from_json(S.to_json()) == S


@st.composite
def fp_generators(draw):
    """(p, m, generators) for (Z/p)^m: entries negative and out of range,
    any number of generators (none included), and often a dependent one."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    m = draw(st.integers(1, 6))
    vec = st.lists(st.integers(-3 * p, 3 * p), min_size=m, max_size=m)
    gens = draw(st.lists(vec, max_size=m + 1))
    if gens and draw(st.booleans()):
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        c = draw(st.integers(-p, p))
        gens.append([x + c * y for x, y in zip(a, b)])
    return p, m, gens


def stacked_hnf(p, m, gens):
    """intlin.hnf of the generators stacked with p e_1, ..., p e_m."""
    rows = [list(g) for g in gens]
    rows += [[p if j == i else 0 for j in range(m)] for i in range(m)]
    return tuple(tuple(r) for r in intlin.hnf(rows))


@settings(max_examples=300, deadline=None)
@given(fp_generators())
def test_fp_subgroup_rows_are_the_lattice_hnf(pmg):
    p, m, gens = pmg
    S = subgroup_from_gens(AbGroup([p] * m), gens)
    assert S.rows == stacked_hnf(p, m, gens)
    if S.order() <= 2000:
        assert S.order() == len(set(S.elements()))


@settings(max_examples=200, deadline=None)
@given(fp_generators(), st.data())
def test_fp_intersection_is_the_lattice_one(pmg, data):
    """Against the lattice intersection of the same subgroups, with B
    drawn to share some generators of A."""
    p, m, gens = pmg
    vec = st.lists(st.integers(-3 * p, 3 * p), min_size=m, max_size=m)
    other = data.draw(st.lists(vec, max_size=m))
    if gens:
        other += data.draw(st.lists(st.sampled_from(gens), max_size=m))
    G = AbGroup([p] * m)
    A, B = subgroup_from_gens(G, gens), subgroup_from_gens(G, other)
    want = intlin.hnf(intlin.lattice_intersect([list(r) for r in A.rows],
                                               [list(r) for r in B.rows]))
    got = subgroup_intersect(A, B)
    assert got.rows == tuple(tuple(r) for r in want)
    if A.order() * B.order() <= 10 ** 5:
        assert set(got.elements()) == set(A.elements()) & set(B.elements())
    with lattice_only():
        assert subgroup_join(A, B) == subgroup_from_gens(G, gens + other)
    assert subgroup_join(A, B) == subgroup_from_gens(G, gens + other)


@settings(max_examples=200, deadline=None)
@given(fp_generators(), st.integers(1, 5))
def test_kernel_mod_prime_is_the_lattice_kernel(pmg, k):
    """Over a prime modulus, the F_p kernel basis generates the subgroup
    that the lattice kernel generators do."""
    p, m, gens = pmg
    a = (gens * k)[:k] if gens else [[0] * m] * k
    G = AbGroup([p] * k)
    got = intlin.stacked_kernel_mod(a, p)
    assert all(sum(x * row[j] for x, row in zip(v, a)) % p == 0
               for v in got for j in range(m))
    with lattice_only():
        want = subgroup_from_gens(G, intlin.stacked_kernel_mod(a, p))
    assert subgroup_from_gens(G, got) == want


def test_elementary_prime():
    assert elementary_prime(AbGroup([5, 5, 5])) == 5
    for orders in ([], [1], [9, 9], [3, 5], [3, 3, 9], [15]):
        assert elementary_prime(AbGroup(orders)) is None
