import hashlib
import itertools
import json
import random
from collections import Counter
from math import isqrt

import pytest
from dense_oracle import (
    orth_complement_with_branches,
    radical_with_branches,
    act_enhanced_by_elimination,
    flip,
    hnf_inverse,
    is_identity,
    isotropic_walk_fp,
    sp_enumerate_validated,
    sp_sample_by_compose,
    transvections_from_every_vector,
    transvections_per_pair,
)
from helpers import lattice_only

from heisenrep import intlin, symplectic
from heisenrep.abgroup import (
    AbGroup,
    full_subgroup,
    subgroup_from_gens,
    subgroup_intersect,
    zero_subgroup,
)
from heisenrep.cyclo import gauss_sum_quadratic, root_of_unity
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
    kernel_subgroup,
    orth_complement,
    sp_enumerate,
    sp_sample,
    standard_module,
    symplectic_basis,
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


# the construct ladder, both non-standard grams, orders (3, 3, 1) and rank 0
KERNEL_MODULES = [standard_module(b) for b in (
    [(3, 1)], [(5, 1)], [(7, 1)], [(11, 1)], [(3, 2)], [(27, 1)],
    [(9, 1), (3, 1)], [(3, 1), (5, 1)])] + FP_MODULES[-2:] + [
    SympMod(AbGroup([3, 3, 1]), [[0, 1, 0], [2, 0, 0], [0, 0, 0]]),
    SympMod(AbGroup(()), []),
]


@pytest.mark.parametrize("M", KERNEL_MODULES, ids=repr)
def test_kernel_subgroup_matches_the_bodies_with_branches(M):
    """``radical`` and ``orth_complement`` through ``kernel_subgroup`` give
    the subgroups of the former bodies, which branched on rank 0 and S = 0:
    for S = 0, S = M, every lagrangian and seeded subgroups of one or two
    generators; and ``kernel_subgroup`` finds the one radical of a
    degenerate gram as the former radical body does."""
    assert M.radical() == radical_with_branches(M.group, M.gram, M.n)
    assert M.radical().order() == 1
    rng = random.Random(repr(M))
    subs = [zero_subgroup(M.group), full_subgroup(M.group)]
    subs += [L.sub for L in enumerate_lagrangians(M)]
    subs += [subgroup_from_gens(M.group, [
        tuple(rng.randrange(d) for d in M.group.orders)
        for _ in range(rng.choice([1, 2]))]) for _ in range(12)]
    for S in subs:
        assert orth_complement(M, S) == orth_complement_with_branches(M, S), S
    for group, gram in ((AbGroup([3, 3]), [[0, 0], [0, 0]]),
                        (AbGroup([9, 3]), [[0, 3], [6, 0]]),
                        (AbGroup([5, 5, 5]), [[0, 1, 0], [4, 0, 0],
                                              [0, 0, 0]])):
        n = group.exponent()
        got = kernel_subgroup(group, gram, n)
        assert got == radical_with_branches(group, gram, n)
        assert got.order() > 1


@pytest.mark.parametrize("M", FP_MODULES, ids=repr)
def test_fp_walk_matches_the_lattice_walk(M):
    """The F_p walk lists the lagrangians of the lattice walk, in the same
    order, when the lattice walk computes every subgroup through HNF."""
    got = [L.key() for L in enumerate_lagrangians(M)]
    with lattice_only():
        want = sorted(_isotropic_walk(M, isqrt(M.group.order())))
    assert got == want


@pytest.mark.parametrize("M", FP_MODULES, ids=repr)
def test_cells_match_the_walk_oracle(M):
    """The Schubert cells give the lagrangians of the isotropic walk, as
    the same subgroups in the same order."""
    found = isotropic_walk_fp(M)
    assert [L.sub for L in enumerate_lagrangians(M)] == [
        found[k] for k in sorted(found)]


@pytest.mark.parametrize("M", FP_MODULES, ids=repr)
def test_symplectic_basis(M):
    es, fs = symplectic_basis(M)
    vectors = es + fs
    r = len(es)
    assert len(vectors) == M.group.rank
    for a, u in enumerate(vectors):
        for b, v in enumerate(vectors):
            want = 1 if b == a + r else (-1 if a == b + r else 0)
            assert M.pair(u, v) == want % M.n
    if M == standard_module([(M.n, r)]):
        basis = M.group.basis()
        assert (es, fs) == (list(basis[0::2]), list(basis[1::2]))


@pytest.mark.parametrize("blocks, sizes", [
    ([(3, 2)], [27, 9, 3, 1]),
    ([(3, 3)], [729, 243, 81, 27, 27, 9, 3, 1]),
    ([(5, 2)], [125, 25, 5, 1]),
])
def test_schubert_cell_sizes(blocks, sizes):
    """Read in the columns (e_1..e_r, f_r..f_1) of the standard basis, every
    lagrangian has one of e_i, f_i as a pivot for each i, and the e-pivots
    J number p^(sum over i in J of r + 1 - i) lagrangians."""
    M = standard_module(blocks)
    p, r = M.n, M.group.rank // 2
    order = list(range(0, 2 * r, 2)) + list(range(2 * r - 1, 0, -2))
    cells = Counter()
    for L in enumerate_lagrangians(M):
        rows = [[row[c] for c in order] for row in L.sub.echelon()]
        pivots = [row.index(1) for row in intlin.echelon_mod(rows, p)]
        assert sorted(min(j, 2 * r - 1 - j) for j in pivots) == list(range(r))
        cells[frozenset(j for j in pivots if j < r)] += 1
    assert all(count == p ** sum(r - i for i in J)
               for J, count in cells.items())
    assert sorted(cells.values(), reverse=True) == sizes


@pytest.mark.parametrize("M", FP_MODULES, ids=repr)
def test_echelon_is_the_echelon_basis_of_the_span(M):
    """``Subgroup.echelon`` gives the reduced echelon basis of the span of
    the generators, for every lagrangian and its meet with basepoint 0."""
    p = M.n
    lags = enumerate_lagrangians(M)
    subs = [L.sub for L in lags]
    subs += [subgroup_intersect(L.sub, lags[0].sub) for L in lags]
    for sub in subs:
        assert sub.echelon() == intlin.echelon_mod(sub.gens(), p)


def test_cell_points_are_checked(monkeypatch):
    """A cell point that is not lagrangian, or a lagrangian met twice, is
    refused."""
    M = standard_module([(3, 2)])
    e1, f1, e2, _f2 = M.group.basis()
    for points in ([[e1, f1]], [[e1, e1]], [[e1, e2], [e2, e1]]):
        monkeypatch.setattr(symplectic, "_lagrangian_cells",
                            lambda M, points=points: iter(points))
        with pytest.raises(SymplecticError):
            enumerate_lagrangians(M)


def test_rank6_lagrangian_keys_pinned():
    """(Z/3)^6: 1,120 lagrangians, their key list pinned by SHA-256 as the
    lattice walk listed it at 31c8883."""
    keys = [[list(r) for r in L.key()]
            for L in enumerate_lagrangians(standard_module([(3, 3)]))]
    assert len(keys) == 1120
    assert hashlib.sha256(json.dumps(keys).encode()).hexdigest() == (
        "f0d5560e70493b0edb2b43a9ca84c5875aaf7088b08c356d9af3063413b191b6")


def test_rank8_lagrangian_keys_pinned():
    """(Z/3)^8: 91,840 lagrangians, their key list pinned by SHA-256 as the
    isotropic walk listed it at 419c949 (in minutes there; the cells take
    seconds).  json.dumps writes a key tuple as it writes the lists of
    the rank-6 pin."""
    keys = [L.key() for L in enumerate_lagrangians(standard_module([(3, 4)]))]
    assert len(keys) == 91840
    assert hashlib.sha256(json.dumps(keys).encode()).hexdigest() == (
        "f72e11e0ac615b5d3610086c524898a18012b64833bbd310510b8a1da37549da")


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
    assert any(is_identity(g) for g in sp)


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
                assert t.apply(a) == M.group.reduce(
                    [x + lam * M.pair(a, v) * y for x, y in zip(a, v)])


@pytest.mark.parametrize("M", [
    standard_module(b) for b in ([(3, 1)], [(3, 2)], [(5, 1)], [(7, 1)],
                                 [(27, 1)], [(9, 1), (3, 1)])] + [
    SympMod(AbGroup([3, 3, 1]), [[0, 1, 0], [2, 0, 0], [0, 0, 0]])], ids=repr)
def test_transvections_match_the_walk_over_every_vector(M):
    """Visiting each vector once up to sign lists the same transvections,
    in the same order, as visiting every nonzero vector."""
    assert [t.mat for t in transvections(M)] == [
        t.mat for t in transvections_from_every_vector(M)]


def test_sp_sample_deterministic_and_valid():
    """Samples repeat for a seed and are symplectic automorphisms, on an
    elementary, a composite, a lifted and an order-1 module."""
    for M in (standard_module([(3, 2)]), standard_module([(3, 1), (5, 1)]),
              standard_module([(9, 1), (3, 1)]), KERNEL_MODULES[-2]):
        gs1 = sp_sample(M, 42, 5)
        gs2 = sp_sample(M, 42, 5)
        assert [g.mat for g in gs1] == [g.mat for g in gs2]
        for g in gs1:
            g.validate()


# the construct ladder, (Z/3)^6, (Z/9)^2, orders (3, 3, 1) and rank 0
SAMPLE_MODULES = KERNEL_MODULES[:8] + [
    standard_module([(3, 3)]), standard_module([(9, 1)])] + KERNEL_MODULES[-2:]


@pytest.mark.parametrize("M", SAMPLE_MODULES, ids=repr)
def test_sp_sample_matches_the_products_of_automorphisms(M):
    """Rows updated by the transvection formula give the automorphisms
    that composing with each transvection gives, draw for draw."""
    for seed in range(5):
        for count in (0, 1, 4, 180):
            assert [g.mat for g in sp_sample(M, seed, count)] == [
                g.mat for g in sp_sample_by_compose(M, seed, count)]


@pytest.mark.parametrize("M", SAMPLE_MODULES, ids=repr)
def test_transvections_match_one_automorphism_per_pair(M):
    """Writing the rows once per (v, lam) and making an automorphism per
    distinct transvection lists what one automorphism per pair lists."""
    assert [t.mat for t in transvections(M)] == [
        t.mat for t in transvections_per_pair(M)]


@pytest.mark.parametrize("M", [standard_module([(q, 1)]) for q in (3, 5, 7, 9)]
                         + [SympMod(AbGroup([5, 5]), [[0, 2], [3, 0]])],
                         ids=repr)
def test_sp_enumerate_matches_the_validated_matrices(M):
    """The matrices that keep <e_1, e_2> are the ones that pass
    ``validate``, in the same order: SL_2(Z/p^k), of order
    p^(3k) (1 - 1/p^2)."""
    got = [g.mat for g in sp_enumerate(M)]
    assert got == [g.mat for g in sp_enumerate_validated(M)]
    p = min(q for q in (3, 5, 7) if M.n % q == 0)
    assert len(got) == M.n ** 3 * (p * p - 1) // (p * p)


# SHA-256 of json.dumps([g.mat for g in sp_sample(M, 1, 180)]) on the four
# query modules, as the products of automorphisms made them at 4139257
QUERY_SAMPLE_DIGESTS = [
    ([(3, 2)],
     "c8b5973da19763acbcbebc6022206544336d9f5aed9ec4d5f26196953ba10f97"),
    ([(27, 1)],
     "ac28fe4187accb2e0b36e7ccbefd9d29588e776b3c99eacb48755a91b53e13a2"),
    ([(9, 1), (3, 1)],
     "1ff9aefdf57e98bd392338277de16dbcd3ca6c196e5c728620c2866b42f9027f"),
    ([(3, 1), (5, 1)],
     "ef71ae2a6ddda966d16dd2c21dff3f8a2dbe712a810e28a88d31a6b61d89fa5d"),
]


@pytest.mark.parametrize("blocks, digest", QUERY_SAMPLE_DIGESTS)
def test_query_samples_pinned(blocks, digest):
    mats = [g.mat for g in sp_sample(standard_module(blocks), 1, 180)]
    assert hashlib.sha256(json.dumps(mats).encode()).hexdigest() == digest


def test_one_automorphism_per_sample_and_per_transvection(monkeypatch):
    """``sp_sample(M, s, k)`` makes k automorphisms, and ``transvections``
    one per distinct transvection and one identity: 48 and the identity on
    (Z/7)^2, from 144 pairs (v, lam) up to the sign of v.  On (Z/27)^2 the
    identity is a transvection too (v = (9, 0)), and is listed twice."""
    made = []
    real = SympAut.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SympAut, "__init__", counted)
    for M in SAMPLE_MODULES:
        made.clear()
        assert len(sp_sample(M, 3, 7)) == 7 and len(made) == 7
        made.clear()
        ts = transvections(M)
        assert len(made) == len(ts) == 1 + len({t.mat for t in ts[1:]})
    made.clear()
    assert len(transvections(standard_module([(7, 1)]))) == len(made) == 49


def test_is_identity_with_order_one_summand():
    # the order-1 summand's unit reduces to 0 in the stored rows
    M = SympMod(AbGroup([3, 3, 1]), [[0, 1, 0], [2, 0, 0], [0, 0, 0]])
    assert is_identity(identity_aut(M))
    ts = transvections(M)
    assert is_identity(ts[0])
    moving = transvection(M, (1, 0, 0), 1)
    assert moving.apply((0, 1, 0)) != (0, 1, 0)
    assert not is_identity(moving)
    assert not any(is_identity(t) for t in ts[1:])


def test_sp_elements_modes():
    M = standard_module([(3, 1)])
    assert len(sp_enumerate(M)) == 24
    ts = transvections(M)
    assert is_identity(ts[0])
    assert len(sp_sample(M, 1, 3)) == 3


def test_aut_inverse_and_compose():
    M = standard_module([(9, 1)])
    for g in sp_sample(M, 3, 8):
        gi = g.inverse()
        assert is_identity(g.compose(gi))
        assert is_identity(gi.compose(g))


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
        assert is_identity(g.compose(gi))
        assert is_identity(gi.compose(g))


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
    assert flip(a) == b


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
    ident = next(g for g in sp if is_identity(g))
    for L in lags:
        pt = EnhLag(L, 1)
        assert act_enhanced(ident, pt) == pt
        g = sp[7]
        assert act_enhanced(g, flip(pt)) == flip(act_enhanced(g, pt))


@pytest.mark.parametrize("M", [FP_MODULES[i] for i in (0, 1, 4, -2, -1)],
                         ids=repr)
def test_act_enhanced_matches_elimination(M):
    """The lift sign read off the pivots of the image equals the one the
    oracle solves for by elimination, on every enhanced point."""
    points = [pt for L in enumerate_lagrangians(M)
              for pt in enhanced_points(L)]
    for g in sp_sample(M, 11, 6):
        for pt in points:
            assert act_enhanced(g, pt) == act_enhanced_by_elimination(g, pt)


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


def test_gauss_sum_rank_one_is_the_quadratic_gauss_sum():
    for p in filter(intlin.is_prime, range(3, 48)):
        assert gauss_sum(AbGroup([p]), [[1]]) == gauss_sum_quadratic(p)


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
