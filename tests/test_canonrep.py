import hashlib
import random

import pytest

from heisenrep.abgroup import AbGroup
from dense_oracle import (
    character_inner,
    dense_min_conductors,
    module_character,
    trace_counts,
)

from heisenrep.canonrep import (
    CanonicalRep,
    TensorRep,
    build_pi,
    class_representatives,
    counts_inner,
    uniqueness_probe,
    verify_svn,
)
from heisenrep.cyclo import root_of_unity
from heisenrep.heisenberg import HeisGrp
from heisenrep.kmat import identity, mat_eq, mat_inverse, mat_mul, scalar_mul
from heisenrep.symplectic import (
    SympMod,
    SymplecticError,
    sp_enumerate,
    sp_sample,
    standard_module,
)


@pytest.fixture(scope="module")
def pi3():
    return build_pi(standard_module([(3, 1)]), system_verify="none")


def test_trivial_module_representation():
    M0 = SympMod(AbGroup(()), [])
    pi = build_pi(M0, system_verify="none")
    assert pi.dim == 1
    assert mat_eq(pi.act_h(((), 0)), identity(1, 1))


def test_dims():
    assert build_pi(standard_module([(3, 1)]), system_verify="none").dim == 3
    assert build_pi(standard_module([(9, 1)]), system_verify="none").dim == 9
    assert build_pi(standard_module([(3, 2)]), system_verify="none").dim == 9


def test_even_exponent_rejected():
    # SympMod.validate refuses an even exponent when the module is made, so
    # no module that build_pi could be given has one
    with pytest.raises(SymplecticError):
        standard_module([(2, 1)])


def test_central_character(pi3):
    for a in range(3):
        assert mat_eq(pi3.act_h(((0, 0), a)),
                      scalar_mul(root_of_unity(3, a), identity(3, 3)))


def test_h_action_multiplicative(pi3):
    H = pi3.H
    els = list(H.elements())
    rng = random.Random(0)
    for _ in range(80):
        h1, h2 = els[rng.randrange(27)], els[rng.randrange(27)]
        assert mat_eq(mat_mul(pi3.act_h(h1), pi3.act_h(h2)),
                      pi3.act_h(H.product(h1, h2)))


def test_g_action_multiplicative_exhaustive(pi3):
    M = pi3.M
    sp = sp_enumerate(M)
    mats = {g.key(): pi3.act_g(g) for g in sp}
    for g1 in sp:
        a1 = mats[g1.key()]
        for g2 in sp:
            assert mat_eq(mat_mul(a1, mats[g2.key()]),
                          mats[g1.compose(g2).key()])


def test_semidirect_relation(pi3):
    H = pi3.H
    sp = sp_enumerate(pi3.M)
    rng = random.Random(1)
    els = list(H.elements())
    for _ in range(40):
        g = sp[rng.randrange(len(sp))]
        h = els[rng.randrange(len(els))]
        Ag = pi3.act_g(g)
        lhs = mat_mul(Ag, mat_mul(pi3.act_h(h), mat_inverse(Ag)))
        assert mat_eq(lhs, pi3.act_h(H.g_act(g, h)))


def test_semidirect_on_rank4():
    M = standard_module([(3, 2)])
    pi = build_pi(M, system_verify="none")
    H = pi.H
    rng = random.Random(2)
    els = [(tuple(rng.randrange(3) for _ in range(4)), rng.randrange(3))
           for _ in range(6)]
    for g in sp_sample(M, 3, 4):
        Ag = pi.act_g(g)
        Agi = mat_inverse(Ag)
        for h in els[:3]:
            lhs = mat_mul(Ag, mat_mul(pi.act_h(h), Agi))
            assert mat_eq(lhs, pi.act_h(H.g_act(g, h)))
    for g1 in sp_sample(M, 4, 2):
        for g2 in sp_sample(M, 5, 2):
            lhs = mat_mul(pi.act_g(g1), pi.act_g(g2))
            assert mat_eq(lhs, pi.act_g(g1.compose(g2)))


def test_character_support_and_central_values(pi3):
    H = pi3.H
    for h in H.elements():
        v = pi3.character(h)
        if h[0] == (0, 0):
            assert v == 3 * root_of_unity(3, h[1])
        else:
            assert v.is_zero()


# the modules of the construct benchmark, the tensor (Z/3)^2+(Z/5)^2 last
CONSTRUCT_BLOCKS = [[(3, 1)], [(5, 1)], [(7, 1)], [(11, 1)], [(3, 2)],
                    [(27, 1)], [(9, 1), (3, 1)], [(3, 1), (5, 1)]]


@pytest.mark.parametrize("blocks", CONSTRUCT_BLOCKS, ids=repr)
def test_character_table_matches_character(blocks):
    """The table read off the support gives ``character`` on every class
    representative, conductor, coefficients and denominator alike."""
    pi = build_pi(standard_module(blocks), system_verify="none")

    def exact(v):
        return (v.n, v.num, v.den)

    assert [(h, exact(v)) for h, v in pi.character_table()] == [
        (h, exact(pi.character(h))) for h in class_representatives(pi.H)]


@pytest.mark.parametrize("blocks", CONSTRUCT_BLOCKS + [[(5, 2)]], ids=repr)
def test_support_counts_match_the_exponent_counts(blocks):
    """The rows r_j G read each <r_j, l> as the fixed columns of rho_parts
    give it, for every l of L, on every primary part; a second call gives
    the same object."""
    pi = build_pi(standard_module(blocks), system_verify="none")
    reps = [pi] if isinstance(pi, CanonicalRep) else \
        [rep for (*_, rep) in pi.parts]
    for V in (rep.realization for rep in reps):
        counts = V.support_counts()
        assert counts == {
            l: [(e, c) for e, c in enumerate(trace_counts(V, (l, 0))) if c]
            for l in V.lag.sub.elements()}
        assert V.support_counts() is counts


def test_character_descends_to_Kprime(pi3):
    for (_h, v) in pi3.character_table():
        assert v.descend(3) is not None


def test_character_descends_for_z9_and_z27():
    for blocks in ([(9, 1)], [(27, 1)]):
        M = standard_module(blocks)
        pi = build_pi(M, system_verify="none")
        for (_h, v) in pi.character_table():
            assert v.descend(M.n) is not None


def test_system_entries_descend_to_Kprime_recorded(pi3):
    # the open question's empirical evidence: with the gauss-sum
    # normalization forced by the axioms, the matrix field already descends
    # to Q(mu_p) for p = 3 (K strictly contains what is used)
    sys = pi3.system_c
    for i in range(sys.count):
        for row in sys.anchored(i):
            for x in row:
                assert x.descend(3) is not None


def test_verify_svn_small():
    for blocks in ([(3, 1)], [(5, 1)]):
        M = standard_module(blocks)
        rep = verify_svn(HeisGrp(M))
        assert rep.ok(), rep.text()


def test_verify_svn_rank4():
    """Passes, and a second call on a fresh group, whose models may reuse
    the ids of the first call's, gives the same report."""
    M = standard_module([(3, 2)])
    rep = verify_svn(HeisGrp(M))
    assert rep.ok(), rep.text()
    assert verify_svn(HeisGrp(M)).text() == rep.text()


@pytest.mark.parametrize("blocks", [[(3, 1)], [(5, 1)], [(3, 2)]])
def test_counts_inner_matches_the_character_dicts(blocks):
    """Every pairwise inner product of the lagrangian models, from the
    exponent counts and from the CycNum character dicts, equal exactly."""
    from heisenrep.heisenberg import induce
    from heisenrep.symplectic import enumerate_lagrangians

    H = HeisGrp(standard_module(blocks))
    mods = [induce(H, L) for L in enumerate_lagrangians(H.base)]
    counts = [V.support_counts() for V in mods]
    chars = [module_character(V) for V in mods]
    for i in range(len(mods)):
        for j in range(len(mods)):
            got = counts_inner(H, counts[i], counts[j])
            want = character_inner(H, chars[i], chars[j])
            assert (got.n, got.num, got.den) == (want.n, want.num, want.den)
            assert got == 1


# the construct ladder: elementary, lifted and tensor modules
LADDER = [[(3, 1)], [(5, 1)], [(7, 1)], [(11, 1)], [(3, 2)], [(27, 1)],
          [(9, 1), (3, 1)], [(3, 1), (5, 1)]]


@pytest.mark.parametrize("blocks", LADDER, ids=str)
def test_system_min_conductors_match_the_dense_reading(blocks):
    pi = build_pi(standard_module(blocks), system_verify="none")
    reps = [pi] if isinstance(pi, CanonicalRep) else \
        [rep for (*_, rep) in pi.parts]
    for rep in reps:
        diagnostics = rep.export(g_sample_count=0)["field_diagnostics"]
        assert diagnostics["system_entry_min_conductors"] == \
            dense_min_conductors(rep.system)


def test_act_dispatcher(pi3):
    from heisenrep.symplectic import sp_enumerate

    g = sp_enumerate(pi3.M)[5]
    h = ((1, 2), 1)
    assert mat_eq(pi3.act(h), pi3.act_h(h))
    assert mat_eq(pi3.act(g), pi3.act_g(g))
    assert mat_eq(pi3.act((h, g)), mat_mul(pi3.act_h(h), pi3.act_g(g)))


def test_verify_svn_trivial():
    M0 = SympMod(AbGroup(()), [])
    rep = verify_svn(HeisGrp(M0))
    assert rep.ok(), rep.text()


def test_uniqueness_probe_z3():
    rep = uniqueness_probe(standard_module([(3, 1)]))
    assert rep.ok(), rep.text()


def test_uniqueness_probe_mixed_basepoints():
    rep = uniqueness_probe(standard_module([(9, 1), (3, 1)]),
                           basepoints=[(0, 1), (1, -1)])
    assert rep.ok(), rep.text()


def test_basepoint_independence_rank4_sampled():
    # three sampled basepoints on (Z/3)^4: identical operators on a
    # deterministic sample of enhanced pairs
    import random

    from heisenrep.intertwine import solve_canonical_system
    from heisenrep.kmat import mat_eq

    M = standard_module([(3, 2)])
    systems = [solve_canonical_system(M, base_index=b, verify="none")
               for b in (0, 17, 33)]
    rng = random.Random(12)
    points = systems[0].enhanced()
    for _ in range(60):
        n0 = points[rng.randrange(len(points))]
        l0 = points[rng.randrange(len(points))]
        ref = systems[0].operator(n0, l0)
        for other in systems[1:]:
            assert mat_eq(other.operator(n0, l0), ref)


def test_g_action_multiplicative_on_reduced_instances():
    # the lifted coherence data keeps the symplectic action honest also
    # when the module is not elementary
    from heisenrep.kmat import mat_inverse

    for blocks in ([(9, 1)], [(9, 1), (3, 1)]):
        M = standard_module(blocks)
        pi = build_pi(M, system_verify="none")
        H = pi.H
        rng = random.Random(13)
        gs = sp_sample(M, 14, 4)
        for g1 in gs[:2]:
            for g2 in gs[2:]:
                lhs = mat_mul(pi.act_g(g1), pi.act_g(g2))
                assert mat_eq(lhs, pi.act_g(g1.compose(g2)))
        g = gs[0]
        Ag = pi.act_g(g)
        Agi = mat_inverse(Ag)
        for _ in range(3):
            h = (tuple(rng.randrange(d) for d in M.group.orders),
                 rng.randrange(M.n))
            lhs = mat_mul(Ag, mat_mul(pi.act_h(h), Agi))
            assert mat_eq(lhs, pi.act_h(H.g_act(g, h)))


def test_tensor_build_n15():
    M15 = SympMod(AbGroup([15, 15]), [[0, 1], [-1, 0]])
    pi = build_pi(M15, system_verify="none")
    assert isinstance(pi, TensorRep)
    assert pi.dim == 15
    for a in (1, 4, 11):
        assert mat_eq(pi.act_h(((0, 0), a)),
                      scalar_mul(root_of_unity(15, a), identity(15, 15)))


def test_tensor_action_multiplicative():
    M15 = SympMod(AbGroup([15, 15]), [[0, 1], [-1, 0]])
    pi = build_pi(M15, system_verify="none")
    H = pi.H
    rng = random.Random(5)
    for _ in range(6):
        h1 = (tuple(rng.randrange(15) for _ in range(2)), rng.randrange(15))
        h2 = (tuple(rng.randrange(15) for _ in range(2)), rng.randrange(15))
        assert mat_eq(mat_mul(pi.act_h(h1), pi.act_h(h2)),
                      pi.act_h(H.product(h1, h2)))


def test_tensor_g_action_honest_and_conjugates_h():
    M = standard_module([(3, 1), (5, 1)])
    pi = build_pi(M, system_verify="none")
    assert isinstance(pi, TensorRep)
    H = pi.H
    rng = random.Random(8)
    g1, g2 = sp_sample(M, 9, 2)
    assert mat_eq(mat_mul(pi.act_g(g1), pi.act_g(g2)),
                  pi.act_g(g1.compose(g2)))
    A = pi.act_g(g1)
    for _ in range(2):
        h = (tuple(rng.randrange(d) for d in M.group.orders), rng.randrange(M.n))
        assert mat_eq(mat_mul(A, pi.act_h(h)),
                      mat_mul(pi.act_h(H.g_act(g1, h)), A))


def test_tensor_character_multiplicative_sampled():
    from heisenrep.heisenberg import primary_split, primary_project

    M15 = SympMod(AbGroup([15, 15]), [[0, 1], [-1, 0]])
    pi = build_pi(M15, system_verify="none")
    H = pi.H
    fac = primary_split(H)
    rng = random.Random(6)
    for _ in range(60):
        h = (tuple(rng.randrange(15) for _ in range(2)), rng.randrange(15))
        v = pi.character(h)
        w = None
        for ((p, Hp, emb, crt), (_p2, _h2, _e2, _c2, rp)) in zip(fac, pi.parts):
            val = rp.character(primary_project(H, Hp, emb, crt, h))
            w = val if w is None else w * val
        assert v == w


def test_class_representatives_count():
    H = HeisGrp(standard_module([(3, 1)]))
    reps = class_representatives(H)
    # 3 central classes + 8 noncentral classes of m != 0
    assert len(reps) == 11
    assert sum(1 for (m, _a) in reps if m == (0, 0)) == 3


@pytest.mark.parametrize("M", [
    standard_module([(9, 1)]), standard_module([(3, 1), (5, 1)]),
    SympMod.from_json({"orders": [3, 3, 1],
                       "gram": [[0, 1, 0], [2, 0, 0], [0, 0, 0]]})], ids=repr)
def test_class_representatives_by_brute_force(M):
    """Over each m the classes are the cosets of the image of x -> <x, m>
    in Z/n, so their representatives are 0 .. n / |image| - 1."""
    H = HeisGrp(M)
    want = []
    for m in M.group.elements():
        image = {M.pair(x, m) for x in M.group.elements()}
        want += [(m, a) for a in range(H.n // len(image))]
    assert class_representatives(H) == want


def test_export_shape(pi3):
    data = pi3.export()
    assert data["dim"] == 3
    assert set(data["field_diagnostics"]) == {
        "system_entry_min_conductors", "character_min_conductors"}
    assert all(c in (1, 3) for c in
               data["field_diagnostics"]["character_min_conductors"])


# SHA-256 over the exact entries (conductor, coefficients, denominator) of
# act_g on sp_sample(M, 11, 5) followed by act_h on five elements drawn
# with random.Random(11); a change of any output bit changes the digest.
ACTION_DIGESTS = [
    ([(3, 2)], "0a6cde4834d5a0ef6dd040afa595cd2296de31024c1cab65b36a1ca0f895959b"),
    ([(27, 1)], "dde4db01e279c4f461d67a938f44ded5b83f638c172d996eed47c08d5cc1e985"),
    ([(3, 1), (5, 1)],
     "b16cef00d08444fb68da226d4eb026af67c5be0b6c334be99ffbecadc9830163"),
    ([(9, 1), (3, 1)],
     "33ae2e0c246d19ce3d6d489f9220946418c0c2754642a7f6cecc639cfca0cd70"),
]


@pytest.mark.parametrize("blocks, digest", ACTION_DIGESTS)
def test_action_outputs_golden(blocks, digest):
    M = standard_module(blocks)
    pi = build_pi(M, system_verify="none")
    rng = random.Random(11)
    hs = [(tuple(rng.randrange(d) for d in M.group.orders), rng.randrange(M.n))
          for _ in range(5)]
    mats = [pi.act_g(g) for g in sp_sample(M, 11, 5)] + [pi.act_h(h) for h in hs]
    entries = [(x.n, x.num, x.den) for mat in mats for row in mat for x in row]
    assert hashlib.sha256(repr(entries).encode()).hexdigest() == digest


def test_symplectic_inverses_counted_on_the_action_and_the_check(monkeypatch):
    # act_g inverts g once, for the source point of the coherence operator;
    # transport maps forward and inverts no automorphism
    from heisenrep.symplectic import SympAut
    from heisenrep.verify import check_system_axioms

    M = standard_module([(3, 2)])
    pi = build_pi(M, system_verify="none")
    gs = sp_sample(M, 3, 50)
    for g in gs:
        pi.act_g(g)
    calls = []
    inverse = SympAut.inverse

    def counted(g):
        calls.append(g)
        return inverse(g)

    monkeypatch.setattr(SympAut, "inverse", counted)
    for g in gs:
        pi.act_g(g)
    assert len(calls) == 50
    calls.clear()
    assert check_system_axioms(pi.system_c, level="light").ok()
    assert calls == []


def test_act_g_reads_the_anchored_map():
    """act_g transports the anchored map of its source point, which is the
    pair F_{src,B} entry for entry (value, conductor and denominator), with
    the pair cache left empty; the sampled sources have both lifts."""
    from heisenrep.heisenberg import g_transport
    from heisenrep.reduction import g_to_gc

    lifts = set()
    for blocks in ([(3, 1)], [(3, 2)], [(27, 1)], [(9, 1), (3, 1)]):
        M = standard_module(blocks)
        pi = build_pi(M, system_verify="none")
        sys, B = pi.system, pi.base_index
        for g in sp_sample(M, 5, 30):
            src = sys.act_point(g_to_gc(pi.red, g).inverse(), (B, 1))
            lifts.add(src[1])
            GP = g_transport(g, sys.modules[src[0]], sys.modules[B])
            got = pi.act_g(g)
            assert sys._pair_cache == {}
            want = GP.apply_left(sys.operator(src, (B, 1)))
            assert [[(x.n, x.num, x.den) for x in row] for row in got] == \
                [[(x.n, x.num, x.den) for x in row] for row in want], blocks
            sys._pair_cache.clear()
    assert lifts == {1, -1}
