"""Acceptance criteria, one test per criterion, every assertion exact.

Each test prints a single PASS line on success; stated runtime budgets are
asserted with a monotonic clock.  Criterion 3's middle clause is expected
to fail and is pinned as such: the axioms force the Gauss-sum
normalization, whose entries already lie in the prime cyclotomic field, so
no entry of the p = 3 system can fall outside Q(mu_3); see the decisions
ledger accompanying the change history.
"""

import json
import random
import time

import pytest
from helpers import sampled_automorphisms

from heisenrep.abgroup import AbGroup, subgroup_from_gens
from heisenrep.canonrep import build_pi, uniqueness_probe, verify_svn
from heisenrep.cyclo import CycNum, in_subfield, root_of_unity, sqrt_prime
from heisenrep.heisenberg import HeisGrp, primary_project, primary_split
from heisenrep.intertwine import solve_canonical_system
from heisenrep.kmat import (
    identity,
    mat_eq,
    mat_inverse,
    mat_mul,
    mat_from_json,
    scalar_mul,
)
from heisenrep.reduction import ReductionData, g_to_gc, lift_canonical_system
from heisenrep.symplectic import (
    SympMod,
    enumerate_lagrangians,
    gauss_sum,
    sp_enumerate,
    sp_sample,
    standard_module,
)
from heisenrep.verify import check_system_axioms


def report(num, text):
    print("ACCEPTANCE %d: PASS - %s" % (num, text))


def test_criterion_1_system_axioms():
    t0 = time.monotonic()
    M = standard_module([(3, 1)])
    sys3 = solve_canonical_system(M, verify="none")
    assert 2 * sys3.count == 8
    rep = check_system_axioms(sys3, level="full")
    assert rep.ok(), rep.text()
    elapsed_small = time.monotonic() - t0
    assert elapsed_small < 10.0, "criterion budget: %.1fs" % elapsed_small

    t1 = time.monotonic()
    M4 = standard_module([(3, 2)])
    sys4 = solve_canonical_system(M4, verify="none")
    assert 2 * sys4.count == 80
    gs = sp_sample(M4, 42, 100)
    rep4 = check_system_axioms(
        sys4,
        level="light",
        seed=42,
        transitivity_samples=10 ** 4,
        equivariance_pairs=[(g, g) for g in gs],
        equivariance_samples=25,
    )
    assert rep4.ok(), rep4.text()
    elapsed_large = time.monotonic() - t1
    assert elapsed_large < 600.0, "criterion budget: %.1fs" % elapsed_large
    report(1, "axioms exact on (Z/3)^2 in %.1fs (full) and (Z/3)^4 in %.1fs "
              "(10^4 triples, 100 sampled g)" % (elapsed_small, elapsed_large))


def test_criterion_2_uniqueness():
    for blocks, npoints in (([(3, 1)], 8), ([(5, 1)], 12)):
        M = standard_module(blocks)
        red = ReductionData(M)
        count = len(enumerate_lagrangians(red.Mc))
        blobs = []
        for i in range(count):
            for eps in (1, -1):
                sys_c = solve_canonical_system(red.Mc, base_index=i,
                                               verify="none")
                if eps == -1:
                    from heisenrep.canonrep import flip_anchor

                    sys_c = flip_anchor(sys_c)
                blobs.append(json.dumps(sys_c.pair_table_json(),
                                        sort_keys=True,
                                        separators=(",", ":")).encode())
        assert len(blobs) == npoints
        assert all(b == blobs[0] for b in blobs)
        probe = uniqueness_probe(M)
        assert probe.ok(), probe.text()
    report(2, "byte-identical coherence tables across all 8 + 12 basepoints")


def test_criterion_3_field_of_definition():
    checked = 0
    for blocks in ([(3, 1)], [(5, 1)]):
        M = standard_module(blocks)
        p = M.n
        sys_c = solve_canonical_system(M, verify="none")
        gens = [root_of_unity(p), sqrt_prime(p)]
        for i in range(sys_c.count):
            for e in (1, -1):
                for row in sys_c.anchored(i, e):
                    for x in row:
                        assert in_subfield(x, gens)
                        checked += 1
    for blocks in ([(3, 1)], [(5, 1)], [(9, 1)], [(27, 1)], [(9, 1), (3, 1)]):
        M = standard_module(blocks)
        pi = build_pi(M, system_verify="none")
        for (_h, v) in pi.character_table():
            assert v.descend(M.n) is not None
    M15 = SympMod(AbGroup([15, 15]), [[0, 1], [-1, 0]])
    pi15 = build_pi(M15, system_verify="none")
    for (_h, v) in pi15.character_table():
        assert v.descend(15) is not None
    report(3, "system entries lie in K (%d entries) and every character "
              "descends to Q(mu_n)" % checked)


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: the axioms pin the Gauss-sum normalization, whose "
           "p = 3 entries all lie in Q(mu_3) (i sqrt 3 is already there); "
           "recorded in the decisions ledger",
)
def test_criterion_3_sqrt3_necessity_clause():
    M = standard_module([(3, 1)])
    sys_c = solve_canonical_system(M, verify="none")
    found_outside = False
    for i in range(sys_c.count):
        for e in (1, -1):
            for row in sys_c.anchored(i, e):
                for x in row:
                    if x.descend(3) is None:
                        found_outside = True
    table = sys_c.pair_table_json()
    for mat in table["pairs"].values():
        for row in mat:
            for entry in row:
                if CycNum.from_json(entry).descend(3) is None:
                    found_outside = True
    assert found_outside, "no canonical-system entry leaves Q(mu_3)"


def test_criterion_4_stone_von_neumann():
    budgets = {9: 60.0, 25: 60.0, 81: 120.0, 729: 300.0}
    sizes = []
    for blocks in ([(3, 1)], [(5, 1)], [(9, 1)], [(27, 1)]):
        M = standard_module(blocks)
        size = M.group.order()
        t0 = time.monotonic()
        pi = build_pi(M, system_verify="none")
        rep = verify_svn(HeisGrp(M), pi=pi)
        assert rep.ok(), rep.text()
        elapsed = time.monotonic() - t0
        assert elapsed < budgets[size], "|M|=%d took %.1fs" % (size, elapsed)
        sizes.append((size, elapsed))
    report(4, "irreducibility and pairwise isomorphism exact at " +
              ", ".join("|M|=%d (%.1fs)" % s for s in sizes))


def test_criterion_5_reduction_correctness():
    M9 = standard_module([(9, 1)])
    red9 = ReductionData(M9)
    assert red9.S == subgroup_from_gens(M9.group, [[3, 0], [0, 3]])
    assert red9.Mc.group.order() == 1

    M27 = standard_module([(27, 1)])
    red27 = ReductionData(M27)
    assert red27.S == subgroup_from_gens(M27.group, [[9, 0], [0, 9]])
    assert red27.Mc.group.orders == (3, 3)

    Mmix = standard_module([(9, 1), (3, 1)])
    redmix = ReductionData(Mmix)
    assert redmix.S == subgroup_from_gens(Mmix.group,
                                          [[3, 0, 0, 0], [0, 3, 0, 0]])
    assert redmix.Mc.group.orders == (3, 3)

    for M, red in ((M9, red9), (M27, red27), (Mmix, redmix)):
        for g in sp_sample(M, 100, 50):
            assert g.on_subgroup(red.S) == red.S
        for g in sampled_automorphisms(M, 101, 50):
            assert g.on_subgroup(red.S) == red.S

    # lifted family passes the full axiom suite at the level of M
    sys_c = solve_canonical_system(redmix.Mc, verify="none")
    lifted = lift_canonical_system(redmix, sys_c)
    gs = sp_sample(Mmix, 7, 20)
    rep = check_system_axioms(
        lifted,
        level="full",
        seed=7,
        equivariance_pairs=[(g, g_to_gc(redmix, g)) for g in gs],
        equivariance_samples=8,
        report_title="lifted canonical system at the M level",
    )
    assert rep.ok(), rep.text()
    report(5, "S and M_c match the hand-derived oracles; S characteristic "
              "under 100 sampled automorphisms; lifted family passes the "
              "axiom suite")


def test_criterion_6_composite():
    M15 = SympMod(AbGroup([15, 15]), [[0, 1], [-1, 0]])
    pi = build_pi(M15, system_verify="none")
    assert pi.dim == 15
    for a in range(15):
        assert mat_eq(pi.act_h(((0, 0), a)),
                      scalar_mul(root_of_unity(15, a), identity(15, 15)))
    H = pi.H
    fac = primary_split(H)
    count = 0
    for h in H.elements():
        v = pi.character(h)
        w = None
        for ((p, Hp, emb, crt), (_p2, _h2, _e2, _c2, rp)) in zip(fac, pi.parts):
            val = rp.character(primary_project(H, Hp, emb, crt, h))
            w = val if w is None else w * val
        assert v == w
        count += 1
    report(6, "pi = pi_3 (x) pi_5 with dim 15, central character zeta_15, "
              "character multiplicative over all %d elements" % count)


def test_criterion_7_weil_representation():
    M = standard_module([(3, 1)])
    pi = build_pi(M, system_verify="none")
    sp = sp_enumerate(M)
    assert len(sp) == 24
    mats = {g.key(): pi.act_g(g) for g in sp}
    pairs = 0
    for g1 in sp:
        a1 = mats[g1.key()]
        for g2 in sp:
            assert mat_eq(mat_mul(a1, mats[g2.key()]),
                          mats[g1.compose(g2).key()])
            pairs += 1
    H = pi.H
    semis = 0
    for g in sp:
        Ag = mats[g.key()]
        Agi = mat_inverse(Ag)
        for h in H.elements():
            lhs = mat_mul(Ag, mat_mul(pi.act_h(h), Agi))
            assert mat_eq(lhs, pi.act_h(H.g_act(g, h)))
            semis += 1
    report(7, "genuine multiplicativity on all %d symplectic pairs and the "
              "semidirect relation on all %d (g, h) pairs" % (pairs, semis))


def test_criterion_8_gauss_sum_identity():
    rng = random.Random(2024)
    verified = 0
    attempts = 0
    while verified < 50 and attempts < 4000:
        attempts += 1
        k = rng.choice([1, 1, 2, 2, 3])
        orders = [rng.choice([3, 5, 7, 9, 27, 81]) for _ in range(k)]
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
            value = gauss_sum(G, gram)
        except Exception:
            continue
        assert value ** 4 == G.order() ** 2
        verified += 1
    assert verified >= 50
    report(8, "fourth-power identity exact on %d randomized nondegenerate "
              "symmetric forms" % verified)


def test_criterion_9_determinism_and_roundtrips(tmp_path):
    from heisenrep.cli import main

    mod = tmp_path / "m.json"
    assert main(["standard", "3^1:1", "--out", str(mod)]) == 0
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["verify", str(mod), "--level", "full", "--seed", "11",
                 "--out", str(r1)]) == 0
    assert main(["verify", str(mod), "--level", "full", "--seed", "11",
                 "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()

    # exports round-trip to equal values
    s1 = tmp_path / "s.json"
    assert main(["system", str(mod), "--out", str(s1)]) == 0
    data = json.loads(s1.read_text())
    M = SympMod.from_json(data["module"])
    assert M.to_json() == data["module"]
    for key, mat in data["anchored"].items():
        parsed = mat_from_json(mat)
        from heisenrep.kmat import mat_to_json

        assert mat_to_json(parsed) == mat
    p1 = tmp_path / "p.json"
    assert main(["pi", str(mod), "--out", str(p1)]) == 0
    parsed = json.loads(p1.read_text())
    assert json.loads(json.dumps(parsed, sort_keys=True)) == parsed
    report(9, "full verify twice byte-identical; module, system, and pi "
              "exports round-trip")
