"""Deterministic verification sweeps: the canonical-system axioms and the
aggregate property matrix behind the CLI verify command.

Every check is an exact equality of cyclotomic matrices or scalars.  Seeds
only choose sample sets; levels choose between exhaustive and sampled
sweeps.  Reports are deterministic line-per-check summaries.
"""

from __future__ import annotations

import itertools
import random
from math import isqrt

from .canonrep import (
    CanonicalRep,
    Report,
    build_pi,
    uniqueness_probe,
    verify_svn,
)
from .cyclo import (
    CycNum,
    euler_phi,
    gauss_sum_quadratic,
    root_of_unity,
    sqrt_prime,
)
from .heisenberg import HeisGrp, g_transport, induce
from .kmat import Packed, identity as kmat_identity
from .kmat import mat_eq, scalar_mul
from .reduction import g_to_gc
from .symplectic import (
    DEFAULT_LAGRANGIAN_BUDGET,
    BudgetError,
    SymplecticError,
    enumerate_lagrangians,
    gauss_sum,
    sp_enumerate,
    sp_sample,
    transvections,
)
from .abgroup import AbGroup, quotient, subgroup_from_gens


def _sampled(items, count, rng):
    """All of the sequence ``items``, or ``count`` of them drawn by rng."""
    if count is None or count >= len(items):
        return list(items)
    return rng.sample(items, count)


def _sampled_tuples(points, k, count, rng):
    """``_sampled`` over the k-fold product of ``points`` without listing it:
    sampled indices are decoded in itertools.product order, which gives the
    tuples and the rng state of sampling the listed product."""
    size = len(points)
    return [tuple(points[index // size ** (k - 1 - d) % size] for d in range(k))
            for index in _sampled(range(size ** k), count, rng)]


def _sweep(report, name, counts, items, holds, witness=lambda item: item):
    """Report check ``name``: whether ``holds`` accepts every item, with
    ``counts`` formatted by the number of items checked.  The first item
    refused ends the sweep and is named through ``witness``.  A pair whose
    conductor is not a prime power, which the packed kernel test refuses,
    and operands of two forms (conductor and width), which ``kmat.Packed``
    refuses, raise ValueError and fail with the error's text."""
    for index, item in enumerate(items):
        try:
            reason = None if holds(item) else ""
        except ValueError as exc:
            reason = ": %s" % exc
        if reason is not None:
            return report.add(name, False, "%s; first failure %r%s" % (
                counts % (index + 1), witness(item), reason))
    return report.add(name, True, counts % len(items))


def check_system_axioms(sys, level="light", seed=0, equivariance_pairs=None,
                        transitivity_samples=None, equivariance_samples=None,
                        report_title=None):
    """Identity, transitivity, genuineness, equivariance, and the field
    membership of the entries, checked exactly.

    ``equivariance_pairs`` supplies (g at operator level, g at enhanced
    level); by default the enhanced-level transvections act on both sides,
    which is the situation for an elementary module.  A lifted system, whose
    operators act on a module other than the enhanced one, has no such
    default, and is refused with ValueError before any check runs, as is
    a ``level`` other than light or full.
    """
    if level not in ("light", "full"):
        raise ValueError("unknown level %r: expected light or full" % (level,))
    if equivariance_pairs is None and sys.module != sys.enh_module:
        raise ValueError(
            "the system's operators act on %r and its enhanced points on %r: "
            "pass equivariance_pairs, as pairs (g on the first, g on the "
            "second)" % (sys.module, sys.enh_module))
    rng = random.Random(seed)
    report = Report(report_title or "canonical system on %r" % (sys.module,))
    points = sys.enhanced()
    pair = sys.pair

    # one identity per call, not the system's: a tampered (i, i) still fails
    ones = []

    def identity_holds(n0):
        op = pair(n0, n0)
        if not ones:
            one = Packed.identity(len(op.rows), op.n, op.width)
            ones.extend((one, -one))
        return op == ones[0] and pair(n0, (n0[0], -n0[1])) == ones[1]

    _sweep(report, "identity on every enhanced point", "%d points", points,
           identity_holds)

    if level != "full" and transitivity_samples is None:
        transitivity_samples = 200
    triples = _sampled_tuples(points, 3, transitivity_samples, rng)
    # within this call: the lagrangian triples (i, j, k) whose lift-(+1)
    # equation F_ij F_jk = F_ik has held.  A triple whose three pairs are,
    # bit for bit, s_a F_ij, s_b F_jk and s_c F_ik with s_a s_b = s_c
    # states that equation, as (s A)(t B) = s t (A B); any other is
    # multiplied out.
    held = set()

    def transitive(t):
        (i, _e), (j, _f), (k, _g) = t
        a, b, c = pair(t[0], t[1]), pair(t[1], t[2]), pair(t[0], t[2])
        sa, sb, sc = (a.sign_to(pair((i, 1), (j, 1))),
                      b.sign_to(pair((j, 1), (k, 1))),
                      c.sign_to(pair((i, 1), (k, 1))))
        lifted = sa * sb == sc != 0
        if lifted and (i, j, k) in held:
            return True
        holds = a @ b == c
        if holds and lifted:
            held.add((i, j, k))
        return holds

    _sweep(report, "transitivity over enhanced triples", "%d triples",
           triples, transitive)

    def genuine(p):
        (i, e), (j, f) = p
        base = pair((i, e), (j, f))
        return (pair((i, -e), (j, f)) == -base == pair((i, e), (j, -f))
                and pair((i, -e), (j, -f)) == base)

    gen_pairs = _sampled_tuples(points, 2, None if level == "full" else 40,
                                rng)
    _sweep(report, "genuineness under lift flips", "%d pairs", gen_pairs,
           genuine)

    if equivariance_pairs is None:
        if level == "full":
            try:
                gs = sp_enumerate(sys.enh_module)
            except BudgetError:
                gs = transvections(sys.enh_module)
        else:
            gs = transvections(sys.enh_module)
            gs = _sampled(gs, 10, rng)
        equivariance_pairs = [(g, g) for g in gs]
    # drawn even when replaced below, so seeded reports keep their rng stream
    eq_pairs = _sampled_tuples(points, 2, None if level == "full" else 10, rng)
    if equivariance_samples is not None:
        eq_pairs = _sampled_tuples(points, 2, equivariance_samples, rng)

    # within this call: (automorphism position, source lagrangian, target
    # lagrangian) -> the transport and its inverse, and (automorphism
    # position, enhanced point) -> its image, each made on first use
    transports, images = {}, {}

    def transport(a, g, i, k):
        if (a, i, k) not in transports:
            GP = g_transport(g, sys.modules[i], sys.modules[k])
            transports[a, i, k] = GP, GP.inverse()
        return transports[a, i, k]

    def image(a, gc, point):
        if (a, point) not in images:
            images[a, point] = sys.act_point(gc, point)
        return images[a, point]

    def equivariant(check):
        (a, (g, gc)), (n0, l0) = check
        n1, l1 = image(a, gc, n0), image(a, gc, l0)
        GP_n = transport(a, g, n0[0], n1[0])[0]
        GP_l_inv = transport(a, g, l0[0], l1[0])[1]
        return pair(n0, l0).moved(GP_n, GP_l_inv) == pair(n1, l1)

    _sweep(report, "equivariance under the symplectic action",
           "%%d conjugation checks over %d automorphisms"
           % len(equivariance_pairs),
           [(ag, pq) for ag in enumerate(equivariance_pairs)
            for pq in eq_pairs],
           equivariant, lambda check: (check[0][1][0].mat,) + check[1])

    report.add("entries lie in Q(mu_p, sqrt p)", sys.entries_in_field(),
               "Galois invariance test")
    return report


# -- aggregate property matrix ---------------------------------------------


def _cyclo_suite(seed, level):
    report = Report("cyclotomic arithmetic")
    rng = random.Random(seed)
    trials = 60 if level == "full" else 20

    def rand_cyc(n):
        num = [rng.randrange(-9, 10) for _ in range(euler_phi(n))]
        return CycNum(n, num, rng.randrange(1, 7))

    ok = True
    for _ in range(trials):
        n = rng.choice([3, 4, 5, 12, 15])
        a, b, c = rand_cyc(n), rand_cyc(n), rand_cyc(n)
        if (a + b) * c != a * c + b * c:
            ok = False
        if a * (b * c) != (a * b) * c:
            ok = False
        if not b.is_zero() and (a / b) * b != a:
            ok = False
        if a.conj().conj() != a:
            ok = False
    report.add("field axioms on random samples", ok, "%d trials" % trials)
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    report.add("sqrt_prime squares to p for odd p <= 50",
               all(sqrt_prime(p) ** 2 == p for p in primes))
    report.add("quadratic Gauss sums have fourth power p^2",
               all(CycNum.one(1) * gauss_sum_quadratic(p) ** 4 == p * p
                   for p in primes))
    prim_ok = True
    top = 100 if level == "full" else 40
    for n in range(1, top + 1):
        z = root_of_unity(n)
        if z ** n != 1:
            prim_ok = False
        acc = z
        for k in range(1, n):
            if acc == 1:
                prim_ok = False
            acc = acc * z
    report.add("roots of unity are primitive up to N=%d" % top, prim_ok)
    return report


def _group_suite(M, seed, level):
    report = Report("abelian group layer on %r" % (M.group,))
    rng = random.Random(seed)
    G = M.group
    trials = 30 if level == "full" else 10
    ok = True
    for _ in range(trials):
        gens = [tuple(rng.randrange(d) for d in G.orders) for _ in range(2)]
        S = subgroup_from_gens(G, gens)
        els = list(S.elements())
        if len(els) != S.order():
            ok = False
        sample = [els[rng.randrange(len(els))] for _ in range(min(3, len(els)))]
        if subgroup_from_gens(G, sample + gens) != S:
            ok = False
    report.add("canonical forms stable under regeneration", ok,
               "%d trials" % trials)
    ok = True
    for _ in range(trials):
        gens = [tuple(rng.randrange(d) for d in G.orders)]
        S = subgroup_from_gens(G, gens)
        Q, proj, sec = quotient(G, S)
        if S.order() * Q.order() != G.order():
            ok = False
        for q in itertools.islice(Q.elements(), 5):
            if proj(sec(q)) != q:
                ok = False
    report.add("order multiplicativity and section consistency", ok)
    return report


def _symplectic_suite(M, seed, level):
    report = Report("symplectic layer on %r" % (M,))
    rng = random.Random(seed)
    n = M.n
    size = M.group.order()
    if size <= 81:
        # brute force over all alternating biadditive forms: exactly one
        # has double equal to the pairing, and it is beta
        count = 0
        pairs = [(i, j) for i in range(M.group.rank)
                 for j in range(i + 1, M.group.rank)]
        choices = []
        for (i, j) in pairs:
            di, dj = M.group.orders[i], M.group.orders[j]
            choices.append([v for v in range(n)
                            if (v * di) % n == 0 and (v * dj) % n == 0])
        beta_seen = False
        for combo in itertools.product(*choices):
            if all((2 * v) % n == M.gram[i][j] % n
                   for ((i, j), v) in zip(pairs, combo)):
                count += 1
                basis = M.group.basis()
                beta_seen = all(v == M.beta(basis[i], basis[j])
                                for ((i, j), v) in zip(pairs, combo))
        report.add("half-form is the unique alternating square root",
                   count == 1 and (beta_seen or not pairs),
                   "%d candidates matched" % count)
    beta_ok = all(
        (2 * M.beta(a, b)) % n == M.pair(a, b)
        for a in itertools.islice(M.group.elements(), 9)
        for b in itertools.islice(M.group.elements(), 9)
    )
    report.add("twice the half-form equals the pairing", beta_ok)
    try:
        lags = enumerate_lagrangians(M)
        root = isqrt(size)
        report.add("lagrangians have order sqrt(|M|)",
                   all(L.order() == root for L in lags),
                   "%d lagrangians" % len(lags))
        if M.group.rank and M.is_elementary():
            d = M.group.rank // 2
            expect = 1
            for i in range(1, d + 1):
                expect *= n ** i + 1
            report.add("elementary lagrangian count matches the product formula",
                       len(lags) == expect, "expected %d" % expect)
    except BudgetError:
        report.add("lagrangian enumeration skipped (budget)", True)
        lags = []
    gs_trials = 12 if level == "full" else 5
    ok = True
    made = 0
    guard = 0
    while made < gs_trials and guard < 200:
        guard += 1
        k = rng.choice([1, 2])
        orders = [rng.choice([3, 5, 9]) for _ in range(k)]
        G = AbGroup(orders)
        if G.order() > 81:
            continue
        e = G.exponent()
        gram = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                di, dj = orders[i], orders[j]
                vals = [v for v in range(e)
                        if (v * di) % e == 0 and (v * dj) % e == 0]
                v = rng.choice(vals)
                gram[i][j] = v
                gram[j][i] = v
        try:
            val = gauss_sum(G, gram)
        except SymplecticError:
            continue
        made += 1
        if val ** 4 != G.order() ** 2:
            ok = False
    report.add("gauss sums of symmetric forms have fourth power |L|^2",
               ok and made == gs_trials, "%d random forms" % made)
    return report


def _heisenberg_suite(M, seed, level):
    report = Report("heisenberg layer on %r" % (M,))
    rng = random.Random(seed)
    H = HeisGrp(M)
    els = None
    exhaustive = H.order() <= 3 ** 5
    if exhaustive:
        els = list(H.elements())
    trials = 150 if level == "full" else 50

    def rand_h():
        if els is not None:
            return els[rng.randrange(len(els))]
        return (tuple(rng.randrange(d) for d in M.group.orders),
                rng.randrange(H.n))

    ok = True
    for _ in range(trials):
        h1, h2, h3 = rand_h(), rand_h(), rand_h()
        if H.product(H.product(h1, h2), h3) != H.product(h1, H.product(h2, h3)):
            ok = False
        if H.product(h1, H.inverse(h1)) != H.identity():
            ok = False
        if H.commutator(h1, h2) != (M.group.zero(), M.pair(h1[0], h2[0])):
            ok = False
        if H.sigma(H.product(h1, h2)) != H.product(H.sigma(h1), H.sigma(h2)):
            ok = False
    report.add("group axioms, commutator pairing, symmetric structure", ok,
               "%d triples" % trials)
    try:
        lags = enumerate_lagrangians(M)
    except BudgetError:
        report.add("induced module spot checks skipped (budget)", True)
        return report
    V = induce(H, lags[0])
    ok = all(
        mat_eq(V.rho((M.group.zero(), a)),
               scalar_mul(root_of_unity(H.n, a), kmat_identity(V.dim, H.n)))
        for a in range(H.n)
    )
    report.add("central character is tautological", ok)
    ok = True
    for _ in range(trials // 2):
        h1, h2 = rand_h(), rand_h()
        if V.rho_genperm(h1).compose(V.rho_genperm(h2)) != \
                V.rho_genperm(H.product(h1, h2)):
            ok = False
    report.add("action matrices are exactly multiplicative", ok)
    return report


def run_verify(M, level="quick", seed=0, budget=DEFAULT_LAGRANGIAN_BUDGET):
    """The whole property matrix for one module, as a list of reports.
    A ``level`` other than quick or full raises ValueError."""
    if level not in ("quick", "full"):
        raise ValueError("unknown level %r: expected quick or full" % (level,))
    # built first, so that a module over the budget is refused before the
    # layer suites run
    pi = build_pi(M, system_verify="none", budget=budget)
    reports = [
        _cyclo_suite(seed, level),
        _group_suite(M, seed + 1, level),
        _symplectic_suite(M, seed + 2, level),
        _heisenberg_suite(M, seed + 3, level),
    ]
    sys_level = "full" if level == "full" else "light"
    parts = [pi] if isinstance(pi, CanonicalRep) else [p[-1] for p in pi.parts]
    for rep in parts:
        reports.append(check_system_axioms(rep.system_c, level=sys_level,
                                           seed=seed + 4))
        if rep.system is not rep.system_c:
            gs = sp_sample(rep.M, seed + 5, 6 if level != "full" else 12)
            reports.append(check_system_axioms(
                rep.system, level="light", seed=seed + 5,
                equivariance_pairs=[(g, g_to_gc(rep.red, g)) for g in gs],
                report_title="lifted canonical system on %r" % (rep.M,)))
    svn_cap = 729 if level == "full" else 125
    if M.group.order() <= min(budget, svn_cap):
        reports.append(verify_svn(HeisGrp(M), budget=budget, pi=pi))
    for rep in parts:
        reports.append(uniqueness_probe_report(rep, level, seed + 6))
    return reports


def uniqueness_probe_report(rep, level, seed):
    # the solved system holds every lagrangian of M_c, enumerated within
    # the budget that built it
    count = rep.system_c.count
    if level == "full" or count <= 6:
        points = None
    else:
        rng = random.Random(seed)
        points = [(rng.randrange(count), rng.choice([1, -1])) for _ in range(3)]
    return uniqueness_probe(rep.M, basepoints=points, pi=rep)
