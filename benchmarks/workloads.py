"""The benchmark's three workloads: construct, verify and query.

Each workload is one client in a closed loop: it issues the next library
call only after the previous one returned.  ``setup`` generates the inputs
from the workload seed and prebuilds what the timed phase needs;
``run_pass`` times one pass over the workload's operations, returning the
``speed.now()`` readings before and after each, and checks every output;
``final_checks`` runs the untimed checks that need whole matrices.  The seed
chooses sample sets only (symplectic and Heisenberg elements and
verification samples), never the arithmetic.

Library functions are looked up on their modules at call time, so that a
tracer installed after set-up sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

from heisenrep import canonrep, cli, heisenberg, kmat, reduction, symplectic, verify
from speed import now

HERE = Path(__file__).resolve().parent

# The construct ladder: conductors 3, 5, 7, 9, 11, 15, 27; dimensions 3 to 27.
LADDER = [
    ("3^2", [(3, 1)]),
    ("5^2", [(5, 1)]),
    ("7^2", [(7, 1)]),
    ("11^2", [(11, 1)]),
    ("3^4", [(3, 2)]),
    ("27^2", [(27, 1)]),
    ("9^2+3^2", [(9, 1), (3, 1)]),
    ("3^2+5^2", [(3, 1), (5, 1)]),
]

QUERY_MODULES = [
    ("3^4", [(3, 2)]),
    ("27^2", [(27, 1)]),
    ("9^2+3^2", [(9, 1), (3, 1)]),
    ("3^2+5^2", [(3, 1), (5, 1)]),
]
QUERY_WARM = 24          # g and h elements of the untimed warm-up pass
QUERY_WARM_SEED = 0
# Queries per pass for each module.  Ordered by latency, the groups are
# act_h on (Z/3)^4, (Z/27)^2 and (Z/9)^2+(Z/3)^2 (below 0.5 ms), act_g on
# (Z/3)^4 (1 to 2.5 ms), act_h on the tensor module (Z/3)^2+(Z/5)^2, where
# kron works (about 3 ms), then act_g on the other three (4 to 30 ms).  With
# 180 act_g and 120 act_h the median query lies in the middle of the tensor
# act_h group, whose latency hardly depends on the element; the latency of
# act_g on (Z/3)^4 does, so a median there would move with the seed.
QUERY_SHARES = {"h": 120, "g": 180}
QUERY_CHECKS = 3         # algebraic checks of each kind per module

# sample sizes of ``heisenrep verify --level quick`` at level "light"
VERIFY_TRIPLES = 200
VERIFY_GENUINE_PAIRS = 40
VERIFY_EQUIV_POINT_PAIRS = 10
VERIFY_TRANSVECTIONS = 10
VERIFY_LIFTED_GS = 6


def _sub_seed(rng):
    return rng.randrange(2 ** 31)


def lagrangian_count(p, r):
    """Lagrangians of the symplectic space F_p^(2r): prod (p^i + 1)."""
    out = 1
    for i in range(1, r + 1):
        out *= p ** i + 1
    return out


def fingerprint(mat):
    """Hash of the exact entries of a matrix of cyclotomic numbers; equal
    matrices in one process always have equal fingerprints."""
    return hash(tuple((x.n, x.num, x.den) for row in mat for x in row))


class Workload:
    """Common bookkeeping: failures are counted, the first few described."""

    def __init__(self, seed):
        self.seed = seed
        self.errors = []

    def fail(self, what):
        if len(self.errors) < 10:
            self.errors.append(what)
        return 1

    def final_checks(self):
        return 0, 0


class Construct(Workload):
    """``heisenrep pi`` without its optional self-check, on every module of
    the ladder: build, export, serialise.  The exports do not depend on the
    seed; each one's digest must equal the golden digest of the seed commit.
    """

    name = "construct"

    def setup(self):
        with open(HERE / "golden.json") as fh:
            self.golden = json.load(fh)["sha256"]
        self.modules = [(label, symplectic.standard_module(blocks))
                        for (label, blocks) in LADDER]

    def run_pass(self, op):
        spans, failed = [], 0
        for (label, M) in self.modules:
            text = None
            with op(label):
                t0 = now()
                try:
                    pi = canonrep.build_pi(M, system_verify="none")
                    text = cli.dumps(pi.export())
                except Exception as exc:  # an operation that raised fails
                    failed += self.fail("%s raised %r" % (label, exc))
                t1 = now()
            spans.append((t0, t1))
            if text is not None:
                digest = hashlib.sha256(text.encode()).hexdigest()
                if digest != self.golden[label]:
                    failed += self.fail("%s export digest %s differs from golden"
                                        % (label, digest))
        return spans, failed


class Verify(Workload):
    """``check_system_axioms`` at level light on three prebuilt systems and
    ``verify_svn`` on (Z/3)^4, each pass starting from cold operator pair
    caches as a fresh ``heisenrep verify`` process does."""

    name = "verify"

    def setup(self):
        rng = random.Random(self.seed)
        build = canonrep.build_pi
        M34 = symplectic.standard_module([(3, 2)])
        M72 = symplectic.standard_module([(7, 1)])
        M93 = symplectic.standard_module([(9, 1), (3, 1)])
        pi34 = build(M34, system_verify="none")
        pi72 = build(M72, system_verify="none")
        pi93 = build(M93, system_verify="none")
        gs = symplectic.sp_sample(M93, _sub_seed(rng), VERIFY_LIFTED_GS)
        eq_pairs = [(g, reduction.g_to_gc(pi93.red, g)) for g in gs]
        self.systems = [pi34.system_c, pi72.system_c, pi93.system]
        self.jobs = [
            ("axioms 3^4", self._axioms(pi34.system_c, _sub_seed(rng)),
             self._axiom_counts(lagrangian_count(3, 2), VERIFY_TRANSVECTIONS)),
            ("axioms 7^2", self._axioms(pi72.system_c, _sub_seed(rng)),
             self._axiom_counts(lagrangian_count(7, 1), VERIFY_TRANSVECTIONS)),
            ("axioms lifted 9^2+3^2",
             self._axioms(pi93.system, _sub_seed(rng), equivariance_pairs=eq_pairs,
                          report_title="lifted canonical system on %r" % (M93,)),
             self._axiom_counts(lagrangian_count(3, 1), VERIFY_LIFTED_GS)),
            ("svn 3^4", self._svn(heisenberg.HeisGrp(M34), pi34),
             self._svn_counts(lagrangian_count(3, 2), 81 * 3)),
        ]

    @staticmethod
    def _axioms(system, seed, **kwargs):
        return lambda: verify.check_system_axioms(system, level="light", seed=seed,
                                                  **kwargs)

    @staticmethod
    def _svn(H, pi):
        return lambda: canonrep.verify_svn(H, pi=pi)

    @staticmethod
    def _axiom_counts(lagrangians, automorphisms):
        points = 2 * lagrangians
        point_pairs = min(VERIFY_EQUIV_POINT_PAIRS, points ** 2)
        return {
            "identity on every enhanced point": (points,),
            "transitivity over enhanced triples": (min(VERIFY_TRIPLES, points ** 3),),
            "genuineness under lift flips": (min(VERIFY_GENUINE_PAIRS, points ** 2),),
            "equivariance under the symplectic action":
                (automorphisms * point_pairs, automorphisms),
        }

    @staticmethod
    def _svn_counts(lagrangians, order):
        return {
            "lagrangian models have dimension sqrt(|M|)": (lagrangians,),
            "pairwise intertwiner spaces are one-dimensional":
                (lagrangians * (lagrangians - 1) // 2,),
            "character orthogonality sum equals one": (order,),
        }

    def run_pass(self, op):
        for system in self.systems:
            system._pair_cache.clear()
        spans, failed = [], 0
        for (label, job, expected) in self.jobs:
            report = None
            with op(label):
                t0 = now()
                try:
                    report = job()
                except Exception as exc:  # an operation that raised fails
                    failed += self.fail("%s raised %r" % (label, exc))
                t1 = now()
            spans.append((t0, t1))
            if report is not None:
                failed += self._check_report(label, report, expected)
        return spans, failed

    def _check_report(self, label, report, expected):
        if not report.ok():
            return self.fail("%s report not ok:\n%s" % (label, report.text()))
        details = {name: detail for (name, _passed, detail) in report.checks}
        for name, counts in expected.items():
            got = tuple(int(x) for x in re.findall(r"\d+", details.get(name, "")))
            if got != counts:
                return self.fail("%s: %r reports counts %r, expected %r"
                                 % (label, name, got, counts))
        return 0


class Query(Workload):
    """A seeded, interleaved stream of ``act_g`` and ``act_h`` queries on
    four prebuilt representations with warm operator caches."""

    name = "query"

    def setup(self):
        rng = random.Random(self.seed)
        # the warm-up sample is the same for every seed, so that set-up time
        # does not depend on how many operator pairs the seed happens to hit
        warm_rng = random.Random(QUERY_WARM_SEED)
        self.reps = []
        for (label, blocks) in QUERY_MODULES:
            M = symplectic.standard_module(blocks)
            pi = canonrep.build_pi(M, system_verify="none")
            for g in symplectic.sp_sample(M, _sub_seed(warm_rng), QUERY_WARM):
                pi.act_g(g)
            for _ in range(QUERY_WARM):
                pi.act_h(self._random_h(M, warm_rng))
            gs = symplectic.sp_sample(M, _sub_seed(rng), QUERY_SHARES["g"])
            hs = [self._random_h(M, rng) for _ in range(QUERY_SHARES["h"])]
            self.reps.append((label, M, pi, gs, hs))
        # every element once per pass, in a seeded order
        self.stream = [(r, kind, i) for r in range(len(self.reps))
                       for (kind, share) in sorted(QUERY_SHARES.items())
                       for i in range(share)]
        rng.shuffle(self.stream)
        self.check_seed = _sub_seed(rng)
        self.outputs = {}   # (module, kind, element) -> fingerprint of first output

    @staticmethod
    def _random_h(M, rng):
        return (tuple(rng.randrange(d) for d in M.group.orders), rng.randrange(M.n))

    def run_pass(self, op):
        spans, failed = [], 0
        for key in self.stream:
            (r, kind, i) = key
            (label, _M, pi, gs, hs) = self.reps[r]
            out = None
            with op((label, kind, i)):
                t0 = now()
                try:
                    out = pi.act_g(gs[i]) if kind == "g" else pi.act_h(hs[i])
                except Exception as exc:  # an operation that raised fails
                    failed += self.fail("%s act_%s #%d raised %r" % (label, kind, i, exc))
                t1 = now()
            spans.append((t0, t1))
            if out is not None:
                fp = fingerprint(out)
                if self.outputs.setdefault(key, fp) != fp:
                    failed += self.fail("%s act_%s #%d changed between calls"
                                        % (label, kind, i))
        return spans, failed

    def final_checks(self):
        """rho(g1) rho(g2) = rho(g1 g2) (honest, not projective) and
        rho(g) rho(h) = rho(g.h) rho(g) on a seeded subset, plus agreement
        of the checked matrices with those the timed stream returned."""
        rng = random.Random(self.check_seed)
        attempted, failed = 0, 0
        mul, eq = kmat.mat_mul, kmat.mat_eq
        for r, (label, M, pi, gs, hs) in enumerate(self.reps):
            H = heisenberg.HeisGrp(M)
            for _ in range(QUERY_CHECKS):
                i, j = rng.randrange(len(gs)), rng.randrange(len(gs))
                k = rng.randrange(len(hs))
                g1, g2, h = gs[i], gs[j], hs[k]
                A1, A2, B = pi.act_g(g1), pi.act_g(g2), pi.act_h(h)
                checks = [
                    ("honest g%d g%d" % (i, j),
                     eq(mul(A1, A2), pi.act_g(g1.compose(g2)))),
                    ("conjugation g%d h%d" % (i, k),
                     eq(mul(A1, B), mul(pi.act_h(H.g_act(g1, h)), A1))),
                ]
                for (key, mat) in (((r, "g", i), A1), ((r, "g", j), A2),
                                   ((r, "h", k), B)):
                    if key in self.outputs:
                        checks.append(("stream output %s%d" % key[1:],
                                       self.outputs[key] == fingerprint(mat)))
                for (what, ok) in checks:
                    attempted += 1
                    if not ok:
                        failed += self.fail("%s: %s failed" % (label, what))
        return attempted, failed


WORKLOADS = {cls.name: cls for cls in (Construct, Verify, Query)}
