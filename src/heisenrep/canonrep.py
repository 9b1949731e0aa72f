"""Assembly of the canonical representation and its Heisenberg-plus-
symplectic action, with character and verification utilities.

The representation is realized on the induced module at the basepoint
lagrangian; the lifted canonical system supplies the coherence operators
that identify every other fiber, which is what makes the symplectic action
genuinely multiplicative rather than projective.
"""

from __future__ import annotations

import json
from itertools import combinations, groupby
from math import gcd, isqrt, lcm, prod
from operator import itemgetter, mul

from .abgroup import prime_factors
from .cyclo import CycNum, from_powers, mul_root, root_of_unity
from .heisenberg import (
    HeisGrp,
    g_transport,
    induce,
    primary_split,
    primary_project,
)
from .intertwine import CanonicalSystem, hom_dim, solve_canonical_system
from .kmat import kron, mat_mul, mat_to_json
from .reduction import ReductionData, g_to_gc, lift_canonical_system
from .symplectic import (
    DEFAULT_LAGRANGIAN_BUDGET,
    SympAut,
    enumerate_lagrangians,
    sp_sample,
)


class CanonicalRep:
    """Canonical representation of a primary Heisenberg group."""

    def __init__(self, M, base_index=0, system_verify="light", seed=0,
                 budget=DEFAULT_LAGRANGIAN_BUDGET):
        self.M = M
        self.n = M.n
        self.red = ReductionData(M)
        self.system_c = solve_canonical_system(
            self.red.Mc, base_index=base_index, verify=system_verify, seed=seed,
            budget=budget)
        self.system = lift_canonical_system(self.red, self.system_c)
        self.base_index = self.system.base_index
        self.realization = self.system.modules[self.base_index]
        self.H = self.realization.H
        self.dim = self.realization.dim

    def act_h(self, h):
        return self.realization.rho(h)

    def act_g(self, g):
        """Matrix of g from the collection action: transport after the
        coherence operator at g^(-1) of the basepoint.  That operator,
        F_{src,B} = c_src T_LB[src] T_LB[B]^H / (c_B delta_B), is the
        anchored map of src: T_LB[B] is the identity and c_B = delta_B = 1."""
        gc = g_to_gc(self.red, g)
        src = self.system.act_point(gc.inverse(), (self.base_index, 1))
        GP = g_transport(g, self.system.modules[src[0]],
                         self.system.modules[self.base_index])
        return GP.apply_left(self.system.anchored(*src))

    def act(self, x):
        """Matrix of an element of H, of Sp(M), or of the semidirect
        product written as (h, g) acting by rho(h) rho(g)."""
        return _act_dispatch(self, x)

    def character(self, h):
        return self.realization.character(h)

    def character_table(self):
        """Exact character on conjugacy class representatives, read off
        ``support_counts``: chi((l, a)) = zeta_n^a chi((l, 0)) on L x mu_n,
        and every other value is one shared zero of conductor n."""
        values = _support_values(self.realization)
        zero = CycNum.zero(self.H.n)
        return [((m, a), mul_root(values[m], self.H.n, a) if m in values
                 else zero) for m, a in class_representatives(self.H)]

    def export(self, g_sample_count=4):
        H_gens = self.realization.group_generators()
        gs = sp_sample(self.M, 0, g_sample_count) if \
            self.M.group.rank else []
        chars = self.character_table()
        return {
            "dim": self.dim,
            "module": self.M.to_json(),
            "basepoint": "L%d:+" % self.base_index,
            "central_character": {"conductor": self.n},
            "h_generators": [
                {"element": [list(m), a], "matrix": mat_to_json(self.act_h((m, a)))}
                for (m, a) in H_gens
            ],
            "g_sample": [
                {"matrix_mod_n": [list(r) for r in g.mat],
                 "action": mat_to_json(self.act_g(g))}
                for g in gs
            ],
            "character_table": _table_json(chars),
            "field_diagnostics": {
                # each anchored entry is c_i zeta_m^e, e an exponent of
                # T_LB[i] and m its modulus, so no anchored map is built
                "system_entry_min_conductors": _min_conductors(
                    mul_root(self.system.c[i], T.n, e)
                    for i, T in enumerate(self.system.T_LB)
                    for e in {e for row in T.rows for _, e in row}),
                "character_min_conductors": _min_conductors(
                    v for (_h, v) in chars),
            },
        }


def _support_values(V):
    """chi((l, 0)) for every l in the lagrangian of the model V."""
    return {l: from_powers(V.H.n, terms)
            for l, terms in V.support_counts().items()}


def _table_json(chars):
    """The export's character table, each distinct value object serialized
    once (``mat_to_json``)."""
    values = mat_to_json([[v for (_h, v) in chars]])[0]
    return [{"element": [list(m), a], "value": form}
            for ((m, a), _v), form in zip(chars, values)]


def _min_conductors(values):
    """The sorted distinct min_conductor() of the nonzero values, computed
    once per distinct coefficient vector: keyed by (n, num, den) rather than
    by CycNum, whose hash descends every value through Galois tests."""
    distinct = {(x.n, x.num, x.den): x for x in values if not x.is_zero()}
    return sorted({x.min_conductor() for x in distinct.values()})


def _act_dispatch(pi, x):
    if isinstance(x, SympAut):
        return pi.act_g(x)
    if isinstance(x, tuple) and len(x) == 2:
        if isinstance(x[1], SympAut):
            return mat_mul(pi.act_h(x[0]), pi.act_g(x[1]))
        return pi.act_h(x)
    raise TypeError("cannot act by %r" % (x,))


def flip_anchor(sys_c):
    """Re-anchor a solved system at the flipped basepoint lift.

    All anchored scalars negate; the pair table is unchanged, which is the
    uniqueness statement at the level of the stored data.
    """
    c = {i: -v for i, v in sys_c.c.items()}
    return CanonicalSystem(sys_c.module, sys_c.enh_module, sys_c.lags,
                           sys_c.enh_lags, sys_c.base_index, sys_c.modules,
                           sys_c.T_LB, sys_c.delta, c)


class TensorRep:
    """Canonical representation for composite exponent: the tensor product
    of the primary canonical representations, with the center matched
    through the CRT idempotents."""

    def __init__(self, M, base_index=0, system_verify="light", seed=0,
                 budget=DEFAULT_LAGRANGIAN_BUDGET):
        self.M = M
        self.n = M.n
        self.H = HeisGrp(M)
        self.parts = []
        for (p, Hp, embed, crt) in primary_split(self.H):
            rep = CanonicalRep(Hp.base, base_index=base_index,
                               system_verify=system_verify, seed=seed,
                               budget=budget)
            self.parts.append((p, Hp, embed, crt, rep))
        self.dim = prod(r.dim for (_p, _hp, _e, _c, r) in self.parts)

    def _components(self, h):
        out = []
        for (p, Hp, embed, crt, rep) in self.parts:
            out.append(primary_project(self.H, Hp, embed, crt, h))
        return out

    def act_h(self, h):
        mats = []
        for (comp, (_p, _hp, _e, _c, rep)) in zip(self._components(h), self.parts):
            mats.append(rep.act_h(comp))
        out = mats[0]
        for m in mats[1:]:
            out = kron(out, m)
        return out

    def restrict_g(self, g):
        """Restrictions of a symplectic automorphism to the primary parts.

        g keeps each primary part, on which crt * (n / p^r) = 1 mod p^r acts
        as the identity, so ``primary_project`` of an image is its
        coordinates in the part."""
        out = []
        for (_p, Hp, embed, crt, _rep) in self.parts:
            rows = [primary_project(self.H, Hp, embed, crt, (g.apply(gen), 0))[0]
                    for gen in embed]
            out.append(SympAut(Hp.base, rows))
        return out

    def act_g(self, g):
        mats = []
        for (gp, (_p, _hp, _e, _c, rep)) in zip(self.restrict_g(g), self.parts):
            mats.append(rep.act_g(gp))
        out = mats[0]
        for m in mats[1:]:
            out = kron(out, m)
        return out

    def act(self, x):
        return _act_dispatch(self, x)

    def character(self, h):
        """Trace through the diagonal of the tensor factors."""
        value = CycNum.one(1)
        for (comp, (_p, _hp, _e, _c, rep)) in zip(self._components(h), self.parts):
            value = value * rep.character(comp)
            if value.is_zero():
                return value
        return value

    def character_table(self):
        """``character`` on the class representatives, with each factor
        read off the ``support_counts`` of its part.  The representatives
        of one m come one after the other, so m is projected once to each
        part, up to the first part whose support misses it; its central
        component in a part of conductor n is crt * a mod n
        (``primary_project``).  The product up to part k has conductor
        lcm(n_1, ..., n_k), so a component outside the support of part k
        ends it with one shared zero of that conductor."""
        parts, N = [], 1
        for (_p, Hp, embed, crt, rep) in self.parts:
            N = lcm(N, rep.H.n)
            parts.append((Hp, embed, crt, _support_values(rep.realization),
                          rep.H.n, CycNum.zero(N)))
        out = []
        for m, reps in groupby(class_representatives(self.H), itemgetter(0)):
            ls = []
            for (Hp, embed, crt, values, _n, _zero) in parts:
                ls.append(primary_project(self.H, Hp, embed, crt, (m, 0))[0])
                if ls[-1] not in values:
                    break
            for (_m, a) in reps:
                value = CycNum.one(1)
                for (l, (_hp, _e, crt, values, n, zero)) in zip(ls, parts):
                    if l not in values:
                        value = zero
                        break
                    value = value * mul_root(values[l], n, crt * a % n)
                    if value.is_zero():
                        break
                out.append(((m, a), value))
        return out

    def export(self):
        return {
            "dim": self.dim,
            "module": self.M.to_json(),
            "primary": [
                {"p": p, "export": rep.export(g_sample_count=0)}
                for (p, _hp, _e, _c, rep) in self.parts
            ],
            "character_table": _table_json(self.character_table()),
        }


def build_pi(M, base_index=0, system_verify="light", seed=0,
             budget=DEFAULT_LAGRANGIAN_BUDGET):
    """The canonical representation of the Heisenberg group of M.

    Prime-power exponent runs the reduction pipeline directly; composite
    exponent tensors the primary representations.  ``budget`` bounds the
    lagrangian enumeration of each solved system (BudgetError above it).
    """
    primes = prime_factors(M.n)
    if len(primes) <= 1:
        return CanonicalRep(M, base_index=base_index,
                            system_verify=system_verify, seed=seed,
                            budget=budget)
    return TensorRep(M, base_index=base_index, system_verify=system_verify,
                     seed=seed, budget=budget)


def class_representatives(H):
    """Conjugacy class representatives of H: over each m, the central
    coordinate runs over Z/n modulo the pairing image of m, generated by
    n and the <e_i, m> = (G m)_i for the gram G."""
    M = H.base
    n = H.n
    return [(m, a) for m in M.group.elements()
            for a in range(gcd(n, *(sum(map(mul, row, m)) for row in M.gram)))]


def counts_inner(H, a, b):
    """(1 / |H|) sum over h of chi_a(h) conj(chi_b(h)) for two models'
    ``support_counts``, where each shared l stands for its n elements."""
    n = H.n
    corr = [0] * n
    for l, terms_a in a.items():
        for e2, c2 in b.get(l, ()):
            for e1, c1 in terms_a:
                corr[(e1 - e2) % n] += c1 * c2
    return from_powers(n, ((e, n * c) for e, c in enumerate(corr)), H.order())


class Report:
    def __init__(self, title):
        self.title = title
        self.checks = []

    def add(self, name, passed, detail=""):
        self.checks.append((name, bool(passed), detail))
        return passed

    def ok(self):
        return all(p for (_n, p, _d) in self.checks)

    def text(self):
        lines = ["%s:" % self.title]
        for (name, passed, detail) in self.checks:
            mark = "PASS" if passed else "FAIL"
            suffix = (" [%s]" % detail) if detail else ""
            lines.append("  %s %s%s" % (mark, name, suffix))
        return "\n".join(lines)

    def to_json(self):
        return {
            "title": self.title,
            "ok": self.ok(),
            "checks": [
                {"name": n, "passed": p, "detail": d} for (n, p, d) in self.checks
            ],
        }


def verify_svn(H, budget=DEFAULT_LAGRANGIAN_BUDGET, pi=None):
    """The Stone-von-Neumann property matrix, checked exactly.

    Every lagrangian model is irreducible, they are pairwise isomorphic with
    one-dimensional intertwiner spaces (checked both by the linear solver
    and by exact character inner products), and the canonical representation
    matches them with orthogonality sum exactly one.  The solver,
    ``hom_dim``, reads the models' action matrices rho; the independent
    oracle reads only their characters.
    """
    report = Report("stone-von-neumann on %r" % (H.base,))
    M = H.base
    lags = enumerate_lagrangians(M, budget=budget)
    mods = [induce(H, L) for L in lags]
    root = isqrt(M.group.order())
    report.add("lagrangian models have dimension sqrt(|M|)",
               all(V.dim == root for V in mods),
               "%d models" % len(mods))
    commutants = [hom_dim(V, V) for V in mods]
    report.add("every model has scalar commutant",
               all(d == 1 for d in commutants), "dims %r" % sorted(set(commutants)))
    pairs = list(combinations(range(len(mods)), 2))
    pair_ok = all(hom_dim(mods[i], mods[j]) == 1 for i, j in pairs)
    chars = [V.support_counts() for V in mods]
    one = CycNum.one(1)
    char_ok = all(counts_inner(H, chars[i], chars[j]) == one for i, j in pairs)
    report.add("pairwise intertwiner spaces are one-dimensional", pair_ok,
               "%d pairs (linear solver)" % len(pairs))
    report.add("pairwise character inner products equal one", char_ok,
               "independent oracle")
    if pi is None:
        pi = build_pi(M)
    report.add("dim pi = sqrt(|M|)", pi.dim == root, "dim %d" % pi.dim)
    # the character of the realization vanishes off L x mu_n, so its sum
    # over all of H is the one over the support
    if isinstance(pi, CanonicalRep):
        counts = pi.realization.support_counts()
        orth = counts_inner(H, counts, counts)
    else:
        ssum = CycNum.zero(1)
        for h in H.elements():
            v = pi.character(h)
            if not v.is_zero():
                ssum = ssum + v * v.conj()
        orth = ssum / H.order()
    report.add("character orthogonality sum equals one", orth == one,
               "summed over all %d elements" % H.order())
    central_ok = all(
        pi.character((M.group.zero(), a)) == root * root_of_unity(pi.n, a)
        for a in range(pi.n)
    )
    report.add("central character is tautological", central_ok)
    return report


def uniqueness_probe(M, basepoints=None, pi=None):
    """Rebuilding the system from different basepoints yields identical
    tables, and the representation has scalar endomorphisms only.  ``pi``
    is the canonical representation of M when the caller already holds it."""
    report = Report("uniqueness probe on %r" % (M,))
    red = ReductionData(M) if pi is None else pi.red
    count = len(enumerate_lagrangians(red.Mc))
    if basepoints is None:
        basepoints = [(i, e) for i in range(count) for e in (1, -1)]
    tables = []
    for (i, e) in basepoints:
        sys_c = solve_canonical_system(red.Mc, base_index=i, verify="none")
        if e == -1:
            sys_c = flip_anchor(sys_c)
        blob = json.dumps(sys_c.pair_table_json(), sort_keys=True,
                          separators=(",", ":")).encode()
        tables.append(blob)
    report.add("pair tables identical across %d basepoints" % len(basepoints),
               all(t == tables[0] for t in tables),
               "%d bytes" % len(tables[0]))
    if pi is None:
        pi = build_pi(M)
    if isinstance(pi, CanonicalRep):
        report.add("endomorphisms of the realization are scalars",
                   hom_dim(pi.realization, pi.realization) == 1)
    return report
