"""Assembly of the canonical representation and its Heisenberg-plus-
symplectic action, with character and verification utilities.

The representation is realized on the induced module at the basepoint
lagrangian; the lifted canonical system supplies the coherence operators
that identify every other fiber, which is what makes the symplectic action
genuinely multiplicative rather than projective.
"""

from __future__ import annotations

from math import gcd, isqrt, prod

from .abgroup import prime_factors
from .cyclo import CycNum, from_powers, root_of_unity
from .heisenberg import (
    HeisGrp,
    g_transport,
    induce,
    primary_split,
    primary_project,
)
from .intertwine import hom_dim, solve_canonical_system
from .kmat import kron, mat_mul, mat_to_json
from .reduction import ReductionData, g_to_gc, lift_canonical_system
from .symplectic import SympAut, SymplecticError, sp_sample


class CanonicalRep:
    """Canonical representation of a primary Heisenberg group."""

    def __init__(self, M, base_index=0, system_verify="light", seed=0):
        self.M = M
        self.n = M.n if M.group.rank else 1
        self.red = ReductionData(M)
        self.system_c = solve_canonical_system(
            self.red.Mc, base_index=base_index, verify=system_verify, seed=seed)
        self.system = lift_canonical_system(self.red, self.system_c)
        self.base_index = self.system.base_index
        self.realization = self.system.modules[self.base_index]
        self.H = self.realization.H
        self.dim = self.realization.dim

    def act_h(self, h):
        return self.realization.rho(h)

    def act_g(self, g):
        """Matrix of g from the collection action: transport after the
        coherence operator at g^(-1) of the basepoint."""
        gc = g_to_gc(self.red, g)
        src = self.system.act_point(gc.inverse(), (self.base_index, 1))
        F = self.system.operator(src, (self.base_index, 1))
        i2 = src[0]
        GP, _ = g_transport(g, self.system.modules[i2],
                            target=self.system.modules[self.base_index])
        return GP.apply_left(F)

    def act(self, x):
        """Matrix of an element of H, of Sp(M), or of the semidirect
        product written as (h, g) acting by rho(h) rho(g)."""
        return _act_dispatch(self, x)

    def character(self, h):
        return self.realization.character(h)

    def character_table(self):
        """Exact character on conjugacy class representatives."""
        out = []
        for m, a in class_representatives(self.H):
            out.append(((m, a), self.character((m, a))))
        return out

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
            "character_table": [
                {"element": [list(m), a], "value": v.to_json()}
                for ((m, a), v) in chars
            ],
            "field_diagnostics": {
                "system_entry_min_conductors": sorted({
                    x.min_conductor()
                    for i in range(self.system.count)
                    for row in self.system.anchored(i)
                    for x in row if not x.is_zero()
                }),
                "character_min_conductors": sorted({
                    v.min_conductor() for (_h, v) in chars if not v.is_zero()
                }),
            },
        }


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
    from .intertwine import CanonicalSystem

    c = {i: -v for i, v in sys_c.c.items()}
    return CanonicalSystem(sys_c.module, sys_c.enh_module, sys_c.lags,
                           sys_c.enh_lags, sys_c.base_index, sys_c.modules,
                           sys_c.T_LB, sys_c.T_BL, sys_c.delta, c,
                           sys_c.conductor)


class TensorRep:
    """Canonical representation for composite exponent: the tensor product
    of the primary canonical representations, with the center matched
    through the CRT idempotents."""

    def __init__(self, M, base_index=0, system_verify="light", seed=0):
        self.M = M
        self.n = M.n
        self.H = HeisGrp(M)
        self.parts = []
        for (p, Hp, embed, crt) in primary_split(self.H):
            rep = CanonicalRep(Hp.base, base_index=base_index,
                               system_verify=system_verify, seed=seed)
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
        """Restrictions of a symplectic automorphism to the primary parts."""
        out = []
        for (p, Hp, embed, crt, rep) in self.parts:
            rows = []
            for k, gen in enumerate(embed):
                img = g.apply(gen)
                coords = []
                for gen2, dp in zip(embed, Hp.base.group.orders):
                    i = next(q for q, x in enumerate(gen2) if x)
                    step = gen2[i]
                    assert img[i] % step == 0
                    coords.append((img[i] // step) % dp)
                rows.append(tuple(coords))
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
        return [((m, a), self.character((m, a)))
                for (m, a) in class_representatives(self.H)]

    def export(self):
        chars = self.character_table()
        return {
            "dim": self.dim,
            "module": self.M.to_json(),
            "primary": [
                {"p": p, "export": rep.export(g_sample_count=0)}
                for (p, _hp, _e, _c, rep) in self.parts
            ],
            "character_table": [
                {"element": [list(m), a], "value": v.to_json()}
                for ((m, a), v) in chars
            ],
        }


def build_pi(M, base_index=0, system_verify="light", seed=0):
    """The canonical representation of the Heisenberg group of M.

    Prime-power exponent runs the reduction pipeline directly; composite
    exponent tensors the primary representations.
    """
    if M.group.rank and M.n % 2 == 0:
        raise SymplecticError("even exponent is unsupported")
    primes = prime_factors(M.n) if M.group.rank else []
    if len(primes) <= 1:
        return CanonicalRep(M, base_index=base_index,
                            system_verify=system_verify, seed=seed)
    return TensorRep(M, base_index=base_index, system_verify=system_verify,
                     seed=seed)


def class_representatives(H):
    """Conjugacy class representatives of H: over each m, the central
    coordinate runs over Z/n modulo the pairing image of m."""
    M = H.base
    n = H.n
    out = []
    basis = M.group.basis()
    for m in M.group.elements():
        g = n
        for b in basis:
            g = gcd(g, M.pair(b, m))
        step = g if g else n
        for a in range(step):
            out.append((m, a))
    return out


def character_inner(H, chiA, chiB):
    """(1 / |H|) sum over h of chiA(h) conj(chiB(h)) for character dicts."""
    n = H.n
    acc = CycNum.zero(n)
    for h, va in chiA.items():
        vb = chiB.get(h)
        if vb is None or va.is_zero() or vb.is_zero():
            continue
        acc = acc + va * vb.conj()
    return acc / H.order()


def module_character(V):
    """Character of an induced module as a dict over its support."""
    H = V.H
    out = {}
    for l in V.lag.sub.elements():
        for a in range(H.n):
            val = V.character((l, a))
            if not val.is_zero():
                out[(l, a)] = val
    return out


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


def verify_svn(H, budget=3 ** 8, pi=None):
    """The Stone-von-Neumann property matrix, checked exactly.

    Every lagrangian model is irreducible, they are pairwise isomorphic with
    one-dimensional intertwiner spaces (checked both by the linear solver
    and by exact character inner products), and the canonical representation
    matches them with orthogonality sum exactly one.
    """
    from .symplectic import enumerate_lagrangians

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
    pair_ok = True
    char_ok = True
    chars = [module_character(V) for V in mods]
    one = CycNum.one(1)
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            if hom_dim(mods[i], mods[j]) != 1:
                pair_ok = False
            if character_inner(H, chars[i], chars[j]) != one:
                char_ok = False
    report.add("pairwise intertwiner spaces are one-dimensional", pair_ok,
               "%d pairs (linear solver)" % (len(mods) * (len(mods) - 1) // 2))
    report.add("pairwise character inner products equal one", char_ok,
               "independent oracle")
    if pi is None:
        pi = build_pi(M)
    report.add("dim pi = sqrt(|M|)", pi.dim == root, "dim %d" % pi.dim)
    # honest full-domain orthogonality sweep for pi; traces accumulate as
    # zeta-exponent multiplicities so the loop is integer arithmetic
    if isinstance(pi, CanonicalRep):
        V = pi.realization
        n = V.H.n
        corr = [0] * n
        for h in H.elements():
            counts = V.char_exponent_counts(h)
            nz = [(e, cv) for e, cv in enumerate(counts) if cv]
            for (e1, c1) in nz:
                for (e2, c2) in nz:
                    corr[(e1 - e2) % n] += c1 * c2
        orth = from_powers(n, enumerate(corr)) / H.order()
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
    import json

    from .symplectic import enumerate_lagrangians

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
