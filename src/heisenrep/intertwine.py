"""Intertwining operators between induced modules and the canonical system.

The standard (unnormalized) intertwiner averages over the target lagrangian;
the canonical system is the unique normalization of these satisfying the
identity, transitivity, genuineness, and symplectic-equivariance axioms on
enhanced lagrangians.  It is found by anchoring at a basepoint and applying
one rule: each transvection relation is a monomial in the unknown scalars,
and a relation with a single unknown of exponent +1 or -1 determines it.
The image of a lagrangian under a transvection is computed only when a
relation needs it, and the solve stops once every scalar is pinned.
"""

from __future__ import annotations

from .abgroup import subgroup_intersect
from .cyclo import CycNum, from_powers, root_of_unity, sqrt_prime, in_subfield
from .heisenberg import HeisGrp, g_transport, induce
from .kmat import (
    identity as kmat_identity,
    mat_mul,
    mat_to_json,
    neg,
    proportionality,
    scalar_mul,
)
from .symplectic import (
    DEFAULT_LAGRANGIAN_BUDGET,
    EnhLag,
    SymplecticError,
    act_enhanced,
    enumerate_lagrangians,
    transvections,
)


# The export writes the full pair table only when its (2 * count)^2
# matrices of dim^2 entries hold at most this many entries, the size for
# 8 lagrangians of dimension 27.  The table grows as count^2 * dim^2 while
# the anchored maps, which determine every pair, grow as count * dim^2; on
# (Z/25)^2+(Z/5)^2 (6 lagrangians, dim 125) the table has 2.25 M entries
# and its export reached 3.9 GiB.
PAIR_TABLE_ENTRIES = 16 ** 2 * 27 ** 2


class SolveError(RuntimeError):
    pass


def standard_T(target, source):
    """The averaging intertwiner H_L -> H_N for lagrangians L (source) and
    N (target): (Tf)(h) = sum over N/(N cap L) of f(n h), the canonical
    character being trivial on N x {0}.

    Returns the dense target.dim x source.dim matrix.  T_{L,L} = id; T is
    always nonzero and intertwines right translation.
    """
    H = target.H
    M = H.base
    n = H.n
    inter = subgroup_intersect(target.lag.sub, source.lag.sub)
    reps = sorted({inter.coset_reduce(v) for v in target.lag.sub.elements()})
    counts = [[[0] * n for _ in range(source.dim)] for _ in range(target.dim)]
    for i, ri in enumerate(target.reps):
        for nn in reps:
            # (nn, 0)(r_i, 0) = (nn + r_i, beta(nn, r_i))
            j, e = source.locate(M.group.add(nn, ri))
            counts[i][j][(M.beta(nn, ri) + e) % n] += 1
    # most entries are zero on larger modules; they share one object
    zero = CycNum.zero(n)
    matrix = [[from_powers(n, enumerate(c)) if any(c) else zero for c in row]
              for row in counts]
    if all(x.is_zero() for row in matrix for x in row):
        raise SolveError("standard intertwiner vanished; this is a bug")
    return matrix


def hom_dim(V, W):
    """Dimension of the space of H-intertwiners V -> W.

    X rho_V(h) = rho_W(h) X for a generator h pairs the unknowns two at a
    time: with h sending column b of V to row pV[b] with zeta_n^eV[b], and
    column k of W to pW[k] with zeta_n^eW[k], it reads
    X[pW[k]][pV[b]] = zeta_n^(eW[k] - eV[b]) * X[k][b].  Each generator so
    permutes the unknowns, and walking these maps forward from an unknown
    visits its whole orbit, giving each unknown a phase relative to the
    first.  An orbit is one free scalar unless two paths give one unknown
    different phases; then it is zero.
    """
    if V.H != W.H:
        raise SolveError("modules over different Heisenberg groups")
    dv = V.dim
    n = V.H.n
    gens = list(zip(V.generator_parts(), W.generator_parts()))
    phase = [None] * (dv * W.dim)
    dim = 0
    for start in range(len(phase)):
        if phase[start] is not None:
            continue
        phase[start] = 0
        stack = [start]
        consistent = True
        while stack:
            u = stack.pop()
            k, b = divmod(u, dv)
            for (pV, eV), (pW, eW) in gens:
                v = pW[k] * dv + pV[b]
                e = (phase[u] + eW[k] - eV[b]) % n
                if phase[v] is None:
                    phase[v] = e
                    stack.append(v)
                elif phase[v] != e:
                    consistent = False
        dim += consistent
    return dim


# -- the canonical system --------------------------------------------------


class CanonicalSystem:
    """The family F_{N0, L0} over enhanced lagrangians.

    Stored through the anchored scalars: F_{(i,e),(j,f)} =
    e * f * (c_i / (c_j * delta_j)) * T_{i,B} @ T_{B,j}, where T_{B,j} is
    the conjugate transpose of T_{j,B} (see ``standard_pairs``).  Identity and
    transitivity hold by construction; genuineness and equivariance are what
    the solver's propagation enforces.

    For a reduced module the same structure holds with the enhanced points
    living on the elementary quotient while the operators act upstairs; the
    ``lag_of`` table maps enhanced-point indices to operator-level
    lagrangians.
    """

    def __init__(self, module, enh_module, lags, enh_lags, base_index,
                 modules, T_LB, delta, c, conductor):
        self.module = module
        self.enh_module = enh_module
        self.lags = lags
        self.enh_lags = enh_lags
        self._enh_index = {L.key(): i for i, L in enumerate(enh_lags)}
        self.base_index = base_index
        self.modules = modules
        self.T_LB = T_LB
        self.delta = delta
        self.c = c
        self.conductor = conductor
        self._pair_cache = {}

    @property
    def count(self):
        return len(self.lags)

    def enhanced(self):
        return [(i, e) for i in range(self.count) for e in (1, -1)]

    def anchored(self, i, e=1):
        """F_{(i,e), basepoint} as a dense matrix."""
        m = scalar_mul(self.c[i], self.T_LB[i])
        return neg(m) if e == -1 else m

    def operator(self, n0, l0):
        """F_{n0, l0}: modules[j] -> modules[i] for n0=(i,e), l0=(j,f)."""
        i, e = n0
        j, f = l0
        base = self._pair_cache.get((i, j))
        if base is None:
            if i == j:
                base = kmat_identity(self.modules[j].dim, self.conductor)
            else:
                coef = self.c[i] / (self.c[j] * self.delta[j])
                base = mat_mul(self.T_LB[i], self.T_LB[j], adjoint=True,
                               scale=coef)
            self._pair_cache[(i, j)] = base
        return base if e * f == 1 else neg(base)

    def enhanced_index(self, point):
        i = self._enh_index.get(point.lag.key())
        if i is None:
            raise SolveError("enhanced point not in the system")
        return (i, point.eps)

    def act_point(self, g, n0):
        """Transport an enhanced index pair along g in Sp(enh_module)."""
        i, e = n0
        moved = act_enhanced(g, EnhLag(self.enh_lags[i], e))
        return self.enhanced_index(moved)

    def entries_in_field(self):
        """Every anchored entry lies in K = Q(zeta_n, sqrt p), p the
        exponent of the enhanced module (Q(zeta_n) alone when it is
        trivial).

        The anchored entries are +-c_i * t over the entries t of T_LB[i].
        Each c_i is nonzero (the solver pins it as a product and quotient
        of nonzero values), and ``standard_T`` gives T_LB[i] a nonzero
        entry t0 of conductor n, so t0 lies in Q(zeta_n), inside K.  Then
        every c_i * t lies in K if and only if c_i (= c_i t0 / t0) and
        every t (= c_i t / c_i) lie in K.  So the test is one Galois test
        per c_i, and one per entry t only when its conductor does not
        divide n.
        """
        n = self.module.n if self.module.group.rank else 1
        p = self.enh_module.n if self.enh_module.group.rank else 1
        gens = [root_of_unity(n)]
        if p > 1:
            gens.append(sqrt_prime(p))
        for i in range(self.count):
            if not in_subfield(self.c[i], gens):
                return False
            for row in self.T_LB[i]:
                for t in row:
                    if n % t.n and not in_subfield(t, gens):
                        return False
        return True

    def pair_table_json(self):
        """Basepoint-independent serialization of the full pair table."""
        table = {}
        for i, e in self.enhanced():
            for j, f in self.enhanced():
                key = "L%d:%s|L%d:%s" % (i, "+" if e > 0 else "-",
                                         j, "+" if f > 0 else "-")
                mat = [[x.lift(self.conductor) if x.n != self.conductor else x
                        for x in row] for row in self.operator((i, e), (j, f))]
                table[key] = mat_to_json(mat)
        return {
            "lagrangians": [[list(r) for r in L.sub.rows] for L in self.enh_lags],
            "pairs": table,
        }

    def export(self):
        import hashlib
        import json

        mod_json = json.dumps(self.module.to_json(), sort_keys=True)
        out = {
            "module": self.module.to_json(),
            "module_sha256": hashlib.sha256(mod_json.encode()).hexdigest(),
            "conductor": self.conductor,
            "basepoint": "L%d:+" % self.base_index,
            "lagrangians": [[list(r) for r in L.sub.rows] for L in self.enh_lags],
            "operator_lagrangians": [[list(r) for r in L.sub.rows] for L in self.lags],
            "anchored": {
                "L%d:%s" % (i, "+" if e > 0 else "-"): mat_to_json(
                    [[x.lift(self.conductor) if x.n != self.conductor else x
                      for x in row] for row in self.anchored(i, e)])
                for i in range(self.count)
                for e in (1, -1)
            },
        }
        size = 2 * self.count * self.modules[0].dim
        if 2 * self.count <= 16 and size * size <= PAIR_TABLE_ENTRIES:
            out["pairs"] = self.pair_table_json()["pairs"]
        return out


def standard_pairs(mods, B):
    """The averaging intertwiners T_LB[i]: mods[B] -> mods[i], with the
    scalars delta[i] given by T_{B,i} o T_LB[i] = delta[i] * id.

    The map back, T_{B,i}: mods[i] -> mods[B], is the conjugate transpose
    of T_LB[i], so it is not built; ``mat_mul(a, T_LB[i], adjoint=True)``
    multiplies by it.  Take <f, f'> = sum over h in H of f(h) conj(f'(h))
    on functions on H, and let A_N f (h) = sum over n in N of f((n, 0) h).
    For f in H_L and f' in H_N, substituting h -> (n, 0)^(-1) h and using
    f'((-n, 0) h) = f'(h) gives <A_N f, f'> = |N| <f, f'>; in the same way
    <f, A_L f'> = |L| <f, f'>.  Both lagrangians have order sqrt(|M|), so
    A_N and A_L are adjoint, and the standard intertwiners are A_N and A_L
    over the same |N cap L|.  The coset basis of every model is orthogonal
    (disjoint supports) with the one norm n * |L|, so the matrix of the
    adjoint is the conjugate transpose.

    delta[i] is the subgroup index [L_i : L_i cap L_B], so no composite is
    formed; the transitivity check of ``check_system_axioms`` multiplies
    the operators densely and catches a wrong delta.
    """
    T_LB = [standard_T(V, mods[B]) for V in mods]
    L_B = mods[B].lag.sub
    delta = []
    for V in mods:
        index = V.lag.order() // subgroup_intersect(V.lag.sub, L_B).order()
        delta.append(CycNum.rational(index, mods[B].H.n))
    return T_LB, delta


def solve_canonical_system(Mc, base_index=0, verify="light", seed=0,
                           budget=DEFAULT_LAGRANGIAN_BUDGET):
    """Normalize the averaging intertwiners into the canonical system.

    Anchors the basepoint scalar at 1, then reads every transvection g and
    lagrangian j as the relation c_t / (c_j * c_b) = sign * mu * delta_b
    (t = g j, b = g B) and solves it for its one unknown scalar, pass after
    pass, until every lift scalar is pinned.  Raises SymplecticError, an
    input error, for a non-elementary module or a basepoint index outside
    the lagrangians; BudgetError when |Mc| exceeds ``budget``, the
    lagrangian enumeration budget; SolveError when a relation is not a proportionality
    (convention bug) or when the relations leave a scalar undetermined
    (should not happen).
    """
    if not Mc.is_elementary():
        raise SymplecticError("canonical system needs an elementary module")
    lags = enumerate_lagrangians(Mc, budget=budget)
    if not 0 <= base_index < len(lags):
        raise SymplecticError("basepoint index %d is out of range for %d "
                              "lagrangians" % (base_index, len(lags)))
    H = HeisGrp(Mc)
    mods = [induce(H, L) for L in lags]
    conductor = Mc.n if Mc.group.rank else 1
    B = base_index
    T_LB, delta = standard_pairs(mods, B)
    c = {B: CycNum.one(conductor)}
    _propagate_scalars(Mc, lags, mods, B, T_LB, delta, c)
    sys = CanonicalSystem(Mc, Mc, lags, lags, B, mods, T_LB, delta,
                          c, conductor)
    if verify != "none":
        from .verify import check_system_axioms

        report = check_system_axioms(sys, level=verify, seed=seed)
        if not report.ok():
            raise SolveError("canonical system failed verification:\n%s"
                             % report.text())
    return sys


def _propagate_scalars(Mc, lags, mods, B, T_LB, delta, c):
    """Fill ``c`` from the equivariance relations of the transvections.

    For g and j, with t = g j and b = g B, equivariance of the system reads
    c_t = sign * mu * delta_b * c_j * c_b, where mu is the proportionality
    of the transported and the standard operator and sign the lift change.
    As a monomial c_t * c_j^(-1) * c_b^(-1) its exponents are summed per
    index (t == j cancels, j == b gives -2); a relation with exactly one
    unknown scalar, of exponent +1 or -1, determines it.

    The relations are scanned pass after pass, transvection by transvection
    and lagrangian by lagrangian; each image g L_j is computed the first
    time a relation needs it, and the scan stops as soon as every scalar is
    known.  A transvection fixing every lagrangian has t = j and b = B, so
    its relations hold no unknown and scanning it changes nothing.
    """
    nlag = len(lags)
    key_index = {L.key(): i for i, L in enumerate(lags)}
    images = {}

    def image(k, g, j):
        t = images.get((k, j))
        if t is None:
            t = key_index.get(g.on_subgroup(lags[j].sub).key())
            if t is None:
                raise SolveError("transvection %r maps lagrangian %d outside "
                                 "the enumeration" % (g.mat, j))
            images[(k, j)] = t
        return t

    gs = transvections(Mc)[1:]
    progress = len(c) < nlag
    while progress:
        progress = False
        for k, g in enumerate(gs):
            b = image(k, g, B)
            for j in range(nlag):
                t = image(k, g, j)
                expo = {t: 1}
                expo[j] = expo.get(j, 0) - 1
                expo[b] = expo.get(b, 0) - 1
                unknown = [i for i, e in expo.items() if e and i not in c]
                if len(unknown) != 1 or abs(expo[unknown[0]]) != 1:
                    continue
                u = unknown[0]
                # transport is composition-compatible, so the transport
                # of g^(-1) from b back to B is the GenPerm inverse
                GP = g_transport(g, mods[j], mods[t])
                GPBinv = g_transport(g, mods[B], mods[b]).inverse()
                mu = proportionality(GP.apply_left(GPBinv.apply_right(T_LB[j])),
                                     mat_mul(T_LB[t], T_LB[b], adjoint=True))
                if mu is None:
                    raise SolveError("equivariance constraint is not proportional; "
                                     "convention bug at transvection %r" % (g.mat,))
                sign = (act_enhanced(g, EnhLag(lags[j], 1)).eps
                        * act_enhanced(g, EnhLag(lags[B], 1)).eps)
                val = sign * mu * delta[b]
                for i, e in expo.items():
                    if i != u and e:
                        val = val * c[i] ** -e
                c[u] = val ** expo[u]
                if len(c) == nlag:
                    return
                progress = True
    if len(c) < nlag:
        missing = [i for i in range(nlag) if i not in c]
        raise SolveError(
            "axioms do not pin the system: %d of %d scalars undetermined, "
            "first at lagrangian %d" % (len(missing), nlag, missing[0]))
