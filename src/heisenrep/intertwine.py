"""Intertwining operators between induced modules and the canonical system.

The standard (unnormalized) intertwiner averages over the target lagrangian;
the canonical system is the unique normalization of these satisfying the
identity, transitivity, genuineness, and symplectic-equivariance axioms on
enhanced lagrangians.  It is found by anchoring at a basepoint and applying
one rule: each transvection relation is a monomial in the unknown scalars,
and a relation with a single unknown of exponent +1 or -1 determines it.
"""

from __future__ import annotations

from .abgroup import subgroup_intersect
from .cyclo import CycNum, from_powers, root_of_unity, sqrt_prime, in_subfield
from .heisenberg import HeisGrp, g_transport, induce
from .kmat import (
    identity as kmat_identity,
    mat_eq,
    mat_mul,
    mat_to_json,
    neg,
    proportionality,
    scalar_mul,
)
from .symplectic import (
    EnhLag,
    SymplecticError,
    act_enhanced,
    enumerate_lagrangians,
    transvections,
)


class SolveError(RuntimeError):
    pass


class Intertwiner:
    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = matrix

    def verify(self):
        """Exact intertwining check over a generating set of H."""
        for h in self.source.group_generators():
            lhs = mat_mul(self.matrix, self.source.rho(h))
            rhs = mat_mul(self.target.rho(h), self.matrix)
            if not mat_eq(lhs, rhs):
                raise SolveError("operator does not intertwine at %r" % (h,))
        return True


def standard_T(target, source):
    """The averaging intertwiner H_L -> H_N for lagrangians L (source) and
    N (target): (Tf)(h) = sum over N/(N cap L) of f(n h), the canonical
    character being trivial on N x {0}.

    T_{L,L} = id; T is always nonzero and intertwines right translation.
    """
    H = target.H
    M = H.base
    n = H.n
    inter = subgroup_intersect(target.lag.sub, source.lag.sub)
    reps = sorted({inter.coset_reduce(v) for v in target.lag.sub.elements()})
    counts = [[[0] * n for _ in range(source.dim)] for _ in range(target.dim)]
    for i, ri in enumerate(target.reps):
        for nn in reps:
            y = M.group.add(nn, ri)
            c = M.beta(nn, ri)
            rj = source.rep_of(y)
            j = source.index[rj]
            lp = M.group.sub(y, rj)
            e = (c - M.beta(lp, rj)) % n
            counts[i][j][e] += 1
    # most entries are zero on larger modules; they share one object
    zero = CycNum.zero(n)
    matrix = [[from_powers(n, enumerate(c)) if any(c) else zero for c in row]
              for row in counts]
    if all(x.is_zero() for row in matrix for x in row):
        raise SolveError("standard intertwiner vanished; this is a bug")
    return Intertwiner(source, target, matrix)


class _RatioUnionFind:
    """Union-find over unknowns with root-of-unity ratios to the root.

    Ratios are exponents of zeta_n, stored as ints mod n; an inconsistent
    cycle forces the component to zero.  Used to count the solution
    dimension of the two-term intertwining equations.
    """

    def __init__(self, size, n):
        self.parent = list(range(size))
        self.ratio = [0] * size
        self.dead = [False] * size
        self.n = n

    def find(self, x):
        root = x
        acc = 0
        while self.parent[root] != root:
            acc += self.ratio[root]
            root = self.parent[root]
        # path compression with accumulated exponents
        cur = x
        acc2 = acc
        while self.parent[cur] != cur:
            nxt = self.parent[cur]
            step = self.ratio[cur]
            self.parent[cur] = root
            self.ratio[cur] = acc2 % self.n
            acc2 -= step
            cur = nxt
        return root, acc % self.n

    def union(self, a, b, e):
        """Impose a = zeta^e * b."""
        ra, qa = self.find(a)
        rb, qb = self.find(b)
        if ra == rb:
            if (qa - e - qb) % self.n:
                self.dead[ra] = True
            return
        self.parent[rb] = ra
        self.ratio[rb] = (qa - e - qb) % self.n
        if self.dead[rb]:
            self.dead[ra] = True

    def kill(self, x):
        r, _ = self.find(x)
        self.dead[r] = True

    def dimension(self):
        roots = set()
        dead_roots = set()
        for x in range(len(self.parent)):
            r, _ = self.find(x)
            roots.add(r)
            if self.dead[r]:
                dead_roots.add(r)
        return len(roots) - len(dead_roots)


def hom_dim(V, W):
    """Dimension of the space of H-intertwiners V -> W.

    The intertwining equations for monomial generator actions pair the
    matrix unknowns two at a time with root-of-unity coefficients, so the
    solve reduces to ratio-tracking union-find over the matrix entries.
    """
    if V.H != W.H:
        raise SolveError("modules over different Heisenberg groups")
    dv, dw = V.dim, W.dim
    n = V.H.n
    uf = _RatioUnionFind(dv * dw, n)
    for h in V.group_generators():
        permV, expV = V.rho_parts(h)
        permW, expW = W.rho_parts(h)
        for b in range(dv):
            eb = expV[b]
            pb = permV[b]
            for k in range(dw):
                # X[a][permV[b]] * sV[b] = sW[k] * X[k][b],  a = permW[k]
                u1 = permW[k] * dv + pb
                u2 = k * dv + b
                e = (expW[k] - eb) % n
                if u1 == u2:
                    if e:
                        uf.kill(u1)
                else:
                    uf.union(u1, u2, e)
    return uf.dimension()


# -- kernels ---------------------------------------------------------------


def kernel_of(F):
    """Kernel function on H with F f (h1) = sum_{h2} k(h1 h2^(-1)) f(h2),
    the measure giving every point volume one.

    Covariance: k(nbar x) = chi(nbar) k(x) and k(x lbar) = chi(lbar) k(x)
    for the canonical character chi((l, a)) = zeta_n^a of N-bar and L-bar.
    The sign on the right factor differs from a naive transcription; it is
    the one under which the convolution reproduces F exactly and the kernel
    of the identity is the normalized indicator of L-bar.
    """
    V, W = F.source, F.target
    H = V.H
    n = H.n
    norm = CycNum.rational(1) / (n * V.lag.order())
    out = {}
    r0 = V.reps[0]
    for h in H.elements():
        m, a = h
        y = H.base.group.add(m, r0)
        ri = W.rep_of(y)
        i = W.index[ri]
        nn = H.base.group.sub(y, ri)
        if not W.lag.sub.contains(nn):
            raise SolveError("kernel support decomposition failed")
        z = H.product((ri, 0), H.inverse((r0, 0)))
        full = H.product((nn, 0), z)
        c0 = full[1]
        out[h] = root_of_unity(n, (a - c0) % n) * F.matrix[i][0] * norm
    return out


def operator_from_kernel(k, source, target):
    """Rebuild the intertwiner from a bicovariant kernel by convolution."""
    H = source.H
    n = H.n
    # bicovariance validation
    ngens = [(g, 0) for g in target.lag.sub.gens()] + [(H.base.group.zero(), 1)]
    lgens = [(g, 0) for g in source.lag.sub.gens()] + [(H.base.group.zero(), 1)]
    for x in H.elements():
        for nb in ngens:
            lhs = k[H.product(nb, x)]
            rhs = root_of_unity(n, nb[1]) * k[x]
            if lhs != rhs:
                raise SolveError("kernel is not left covariant")
        for lb in lgens:
            lhs = k[H.product(x, lb)]
            rhs = root_of_unity(n, lb[1]) * k[x]
            if lhs != rhs:
                raise SolveError("kernel is not right covariant")
    mat = []
    for i in range(target.dim):
        row = []
        h1 = (target.reps[i], 0)
        for j in range(source.dim):
            acc = CycNum.zero(n)
            for l in source.lag.sub.elements():
                for a in range(n):
                    h2 = H.product((l, a), (source.reps[j], 0))
                    kv = k[H.product(h1, H.inverse(h2))]
                    if not kv.is_zero():
                        acc = acc + kv * root_of_unity(n, a)
            row.append(acc)
        mat.append(row)
    return Intertwiner(source, target, mat)


# -- the canonical system --------------------------------------------------


class CanonicalSystem:
    """The family F_{N0, L0} over enhanced lagrangians.

    Stored through the anchored scalars: F_{(i,e),(j,f)} =
    e * f * (c_i / (c_j * delta_j)) * T_{i,B} @ T_{B,j}.  Identity and
    transitivity hold by construction; genuineness and equivariance are what
    the solver's propagation enforces.

    For a reduced module the same structure holds with the enhanced points
    living on the elementary quotient while the operators act upstairs; the
    ``lag_of`` table maps enhanced-point indices to operator-level
    lagrangians.
    """

    def __init__(self, module, enh_module, lags, enh_lags, base_index,
                 modules, T_LB, T_BL, delta, c, conductor):
        self.module = module
        self.enh_module = enh_module
        self.lags = lags
        self.enh_lags = enh_lags
        self.base_index = base_index
        self.modules = modules
        self.T_LB = T_LB
        self.T_BL = T_BL
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
                base = scalar_mul(coef, mat_mul(self.T_LB[i], self.T_BL[j]))
            self._pair_cache[(i, j)] = base
        return base if e * f == 1 else neg(base)

    def enhanced_index(self, point):
        key = point.lag.key()
        for i, L in enumerate(self.enh_lags):
            if L.key() == key:
                return (i, point.eps)
        raise SolveError("enhanced point not in the system")

    def act_point(self, g, n0):
        """Transport an enhanced index pair along g in Sp(enh_module)."""
        i, e = n0
        moved = act_enhanced(g, EnhLag(self.enh_lags[i], e))
        return self.enhanced_index(moved)

    def entries_in_field(self):
        """Every anchored entry lies in Q(zeta_n, sqrt p), p the exponent of
        the enhanced module (Q(zeta_n) alone when it is trivial)."""
        p = self.enh_module.n if self.enh_module.group.rank else 1
        gens = [root_of_unity(self.module.n if self.module.group.rank else 1)]
        if p > 1:
            gens.append(sqrt_prime(p))
        for i in range(self.count):
            for row in self.anchored(i):
                for x in row:
                    if not in_subfield(x, gens):
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
        if 2 * self.count <= 16:
            out["pairs"] = self.pair_table_json()["pairs"]
        return out


def standard_pairs(mods, B):
    """The averaging intertwiners T_LB[i]: mods[B] -> mods[i] and
    T_BL[i]: mods[i] -> mods[B], with the scalars delta[i] given by
    T_BL[i] o T_LB[i] = delta[i] * id.

    delta[i] is the subgroup index [L_i : L_i cap L_B], so no composite is
    formed; the transitivity check of ``check_system_axioms`` multiplies
    the operators densely and catches a wrong delta.
    """
    T_LB = [standard_T(V, mods[B]).matrix for V in mods]
    T_BL = [standard_T(mods[B], V).matrix for V in mods]
    L_B = mods[B].lag.sub
    delta = []
    for V in mods:
        index = V.lag.order() // subgroup_intersect(V.lag.sub, L_B).order()
        delta.append(CycNum.rational(index, mods[B].H.n))
    return T_LB, T_BL, delta


def solve_canonical_system(Mc, base_index=0, verify="light", seed=0):
    """Normalize the averaging intertwiners into the canonical system.

    Anchors the basepoint scalar at 1, then reads every transvection g and
    lagrangian j as the relation c_t / (c_j * c_b) = sign * mu * delta_b
    (t = g j, b = g B) and solves it for its one unknown scalar, pass after
    pass, until every lift scalar is pinned.  Raises SymplecticError, an
    input error, for a non-elementary module or a basepoint index outside
    the lagrangians; SolveError when a relation is not a proportionality
    (convention bug) or when the relations leave a scalar undetermined
    (should not happen).
    """
    if not Mc.is_elementary():
        raise SymplecticError("canonical system needs an elementary module")
    lags = enumerate_lagrangians(Mc)
    if not 0 <= base_index < len(lags):
        raise SymplecticError("basepoint index %d is out of range for %d "
                              "lagrangians" % (base_index, len(lags)))
    H = HeisGrp(Mc)
    mods = [induce(H, L) for L in lags]
    conductor = Mc.n if Mc.group.rank else 1
    B = base_index
    T_LB, T_BL, delta = standard_pairs(mods, B)
    c = {B: CycNum.one(conductor)}
    _propagate_scalars(Mc, lags, mods, B, T_LB, T_BL, delta, c)
    sys = CanonicalSystem(Mc, Mc, lags, lags, B, mods, T_LB, T_BL, delta,
                          c, conductor)
    if verify != "none":
        from .verify import check_system_axioms

        report = check_system_axioms(sys, level=verify, seed=seed)
        if not report.ok():
            raise SolveError("canonical system failed verification:\n%s"
                             % report.text())
    return sys


def _propagate_scalars(Mc, lags, mods, B, T_LB, T_BL, delta, c):
    """Fill ``c`` from the equivariance relations of the transvections.

    For g and j, with t = g j and b = g B, equivariance of the system reads
    c_t = sign * mu * delta_b * c_j * c_b, where mu is the proportionality
    of the transported and the standard operator and sign the lift change.
    As a monomial c_t * c_j^(-1) * c_b^(-1) its exponents are summed per
    index (t == j cancels, j == b gives -2); a relation with exactly one
    unknown scalar, of exponent +1 or -1, determines it.
    """
    nlag = len(lags)
    key_index = {L.key(): i for i, L in enumerate(lags)}
    pool = []
    for g in transvections(Mc)[1:]:
        perm = [key_index[g.on_subgroup(L.sub).key()] for L in lags]
        if perm != list(range(nlag)):
            pool.append((g, perm))
    progress = True
    while progress:
        progress = False
        for g, perm in pool:
            b = perm[B]
            for j in range(nlag):
                t = perm[j]
                expo = {t: 1}
                expo[j] = expo.get(j, 0) - 1
                expo[b] = expo.get(b, 0) - 1
                unknown = [i for i, e in expo.items() if e and i not in c]
                if len(unknown) != 1 or abs(expo[unknown[0]]) != 1:
                    continue
                u = unknown[0]
                GP, _ = g_transport(g, mods[j], target=mods[t])
                GPBinv, _ = g_transport(g.inverse(), mods[b], target=mods[B])
                mu = proportionality(GP.apply_left(GPBinv.apply_right(T_LB[j])),
                                     mat_mul(T_LB[t], T_BL[b]))
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
                progress = True
    if len(c) < nlag:
        missing = [i for i in range(nlag) if i not in c]
        raise SolveError(
            "axioms do not pin the system: %d of %d scalars undetermined, "
            "first at lagrangian %d" % (len(missing), nlag, missing[0]))
