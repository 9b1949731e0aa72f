"""Dense reference computations that the library itself no longer runs.

The library takes each delta as the subgroup index [L : L cap B]; the
oracle forms the composite of the two standard intertwiners and reads its
scalar off the matrix.  The library reads a character off L-membership;
the oracle sums the fixed columns of the monomial action.  The library lifts the canonical system from M_c by
reusing its scalars; the oracle matches each lifted operator through tau.
The library compares two values of one conductor by their coefficients
and tests field membership on the anchored scalars; the oracle lifts every
comparison to the lcm of the conductors and tests every anchored entry.
The library inverts a symplectic automorphism through the dual basis of
the pairing; the oracle solves the lattice equations by HNF.
The library transports a model along g by mapping each representative
r_j forward; the oracle pulls each target representative back through
g^(-1).  The library reads the action of h row by row; the oracle reads it
column by column.  The kernel oracle is the convolution picture of an
intertwiner (Gurevich-Hadani): a bicovariant function on H from which
the operator is rebuilt by convolution.
The library counts intertwiner dimensions by Frobenius reciprocity, over
the vectors of the target that the words of the source's lagrangian scale
as they scale column 0 of the source; the walk oracle walks the orbits of
the generator maps on all dv * dw unknowns of an intertwiner, and the
union-find oracle joins those unknowns with root-of-unity ratios.
The library multiplies only the nonzero entries of b in a
proportionality; the oracle multiplies every entry.
The library holds each standard intertwiner as a phase matrix, one
root of unity per entry from one coset; the oracle counts the exponents of
every entry in a dim x dim x n cube and reduces each entry through
``from_powers``.  The library takes each anchored scalar of the canonical
system from its closed form; the oracle solves for it through the
equivariance relations of the transvections, moving each intertwiner as a
dense matrix.  The library keeps a pair product c * (a @ b^H) of phase
matrices as packed integers; the oracle unpacks every entry into one
CycNum, as the library did before its pairs were packed.  The library
builds each standard intertwiner on an elementary module from the echelon
bases over F_p; the oracle is ``standard_T``, one coset decomposition per
entry.  The library takes the character inner products of the models from
exponent counts over the common support and reads the anchored field
diagnostics off the exponent sets; the oracle sums CycNum products over
the character dicts and reads every entry of every dense anchored map.
The library lists the lagrangians of an elementary module one Schubert
cell at a time, each once; the oracle walks the isotropic subspaces level
by level and meets each one again from every one of its hyperplanes.
The library reads the lift sign of an enhanced lagrangian off the entries
of the transported echelon rows at the pivots of the image; the oracle
solves for their coordinates by elimination over the echelon basis of
the image, which it takes through ``SympAut.on_subgroup``.
The library lists the transvections from each nonzero vector once up to
sign; the oracle makes them from every nonzero vector and every scale.
The library writes the rows of each transvection and makes one
automorphism per distinct transvection; the per-pair oracle makes one per
vector and scale.  The library keeps each ``sp_sample`` product as rows
and updates them by the transvection formula; the oracle composes
automorphisms.  The library lists Sp(M) in rank 2 as the matrices of
determinant 1; the oracle validates every 2x2 matrix.
The library finds the radical and every orthogonal complement through
``kernel_subgroup``, with no branch for rank 0 or S = 0; the oracles are
the former bodies, with those branches.  The library lifts a CycNum
through ``mul_root``; the oracle is the former walk through ``from_powers``.

Four small maps that only the tests use live here too: ``is_identity``
and ``flip`` on automorphisms and enhanced points, the embedding of a
primary Heisenberg factor (``primary_embed``) and the central embedding
of the reduced group (``central_lift``).
"""

import itertools
import random
from functools import lru_cache
from math import lcm
from operator import lshift

from heisenrep import intlin
from heisenrep.abgroup import (
    Subgroup,
    subgroup_from_gens,
    subgroup_intersect,
    zero_subgroup,
)
from heisenrep.cyclo import (
    CycNum,
    from_powers,
    in_subfield,
    legendre,
    mul_root,
    root_of_unity,
    sqrt_prime,
)
from heisenrep.heisenberg import HeisGrp, g_transport, induce
from heisenrep.intertwine import SolveError, standard_pairs
from heisenrep.kmat import GenPerm, mat_mul, phase_product, proportionality
from heisenrep.symplectic import (
    EnhLag,
    Lagrangian,
    SympAut,
    SymplecticError,
    act_enhanced,
    identity_aut,
    orth_complement,
    transvection,
    transvections,
)


def isotropic_walk_fp(M):
    """The lagrangians of M = F_p^2r keyed by HNF rows, walked level by
    level over the isotropic subspaces, each held as its echelon basis.

    An isotropic S of dimension k < r is extended by one vector per line of
    S^perp / S.  In the echelon basis of S^perp built from the rows of S
    first, the pivots of S stay pivots, and the rows W at the other pivots
    are zero at them; so span(W) meets S in 0 and is a complement of S in
    S^perp.  Each line is one combination v of W whose first nonzero
    coefficient, on row i of W, is 1.  Then v is 1 at the pivot j of that
    row and zero at the pivots of S, so the rows of S cleared at column j,
    with v, are the echelon basis of S + <v>.  Each subspace of dimension
    k + 1 is reached from each of its hyperplanes and kept once.
    """
    p, m = M.n, M.group.rank
    level = [()]
    for _ in range(m // 2):
        nxt = set()
        for S in level:
            perp = orth_complement(
                M, Subgroup(M.group, intlin.hnf_mod(S, p, m))).gens()
            pivots = {row.index(1) for row in S}
            W = [w for w in intlin.echelon_mod(list(S) + perp, p)
                 if w.index(1) not in pivots]
            for i, w in enumerate(W):
                j = w.index(1)
                for tail in itertools.product(range(p), repeat=len(W) - i - 1):
                    v = w
                    for c, u in zip(tail, W[i + 1:]):
                        if c:
                            v = tuple((x + c * y) % p for x, y in zip(v, u))
                    rows = [tuple((x - row[j] * y) % p for x, y in zip(row, v))
                            if row[j] else row for row in S]
                    rows.append(v)
                    # in order of pivots: an earlier pivot is the larger row
                    nxt.add(tuple(sorted(rows, reverse=True)))
        level = nxt
    found = {}
    for S in level:
        sub = Subgroup(M.group, intlin.hnf_mod(S, p, m))
        found[sub.key()] = sub
    return found


def hnf_inverse(g):
    """g^(-1) by solving e_i = x @ g.mat (mod the orders) through a stacked
    HNF with transform."""
    M = g.module
    m = M.group.rank
    stacked = [list(g.mat[i]) for i in range(m)]
    for i, d in enumerate(M.group.orders):
        stacked.append([d if j == i else 0 for j in range(m)])
    reduced, _full, trans = intlin.hnf(stacked, with_transform=True)
    rows = []
    for target in M.group.basis():
        c = intlin.solve_lattice(reduced, target)
        if c is None:
            raise SymplecticError("matrix is not invertible")
        x = [0] * m
        for k, ck in enumerate(c):
            if ck:
                for j in range(m):
                    x[j] += ck * trans[k][j]
        rows.append(M.group.reduce(x[:m]))
    return SympAut(M, rows, validate=False)


def scalar_of(a):
    """If a == c * identity, return c, else None."""
    dim = len(a)
    if dim == 0:
        return CycNum.one(1)
    c = a[0][0]
    for i in range(dim):
        for j in range(dim):
            if i == j:
                if a[i][j] != c:
                    return None
            elif not a[i][j].is_zero():
                return None
    return c


def trace_counts(V, h):
    """Trace of rho(h) on the induced module V as zeta_n exponent
    multiplicities: the sum over the columns that ``rho_parts`` fixes."""
    counts = [0] * V.H.n
    perm, expo = V.rho_parts(h)
    for j, i in enumerate(perm):
        if i == j:
            counts[expo[j]] += 1
    return counts


def dense_standard_T(target, source):
    """The averaging intertwiner H_L -> H_N (L source, N target) as a dense
    matrix: the exponent of every term of the sum over N/(N cap L) counted
    per entry, each entry reduced once, zeros one shared object of
    conductor n."""
    H = target.H
    M = H.base
    n = H.n
    inter = subgroup_intersect(target.lag.sub, source.lag.sub)
    reps = sorted({inter.coset_reduce(v) for v in target.lag.sub.elements()})
    counts = [[[0] * n for _ in range(source.dim)] for _ in range(target.dim)]
    for i, ri in enumerate(target.reps):
        for nn in reps:
            j, e = source.locate(M.group.add(nn, ri))
            counts[i][j][(M.beta(nn, ri) + e) % n] += 1
    zero = CycNum.zero(n)
    return [[from_powers(n, enumerate(c)) if any(c) else zero for c in row]
            for row in counts]


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


def dense_min_conductors(sys):
    """The sorted distinct min_conductor() of the nonzero entries of every
    dense anchored map F_{(i,+), basepoint}."""
    distinct = {(x.n, x.num, x.den): x for i in range(sys.count)
                for row in sys.anchored(i) for x in row if not x.is_zero()}
    return sorted({x.min_conductor() for x in distinct.values()})


def composition_scalar(lag_a, lag_b, H=None):
    """The scalar d with T_{A,B} o T_{B,A} = d * id."""
    if H is None:
        H = HeisGrp(lag_a.module)
    Va = induce(H, lag_a)
    Vb = induce(H, lag_b)
    prod = mat_mul(dense_standard_T(Va, Vb), dense_standard_T(Vb, Va))
    scal = scalar_of(prod)
    if scal is None:
        raise SolveError("composite of standard intertwiners is not scalar")
    return scal


def tau_matrix(red, Vc, V):
    """The isomorphism H_{L_c} -> (H_L)^S as a dim(V) x dim(Vc) matrix.

    tau(f)((m, a)) = zeta_n^a * f((m mod S, 0)), extended by zero off
    S^perp x mu_n; columns are images of the basis of H_{L_c}.
    """
    n = red.M.n
    p = red.p
    cols = []
    zero = CycNum.zero(n)
    for j in range(Vc.dim):
        col = []
        for r in V.reps:
            if not red.S_perp.contains(r):
                col.append(zero)
                continue
            q = red.proj(r)
            rj = Vc.rep_of(q)
            if rj != Vc.reps[j]:
                col.append(zero)
                continue
            lp = Vc.H.base.group.sub(q, rj)
            e = (-Vc.H.base.beta(lp, rj)) % p
            col.append(root_of_unity(n, (e * (n // p)) % n))
        cols.append(col)
    return [[cols[j][i] for j in range(Vc.dim)] for i in range(V.dim)]


def tau_matched_scalars(red, sys_c, lifted):
    """The scalars c_i with c_i * T_{i,B} o tau_B = tau_i o F_c(i, B) over
    the lifted modules, one proportionality per lagrangian."""
    B = sys_c.base_index
    tau_B = tau_matrix(red, sys_c.modules[B], lifted.modules[B])
    c = []
    for i in range(sys_c.count):
        tau_i = tau_matrix(red, sys_c.modules[i], lifted.modules[i])
        target = mat_mul(tau_i, sys_c.anchored(i, 1))
        image = mat_mul(lifted.T_LB[i].to_dense(), tau_B)
        scal = proportionality(target, image)
        if scal is None or scal.is_zero():
            raise SolveError("lifted operator is not determined on "
                             "S-invariants (lagrangian %d)" % i)
        c.append(scal)
    return c


def lift_eq(x, y):
    """x == y compared at the lcm of the conductors; y may be an int or a
    Fraction."""
    if not isinstance(y, CycNum):
        y = CycNum.rational(y)
    N = lcm(x.n, y.n)
    a, b = x.lift(N), y.lift(N)
    return a.num == b.num and a.den == b.den


def anchored_entries_in_field(sys):
    """Every entry of every anchored map F_{(i,+), basepoint} lies in
    Q(zeta_n, sqrt p), one Galois membership test per entry."""
    p = sys.enh_module.n if sys.enh_module.group.rank else 1
    gens = [root_of_unity(sys.module.n if sys.module.group.rank else 1)]
    if p > 1:
        gens.append(sqrt_prime(p))
    return all(in_subfield(x, gens) for i in range(sys.count)
               for row in sys.anchored(i) for x in row)


def transport_by_inverse(g, module, target):
    """g_transport through g^(-1): each target representative r_i pulls
    back to g^(-1) r_i = l + r_j with l in L, and column j goes to row i
    with exponent -beta(l, r_j)."""
    M = module.H.base
    g_inv = g.inverse()
    perm = [0] * module.dim
    expo = [0] * module.dim
    for i, ri in enumerate(target.reps):
        x = g_inv.apply(ri)
        rj = module.rep_of(x)
        j = module.index[rj]
        perm[j] = i
        expo[j] = -M.beta(M.group.sub(x, rj), rj)
    return GenPerm(perm, expo, module.H.n)


def rho_parts_by_columns(V, h):
    """``rho_parts`` read column by column: column j goes to the row of
    r_i = rep_of(r_j - m), with l = r_i + m - r_j in L and exponent
    a + beta(r_i, m) - beta(l, r_j) mod n."""
    M = V.H.base
    group = M.group
    m, a = h
    perm = [0] * V.dim
    expo = [0] * V.dim
    for j, rj in enumerate(V.reps):
        ri = V.rep_of(group.sub(rj, m))
        lp = group.sub(group.add(ri, m), rj)
        perm[j] = V.index[ri]
        expo[j] = (a + M.beta(ri, m) - M.beta(lp, rj)) % V.H.n
    return perm, expo


def kernel_of(matrix, source, target):
    """Kernel function on H with F f (h1) = sum_{h2} k(h1 h2^(-1)) f(h2)
    for the intertwiner F: source -> target given by ``matrix``, the
    measure giving every point volume one.

    Covariance: k(nbar x) = chi(nbar) k(x) and k(x lbar) = chi(lbar) k(x)
    for the canonical character chi((l, a)) = zeta_n^a of N-bar and L-bar.
    The sign on the right factor differs from a naive transcription; it is
    the one under which the convolution reproduces F exactly and the kernel
    of the identity is the normalized indicator of L-bar.
    """
    V, W = source, target
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
        out[h] = root_of_unity(n, (a - c0) % n) * matrix[i][0] * norm
    return out


def operator_from_kernel(k, source, target):
    """Rebuild the intertwiner matrix from a bicovariant kernel by
    convolution."""
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
    return mat


class _RatioUnionFind:
    """Union-find over unknowns with root-of-unity ratios to the root.

    Ratios are exponents of zeta_n, stored as ints mod n; an inconsistent
    cycle forces the component to zero.
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


def table_parts(W):
    """(perm, exponents) of each of ``W.generator_tables()``, as
    ``rho_parts`` gives them: point k * n of a table is
    perm[k] * n + exponents[k]."""
    n = W.H.n
    return [([t[k * n] // n for k in range(W.dim)],
             [t[k * n] % n for k in range(W.dim)])
            for t in W.generator_tables()]


def hom_dim_walk(V, W):
    """Dimension of the space of H-intertwiners V -> W for any two modules
    with ``generator_tables``, from the dv * dw unknowns X[k][b].

    X rho_V(h) = rho_W(h) X for a generator h pairs the unknowns two at a
    time: with h sending column b of V to row pV[b] with zeta_n^eV[b], and
    column k of W to pW[k] with zeta_n^eW[k], it reads
    X[pW[k]][pV[b]] = zeta_n^(eW[k] - eV[b]) * X[k][b].  Each generator so
    permutes the unknowns, and walking these maps forward from an unknown
    visits its whole orbit, giving each unknown a phase relative to the
    first.  An orbit is one free scalar unless two paths give one unknown
    different phases; then it is zero.
    """
    dv = V.dim
    n = V.H.n
    gens = list(zip(table_parts(V), table_parts(W)))
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


def hom_dim_union_find(V, W):
    """Dimension of the space of H-intertwiners V -> W: the two-term
    intertwining equations X[permW[k]][permV[b]] * zeta^expV[b] =
    zeta^expW[k] * X[k][b] joined in a ratio-tracking union-find."""
    dv, dw = V.dim, W.dim
    n = V.H.n
    uf = _RatioUnionFind(dv * dw, n)
    for (permV, expV), (permW, expW) in zip(table_parts(V),
                                            table_parts(W)):
        for b in range(dv):
            for k in range(dw):
                u1 = permW[k] * dv + permV[b]
                u2 = k * dv + b
                e = (expW[k] - expV[b]) % n
                if u1 == u2:
                    if e:
                        uf.kill(u1)
                else:
                    uf.union(u1, u2, e)
    return uf.dimension()


def proportionality_full(a, b):
    """Scalar c with a == c * b, else None (also when b is zero), with one
    product c * y per entry of b."""
    ref = None
    for i in range(len(b)):
        for j in range(len(b[0])):
            if not b[i][j].is_zero():
                ref = (i, j)
                break
        if ref:
            break
    if ref is None:
        return None
    c = a[ref[0]][ref[1]] / b[ref[0]][ref[1]]
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if x != c * y:
                return None
    return c


def phase_proportionality(a, b):
    """Scalar c with a == c * b for a phase matrix a and a dense matrix b,
    else None (also when b is zero): the value and conductor that
    ``proportionality(a.to_dense(), b)`` gives.

    With a_rk = zeta_n^e the first nonzero entry of a, kappa = b_rk *
    zeta_n^(-e) is 1 / c, and a == c * b exactly when every entry of b is
    kappa * zeta_n^f where a has zeta_n^f and zero where a is zero."""
    n = a.n
    r = next((r for r, row in enumerate(a.rows) if row), None)
    if r is None:
        y = next((y for row in b for y in row if any(y.num)), None)
        return None if y is None else CycNum.zero(lcm(n, y.n))
    k, e = min(a.rows[r])
    kappa = mul_root(b[r][k], n, -e)
    if not any(kappa.num):
        return None
    rots = [mul_root(kappa, n, f) for f in range(n)]
    for row, row_b in zip(a.rows, b):
        if sum(1 for y in row_b if any(y.num)) != len(row):
            return None
        if any(row_b[k] != rots[f] for k, f in row):
            return None
    return kappa.inverse()


def act_enhanced_by_elimination(g, point):
    """``act_enhanced`` with the image subgroup from ``g.on_subgroup``,
    both echelon bases from ``intlin.echelon_mod`` of the generators, and
    the coordinates of each transported row solved by elimination."""
    M = point.lag.module
    p = M.n
    rows = intlin.echelon_mod(point.lag.sub.gens(), p)
    if not rows:
        return EnhLag(point.lag, point.eps)
    new_sub = g.on_subgroup(point.lag.sub)
    new_rows = intlin.echelon_mod(new_sub.gens(), p)
    coord = []
    for vec in (g.apply(r) for r in rows):
        cs = []
        for brow in new_rows:
            c = vec[next(j for j, x in enumerate(brow) if x)]
            cs.append(c)
            vec = [(x - c * y) % p for x, y in zip(vec, brow)]
        if any(vec):
            raise SymplecticError("image basis solve failed")
        coord.append(cs)
    u = intlin.det_mod(coord, p)
    if u == 0:
        raise SymplecticError("degenerate basis transport")
    return EnhLag(Lagrangian(M, new_sub, validate=False),
                  point.eps * legendre(u, p))


def propagated_scalars(mods, basepoints=(0,)):
    """The anchored scalars c of the canonical system on an elementary
    module Mc, one dict per basepoint, solved from the equivariance
    relations of the transvections; ``mods`` are the models of the
    lagrangians in the order of ``enumerate_lagrangians``.

    For g and j, with t = g j and b = g B, equivariance reads
    c_t = sign * mu * delta_b * c_j * c_b: mu is the proportionality of the
    transport of T_LB[j] along g, GP_j @ T_LB[j] @ GP_B^(-1), and the
    product T_LB[t] @ T_LB[b]^H, and sign the change of the two lifts.  As
    a monomial c_t * c_j^(-1) * c_b^(-1) its exponents are summed per index
    (t == j cancels, j == b gives -2); a relation with exactly one unknown,
    of exponent +1 or -1, determines it.  The relations are scanned pass
    after pass, transvection by transvection, until every scalar is known.
    The images, transports and lift signs, which do not depend on the
    basepoint, are computed once for all basepoints.
    """
    Mc = mods[0].H.base
    lags = [V.lag for V in mods]
    key_index = {L.key(): i for i, L in enumerate(lags)}
    gs = transvections(Mc)[1:]

    @lru_cache(maxsize=None)
    def image(k, j):
        return key_index[gs[k].on_subgroup(lags[j].sub).key()]

    @lru_cache(maxsize=None)
    def transport(k, j):
        """GP_j along g_k, and the lift sign of g_k on lagrangian j."""
        g = gs[k]
        return (g_transport(g, mods[j], mods[image(k, j)]),
                act_enhanced(g, EnhLag(lags[j], 1)).eps)

    return [_propagate(mods, B, len(gs), image, transport) for B in basepoints]


def _propagate(mods, B, count, image, transport):
    """The scalars of ``propagated_scalars`` at basepoint B, from ``count``
    transvections."""
    T_LB, delta, _inters = standard_pairs(mods, B)
    Mc = mods[0].H.base
    c = {B: CycNum.one(Mc.n if Mc.group.rank else 1)}
    one = CycNum.one(1)
    while len(c) < len(mods):
        known = len(c)
        for k in range(count):
            b = image(k, B)
            GPB, sign_B = transport(k, B)
            for j in range(len(mods)):
                t = image(k, j)
                expo = {t: 1}
                expo[j] = expo.get(j, 0) - 1
                expo[b] = expo.get(b, 0) - 1
                unknown = [i for i, e in expo.items() if e and i not in c]
                if len(unknown) != 1 or abs(expo[unknown[0]]) != 1:
                    continue
                u = unknown[0]
                GP, sign = transport(k, j)
                moved = GP.apply_left(GPB.inverse().apply_right(
                    T_LB[j].to_dense()))
                mu = proportionality(moved,
                                     phase_product(T_LB[t], T_LB[b],
                                                   one).to_dense())
                if mu is None:
                    raise SolveError("equivariance relation of transvection "
                                     "%d on lagrangian %d is not a "
                                     "proportionality" % (k, j))
                val = sign * sign_B * mu * delta[b]
                for i, e in expo.items():
                    if i != u and e:
                        val = val * c[i] ** -e
                c[u] = val ** expo[u]
                if len(c) == len(mods):
                    return c
        if len(c) == known:
            raise SolveError("the relations leave %d scalars undetermined"
                             % (len(mods) - len(c)))
    return c


def dense_phase_product(a, b, scale):
    """scale * (a @ b^H) for phase matrices a and b as a dense matrix: each
    entry's sum of packed rotations unpacked into one CycNum at
    N = lcm(scale.n, n), and one zero of N wherever the two rows share no
    column or the sum cancels."""
    n = lcm(a.n, b.n)
    s, t = n // a.n, n // b.n
    rots = [mul_root(scale, n, d).num for d in range(n)]
    w = (a.cols * max(abs(c) for rot in rots for c in rot)).bit_length() + 2
    places = range(0, w * len(rots[0]), w)
    half, low = 1 << (w - 1), (1 << w) - 1
    offset = sum(half << q for q in places)
    packed = [sum(map(lshift, rot, places)) for rot in rots]
    N = lcm(scale.n, n)
    zero = CycNum.zero(N)
    out = []
    for row in a.rows:
        xs = {k: s * x for k, x in row}
        new = []
        for row_b in b.rows:
            terms = [packed[xs[k] - t * y] for k, y in row_b if k in xs]
            if acc := sum(terms):
                acc += offset
                new.append(CycNum(N, [((acc >> q) & low) - half
                                      for q in places], scale.den))
            else:
                new.append(zero)
        out.append(new)
    return out


def is_identity(g):
    """Whether the automorphism g is the identity.  g.mat holds reduced
    rows, so an order-1 summand's unit is 0 there."""
    group = g.module.group
    return g.mat == tuple(group.reduce(e) for e in group.basis())


def flip(point):
    """The enhanced point with the other lift datum."""
    return EnhLag(point.lag, -point.eps)


def primary_embed(H, Hp, embed, hp):
    """Map an element of a primary Heisenberg factor into H.

    The center maps by zeta_{p^r} = zeta_n^(n/p^r); the cocycles agree
    because both half-forms are the inverse of 2 in their rings.
    """
    mp, ap = hp
    M = H.base
    m = M.group.zero()
    for coord, gen in zip(mp, embed):
        m = M.group.add(m, M.group.scale(coord, gen))
    scale = H.n // Hp.n if Hp.n else H.n
    return (m, (ap * scale) % H.n)


def central_lift(red, hc):
    """The subgroup embedding H_c -> H^S/S of the reduction ``red``,
    choosing the canonical section on the module part."""
    mc, b = hc
    return (red.section(mc), (b * (red.M.n // red.p)) % red.M.n)


def transvections_from_every_vector(M):
    """``transvections(M)`` from every nonzero v and every lam: the
    identity, then the distinct transvections sorted by key."""
    seen = {}
    for v in M.group.elements():
        if not any(v):
            continue
        for lam in range(1, M.n):
            t = transvection(M, v, lam)
            seen.setdefault(t.key(), t)
    return [identity_aut(M)] + [seen[k] for k in sorted(seen.keys())]


def transvections_per_pair(M):
    """``transvections(M)`` as it was made before its rows were written
    directly: one ``transvection`` automorphism per vector up to sign and
    per lam, the distinct ones sorted by key after the identity."""
    orders = M.group.orders
    seen = {}
    for v in M.group.elements():
        if not any(v) or tuple(-x % d for x, d in zip(v, orders)) < v:
            continue
        for lam in range(1, M.n):
            t = transvection(M, v, lam)
            seen.setdefault(t.key(), t)
    return [identity_aut(M)] + [seen[k] for k in sorted(seen.keys())]


def sp_enumerate_validated(M):
    """``sp_enumerate(M)`` in rank 2 by brute force: every 2x2 matrix over
    Z/n that passes ``SympAut.validate``, sorted by key."""
    out = []
    for entries in itertools.product(range(M.n), repeat=4):
        try:
            out.append(SympAut(M, [entries[:2], entries[2:]]))
        except SymplecticError:
            continue
    return sorted(out, key=lambda g: g.key())


def sp_sample_by_compose(M, seed, count):
    """``sp_sample(M, seed, count)`` as a product of automorphisms: each
    step composes with a fresh ``transvection``, the same draws in the
    same order."""
    rng = random.Random(seed)
    nonzero = [v for v in M.group.elements() if any(v)]
    out = []
    for _ in range(count):
        g = identity_aut(M)
        if nonzero:
            for _ in range(8):
                v = nonzero[rng.randrange(len(nonzero))]
                lam = rng.randrange(1, M.n) if M.n > 1 else 0
                g = g.compose(transvection(M, v, lam))
        out.append(g)
    return out


def radical_with_branches(group, gram, n):
    """The radical of the Z/n pairing ``gram`` on ``group``, as
    ``SympMod.radical`` made it before ``kernel_subgroup``: the zero
    subgroup at rank 0."""
    m = group.rank
    if m == 0:
        return zero_subgroup(group)
    cols = [[gram[i][j] for j in range(m)] for i in range(m)]
    ker = intlin.stacked_kernel_mod(cols, n)
    return subgroup_from_gens(group, [group.reduce(row) for row in ker])


def orth_complement_with_branches(M, S):
    """S^perp as ``orth_complement`` made it before ``kernel_subgroup``:
    the whole group when S = 0 or at rank 0."""
    gens = S.gens()
    if not gens or M.group.rank == 0:
        return subgroup_from_gens(M.group, M.group.basis())
    cols = [[M.pair(e, g) for g in gens] for e in M.group.basis()]
    ker = intlin.stacked_kernel_mod(cols, M.n)
    return subgroup_from_gens(M.group, [M.group.reduce(r) for r in ker])


def lift_by_powers(x, m):
    """x at conductor m (x.n | m), as ``CycNum.lift`` made it before it
    went through ``mul_root``: the coefficient of zeta_(x.n)^t moved to
    zeta_m^(t m / x.n) by ``from_powers``, which normalizes again."""
    if m == x.n:
        return x
    return from_powers(m, zip(range(0, m, m // x.n), x.num), x.den)
