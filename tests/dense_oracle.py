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
The library counts intertwiner dimensions by walking the orbits of the
generator maps; the oracle joins the unknowns in a union-find with
root-of-unity ratios.  The library multiplies only the nonzero entries of
b in a proportionality; the oracle multiplies every entry.
The library holds each standard intertwiner as a phase matrix, one
root of unity per entry from one coset; the oracle counts the exponents of
every entry in a dim x dim x n cube and reduces each entry through
``from_powers``.  The library compares a transported intertwiner with the
product t @ b^H entry by entry on packed integers; the oracle forms the
product densely and compares ``CycNum`` entries.
"""

from math import lcm

from heisenrep import intlin
from heisenrep.abgroup import subgroup_intersect
from heisenrep.cyclo import (
    CycNum,
    from_powers,
    in_subfield,
    mul_root,
    root_of_unity,
    sqrt_prime,
)
from heisenrep.heisenberg import HeisGrp, induce
from heisenrep.intertwine import SolveError
from heisenrep.kmat import GenPerm, mat_mul, proportionality
from heisenrep.symplectic import SympAut, SymplecticError


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


def hom_dim_union_find(V, W):
    """Dimension of the space of H-intertwiners V -> W: the two-term
    intertwining equations X[permW[k]][permV[b]] * zeta^expV[b] =
    zeta^expW[k] * X[k][b] joined in a ratio-tracking union-find."""
    dv, dw = V.dim, W.dim
    n = V.H.n
    uf = _RatioUnionFind(dv * dw, n)
    for (permV, expV), (permW, expW) in zip(V.generator_parts(),
                                            W.generator_parts()):
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
