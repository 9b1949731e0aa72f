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
"""

from math import lcm

from heisenrep import intlin
from heisenrep.cyclo import CycNum, in_subfield, root_of_unity, sqrt_prime
from heisenrep.heisenberg import HeisGrp, induce
from heisenrep.intertwine import SolveError, standard_T
from heisenrep.kmat import mat_mul, proportionality
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


def composition_scalar(lag_a, lag_b, H=None):
    """The scalar d with T_{A,B} o T_{B,A} = d * id."""
    if H is None:
        H = HeisGrp(lag_a.module)
    Va = induce(H, lag_a)
    Vb = induce(H, lag_b)
    T_ba = standard_T(Vb, Va)
    T_ab = standard_T(Va, Vb)
    prod = mat_mul(T_ab.matrix, T_ba.matrix)
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
        image = mat_mul(lifted.T_LB[i], tau_B)
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
