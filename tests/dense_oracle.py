"""Dense reference computations that the library itself no longer runs.

The library takes each delta as the subgroup index [L : L cap B]; the
oracle forms the composite of the two standard intertwiners and reads its
scalar off the matrix.  The library lifts the canonical system from M_c by
reusing its scalars; the oracle matches each lifted operator through tau.
"""

from heisenrep.cyclo import CycNum, root_of_unity
from heisenrep.heisenberg import HeisGrp, induce
from heisenrep.intertwine import SolveError, standard_T
from heisenrep.kmat import mat_mul, proportionality


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
