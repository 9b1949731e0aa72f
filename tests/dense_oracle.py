"""Dense reference computations that the library itself no longer runs.

The library takes each delta as the subgroup index [L : L cap B]; the
oracle forms the composite of the two standard intertwiners and reads its
scalar off the matrix.
"""

from heisenrep.cyclo import CycNum
from heisenrep.heisenberg import HeisGrp, induce
from heisenrep.intertwine import SolveError, standard_T
from heisenrep.kmat import mat_mul


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
