import hashlib
import json
import random
import re
from math import lcm

import dense_oracle
import pytest
from dense_oracle import (
    anchored_entries_in_field,
    composition_scalar,
    dense_phase_product,
    dense_standard_T,
    hom_dim_union_find,
    hom_dim_walk,
    kernel_of,
    operator_from_kernel,
    propagated_scalars,
    proportionality_full,
    scalar_of,
    table_parts,
)
from helpers import (
    DirectSum,
    check_inverse_symmetry,
    conj_transpose,
    one_zero,
    shared_zeros,
    zero_sharing,
)
from test_symplectic import FP_MODULES

from heisenrep.abgroup import subgroup_intersect
from heisenrep.cyclo import CycNum, root_of_unity, sqrt_prime, in_subfield
from heisenrep.heisenberg import (
    HeisGrp,
    InducedModule,
    g_transport,
    induce,
    point_table,
)
from heisenrep.intertwine import (
    KEPT_COLUMN_ENTRIES,
    SolveError,
    canonical_scalar,
    hom_dim,
    solve_canonical_system,
    standard_T,
    standard_pairs,
)
from heisenrep.kmat import (
    Packed,
    identity,
    mat_eq,
    mat_mul,
    phase_product,
    proportionality,
    scalar_mul,
)
from heisenrep.symplectic import (
    SympMod,
    SymplecticError,
    enumerate_lagrangians,
    sp_sample,
    standard_module,
)
from heisenrep.verify import check_system_axioms


def exact(mat):
    return [[(x.n, x.num, x.den) for x in row] for row in mat]


@pytest.fixture(scope="module")
def setup3():
    M = standard_module([(3, 1)])
    H = HeisGrp(M)
    lags = enumerate_lagrangians(M)
    mods = [induce(H, L) for L in lags]
    return M, H, lags, mods


def _index_of(lags, vec):
    return next(i for i, L in enumerate(lags) if L.sub.contains(vec))


def test_standard_T_identity(setup3):
    _M, _H, lags, mods = setup3
    for V in mods:
        T = standard_T(V, V).to_dense()
        assert mat_eq(T, identity(V.dim, 3))


def test_standard_T_is_fourier_on_transverse_pair(setup3):
    M, H, lags, mods = setup3
    bi = _index_of(lags, (1, 0))
    yi = _index_of(lags, (0, 1))
    T = standard_T(mods[yi], mods[bi]).to_dense()
    # oracle: the finite Fourier matrix (zeta^(-xt)) in the transverse-pair
    # coordinates, derived by unwinding the averaging sum by hand
    z = root_of_unity(3)
    expect = [[(z ** ((-x * t) % 3)) for t in range(3)] for x in range(3)]
    assert mat_eq(T, expect)


def test_standard_T_intertwines_all_elements(setup3):
    M, H, lags, mods = setup3
    for i in range(4):
        for j in range(4):
            T = standard_T(mods[i], mods[j]).to_dense()
            for h in H.elements():
                lhs = mat_mul(T, mods[j].rho(h))
                rhs = mat_mul(mods[i].rho(h), T)
                assert mat_eq(lhs, rhs)


class _OneColumn:
    """V with ``locate`` putting every point in column 0."""

    def __init__(self, V):
        self.dim, self.lag, self._locate = V.dim, V.lag, V.locate

    def locate(self, y):
        return 0, self._locate(y)[1]


def test_standard_T_refuses_two_cosets_in_one_entry(setup3):
    _M, _H, lags, mods = setup3
    bi = _index_of(lags, (1, 0))
    yi = _index_of(lags, (0, 1))
    # N cap L = 0, so each row sums over three cosets
    with pytest.raises(SolveError, match=r"entry \(0, 0\)"):
        standard_T(mods[yi], _OneColumn(mods[bi]))


def test_hom_dim_examples(setup3):
    _M, _H, lags, mods = setup3
    for V in mods:
        assert hom_dim(V, V) == 1
    for i in range(4):
        for j in range(4):
            assert hom_dim(mods[i], mods[j]) == 1
    doubled = DirectSum([mods[0], mods[0]])
    assert hom_dim(mods[0], doubled) == 2
    assert hom_dim_walk(doubled, doubled) == 4


def _lagrangian_models(M):
    H = HeisGrp(M)
    return [induce(H, L) for L in enumerate_lagrangians(M)]


def _system_models(blocks):
    """The modules of the canonical system on M: elementary, or lifted from
    M_c when M is not elementary."""
    from heisenrep.reduction import ReductionData, lift_canonical_system

    red = ReductionData(standard_module(blocks))
    sys_c = solve_canonical_system(red.Mc, verify="none")
    return lift_canonical_system(red, sys_c).modules


def _doubles():
    V = _lagrangian_models(standard_module([(3, 1)]))[0]
    return [V, DirectSum([V, V])]


class _ShiftedCenter:
    """V with its central generator acting by zeta_n^(a + 1) where V has
    zeta_n^a: its central character differs from V's, so no nonzero
    intertwiner joins the two."""

    def __init__(self, V):
        self.H, self.dim = V.H, V.dim
        *tables, _center = V.generator_tables()
        perm, expo = table_parts(V)[-1]
        self.tables = tables + [point_table(perm, [e + 1 for e in expo],
                                            V.H.n)]

    def generator_tables(self):
        return self.tables


HOM_DIM_MODELS = {
    "Z3^2": lambda: _lagrangian_models(standard_module([(3, 1)])),
    "Z5^2": lambda: _lagrangian_models(standard_module([(5, 1)])),
    "Z3^4": lambda: _lagrangian_models(standard_module([(3, 2)])),
    "orders-3-3-1": lambda: _lagrangian_models(SympMod.from_json(
        {"orders": [3, 3, 1], "gram": [[0, 1, 0], [2, 0, 0], [0, 0, 0]]})),
    "lifted-Z27^2": lambda: _system_models([(27, 1)]),
    "lifted-Z9^2+Z3^2": lambda: _system_models([(9, 1), (3, 1)]),
    "doubles": _doubles,
}


@pytest.mark.parametrize("name", list(HOM_DIM_MODELS))
def test_hom_dim_matches_union_find(name):
    """On every ordered pair the walk agrees with the union-find, and so
    does ``hom_dim`` where the source is a lagrangian model."""
    mods = HOM_DIM_MODELS[name]()
    for V in mods:
        for W in mods:
            expected = hom_dim_union_find(V, W)
            assert hom_dim_walk(V, W) == expected
            if isinstance(V, InducedModule):
                assert hom_dim(V, W) == expected


def test_hom_dim_matches_the_oracles_on_sampled_pairs():
    mods = _lagrangian_models(standard_module([(9, 1), (3, 1)]))
    assert len(mods) == 148
    rng = random.Random(26)
    for _ in range(300):
        V, W = rng.choice(mods), rng.choice(mods)
        assert hom_dim(V, W) == hom_dim_walk(V, W) == hom_dim_union_find(V, W)


def test_hom_dim_zero_for_another_central_character(setup3):
    _M, _H, _lags, mods = setup3
    V = mods[0]
    shifted = _ShiftedCenter(V)
    assert hom_dim(V, shifted) == hom_dim_union_find(V, shifted) == 0
    assert hom_dim_walk(shifted, V) == 0
    assert hom_dim_walk(shifted, shifted) == 1


def test_hom_dim_refuses_a_source_without_a_lagrangian(setup3):
    _M, _H, _lags, mods = setup3
    doubled = DirectSum([mods[0], mods[0]])
    with pytest.raises(SolveError, match="source DirectSum has no lagrangian"):
        hom_dim(doubled, mods[0])
    with pytest.raises(SolveError, match="source _ShiftedCenter has no"):
        hom_dim(_ShiftedCenter(mods[0]), mods[0])


def _tampered_source(H, lag, parts):
    """A fresh model over ``lag`` whose generator matrices are
    ``parts(table_parts(V))``."""
    V = induce(H, lag)
    V._generator_tables = [point_table(perm, expo, H.n)
                           for perm, expo in parts(table_parts(V))]
    return V


def test_hom_dim_refuses_a_word_that_moves_column_0(setup3):
    _M, H, lags, mods = setup3
    # the words of lags[0] read on the matrices of the model over lags[1]
    V = _tampered_source(H, lags[0], lambda _: table_parts(mods[1]))
    (l,) = lags[0].sub.gens()
    with pytest.raises(SolveError, match=r"word of %s moves column 0 of the "
                       r"source to column [12]$" % re.escape(repr(l))):
        hom_dim(V, mods[0])


def test_hom_dim_refuses_generators_that_do_not_reach_every_column(setup3):
    _M, H, lags, mods = setup3

    def fixed(parts):
        *gens, center = parts
        return [(list(range(len(p))), e) for p, e in gens] + [center]

    with pytest.raises(SolveError, match="do not reach column 1 from column 0"):
        hom_dim(_tampered_source(H, lags[0], fixed), mods[0])


def test_hom_dim_refuses_a_center_that_moves_column_0(setup3):
    _M, H, lags, mods = setup3

    def swapped(parts):
        *gens, (perm, expo) = parts
        return gens + [([perm[1], perm[0]] + perm[2:], expo)]

    with pytest.raises(SolveError, match="central generator moves column 0 "
                       "of the source to column 1$"):
        hom_dim(_tampered_source(H, lags[0], swapped), mods[0])


def test_composition_scalar(setup3):
    M, H, lags, mods = setup3
    bi = _index_of(lags, (1, 0))
    yi = _index_of(lags, (0, 1))
    assert composition_scalar(lags[bi], lags[bi], H) == 1
    assert composition_scalar(lags[yi], lags[bi], H) == 3
    M5 = standard_module([(5, 1)])
    lags5 = enumerate_lagrangians(M5)
    a = next(L for L in lags5 if L.sub.contains((1, 0)))
    b = next(L for L in lags5 if L.sub.contains((0, 1)))
    assert composition_scalar(a, b, HeisGrp(M5)) == 5


@pytest.mark.parametrize("blocks", [[(3, 1)], [(3, 2)], [(27, 1)],
                                    [(9, 1), (3, 1)]])
def test_delta_is_dense_composite_at_every_basepoint(blocks):
    mods = _system_models(blocks)
    for B in range(len(mods)):
        T_LB, delta, _inters = standard_pairs(mods, B)
        for i, V in enumerate(mods):
            # the map back, built by averaging, not as the adjoint
            T_BL = standard_T(mods[B], V)
            dense = scalar_of(mat_mul(T_BL.to_dense(), T_LB[i].to_dense()))
            assert dense is not None
            assert (delta[i].n, delta[i].num, delta[i].den) == \
                (dense.n, dense.num, dense.den), (B, i)


def _adjoint_pairs(blocks, basepoints=None):
    """(standard_T(V, mods[B]), standard_T(mods[B], V)) as dense matrices
    over the modules of the system on M."""
    mods = _system_models(blocks)
    for B in (range(len(mods)) if basepoints is None else basepoints):
        for V in mods:
            yield (standard_T(V, mods[B]).to_dense(),
                   standard_T(mods[B], V).to_dense())


# every basepoint of the rank-2 ladder and of the lifted systems, and
# basepoints 0-2 of (Z/3)^4
SYSTEM_BASEPOINTS = [
    ([(3, 1)], None), ([(5, 1)], None), ([(7, 1)], None), ([(11, 1)], None),
    ([(3, 2)], range(3)), ([(27, 1)], None), ([(9, 1), (3, 1)], None),
]


@pytest.mark.parametrize("blocks, basepoints", SYSTEM_BASEPOINTS)
def test_map_back_is_the_conjugate_transpose(blocks, basepoints):
    for T_LB, T_BL in _adjoint_pairs(blocks, basepoints):
        adjoint = [[T_LB[i][j].conj() for i in range(len(T_LB))]
                   for j in range(len(T_LB[0]))]
        assert exact(T_BL) == exact(adjoint)


def _phase_family(blocks, basepoints):
    """(mods, B, [standard_T(V, mods[B]) for V in mods]) per basepoint."""
    mods = _system_models(blocks)
    for B in (range(len(mods)) if basepoints is None else basepoints):
        yield mods, B, [standard_T(V, mods[B]) for V in mods]


@pytest.mark.parametrize("blocks, basepoints", SYSTEM_BASEPOINTS)
def test_standard_T_matches_the_dense_oracle(blocks, basepoints):
    for mods, B, T_LB in _phase_family(blocks, basepoints):
        for V, T in zip(mods, T_LB):
            for phase, dense in ((T, dense_standard_T(V, mods[B])),
                                 (standard_T(mods[B], V),
                                  dense_standard_T(mods[B], V))):
                got = phase.to_dense()
                assert exact(got) == exact(dense)
                assert shared_zeros(got)


@pytest.mark.parametrize("blocks, basepoints", SYSTEM_BASEPOINTS)
def test_phase_products_match_the_dense_products(blocks, basepoints):
    for mods, B, T_LB in _phase_family(blocks, basepoints):
        dense = [T.to_dense() for T in T_LB]
        count = len(mods)
        # conductors 1, 3 (a solved scalar's shape) and 4 (not dividing n)
        for scale in (CycNum.one(1), (1 + 2 * root_of_unity(3)) / 3,
                      root_of_unity(4) / 2 - 1):
            for i in range(count):
                pairs = {i, B, (i + 1) % count} if scale == 1 else {i + 1}
                for j in (j % count for j in pairs):
                    got = phase_product(T_LB[i], T_LB[j], scale).to_dense()
                    want = scalar_mul(scale, mat_mul(
                        dense[i], conj_transpose(dense[j], len(dense[j][0]))))
                    assert mat_eq(got, want), (B, i, j)
                    assert one_zero(got, lcm(scale.n, T_LB[i].n)), (B, i, j)
                    old = dense_phase_product(T_LB[i], T_LB[j], scale)
                    assert exact(got) == exact(old)
                    assert zero_sharing(got) == zero_sharing(old)
            for T, D in list(zip(T_LB, dense))[B:B + 2]:
                assert exact(T.scaled(scale)) == exact(scalar_mul(scale, D))


# the construct ladder of the benchmark (the lifted (Z/27)^2 and
# (Z/9)^2+(Z/3)^2 among it) and (Z/5)^4
CONDUCTOR_BLOCKS = [[(3, 1)], [(5, 1)], [(7, 1)], [(11, 1)], [(3, 2)],
                    [(27, 1)], [(9, 1), (3, 1)], [(3, 1), (5, 1)], [(5, 2)]]


def _json_conductors(obj):
    """The conductors of the matrix entry forms in an export."""
    if isinstance(obj, dict):
        if "coeffs" in obj:
            return {obj["conductor"]}
        return set().union(*map(_json_conductors, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_json_conductors, obj))
    return set()


@pytest.mark.parametrize("blocks", CONDUCTOR_BLOCKS, ids=repr)
def test_pairs_and_anchored_maps_sit_at_the_system_conductor(blocks):
    """On every solved and lifted system: the pairs are at the system's
    conductor (``_scales()[1]``); each dense pair and anchored map has
    every entry at that conductor and its zeros as one object; and every
    entry of the export (anchored maps and pair table) is at it."""
    from heisenrep.canonrep import build_pi

    pi = build_pi(standard_module(blocks), system_verify="none")
    reps = getattr(pi, "parts", None)
    reps = [pi] if reps is None else [rep for (*_, rep) in reps]
    for sys in {id(s): s for rep in reps
                for s in (rep.system_c, rep.system)}.values():
        N, count = sys.conductor, sys.count
        assert N == sys.module.n
        assert sys._scales()[1] == N
        some = sorted({0, 1 % count, sys.base_index, count // 2, count - 1})
        for i in some:
            for j in some:
                for e, f in ((1, 1), (1, -1), (-1, 1)):
                    op = sys.operator((i, e), (j, f))
                    assert one_zero(op, N), (i, e, j, f)
                    assert sys.pair((i, e), (j, f)).n == N
        for i in range(count):
            for e in (1, -1):
                assert one_zero(sys.anchored(i, e), N), (i, e)
        assert _json_conductors(sys.export()) == {N}


@pytest.mark.parametrize("blocks", [[(3, 1)], [(5, 1)], [(9, 1), (3, 1)]],
                         ids=["3^2", "5^2", "9^2+3^2"])
def test_pairs_with_kept_columns_match_fresh_phase_products(blocks):
    """Every pair (i, j), built with the column ints of T_LB[j] that the
    system keeps under None, has the row ints, masks, width and conductor
    of a fresh ``phase_product`` of the same operands at ``pair_width`` (the
    identity at i == j); emptying the pair cache drops the columns."""
    from heisenrep.canonrep import build_pi

    sys = build_pi(standard_module(blocks), system_verify="none").system
    sys._pair_cache.clear()
    w, N = sys.pair_width(), sys.conductor
    for i in range(sys.count):
        for j in range(sys.count):
            got = sys.pair((i, 1), (j, 1))
            want = Packed.identity(sys.modules[i].dim, N, w) if i == j else \
                phase_product(sys.T_LB[i], sys.T_LB[j],
                              sys.c[i] / (sys.c[j] * sys.delta[j]), w)
            assert (got.rows, got.masks, got.width, got.n, got.den) == (
                want.rows, want.masks, want.width, want.n, want.den), (i, j)
    columns = sys._scales()[-1]
    assert set(columns) == set(range(sys.count)) and sys.count > 1
    sys._pair_cache.clear()
    assert sys._pair_cache == {}
    assert all(value is not columns for value in vars(sys).values())
    fresh = sys._scales()[-1]
    assert fresh == {} and fresh is not columns


def test_kept_columns_stay_within_their_entry_bound():
    """On (Z/5)^4 (156 lagrangians of dimension 25) the system keeps the
    column ints of the first KEPT_COLUMN_ENTRIES / 25^2 right factors it
    meets, and a pair through a right factor it did not keep is the fresh
    ``phase_product`` all the same."""
    from heisenrep.canonrep import build_pi

    sys = build_pi(standard_module([(5, 2)]), system_verify="none").system
    dim, last = sys.modules[0].dim, sys.count - 1
    for j in range(1, sys.count):
        sys.pair((0, 1), (j, 1))
    kept = KEPT_COLUMN_ENTRIES // dim ** 2
    assert sorted(sys._scales()[-1]) == list(range(1, kept + 1)) and kept < last
    got = sys.pair((0, 1), (last, 1))
    want = phase_product(sys.T_LB[0], sys.T_LB[last],
                         sys.c[0] / (sys.c[last] * sys.delta[last]),
                         sys.pair_width())
    assert (got.rows, got.masks, got.n) == (want.rows, want.masks, want.n)


@pytest.mark.parametrize("blocks, basepoints", SYSTEM_BASEPOINTS)
def test_transport_and_proportionality_match_the_dense_ones(blocks, basepoints):
    """The equivariance relation on dense matrices: for g and j with
    t = g j and b = g B, the transport of T_LB[j] along g (the
    ``g_transport`` GenPerms applied on each side) is mu times
    T_LB[t] T_LB[b]^H, and not proportional to T_LB[t'] T_LB[b]^H for the
    other lagrangians t'; the guard gives the value and conductor of the
    every-entry one."""
    refused = 0
    for mods, B, T_LB in _phase_family(blocks, basepoints):
        keys = {V.lag.sub.key(): i for i, V in enumerate(mods)}
        one = CycNum.one(1)
        for g in sp_sample(mods[0].H.base, 7, 2):
            b = keys[g.on_subgroup(mods[B].lag.sub).key()]
            GPBinv = g_transport(g, mods[B], mods[b]).inverse()
            for j, T in enumerate(T_LB):
                t = keys[g.on_subgroup(mods[j].lag.sub).key()]
                GP = g_transport(g, mods[j], mods[t])
                dense = GP.apply_left(GPBinv.apply_right(T.to_dense()))
                for u in (t, (t + 1) % len(mods)):
                    prod = phase_product(T_LB[u], T_LB[b], one).to_dense()
                    got = proportionality(dense, prod)
                    want = proportionality_full(dense, prod)
                    assert (got is None) == (want is None)
                    if u == t:
                        assert got is not None
                        assert exact([[got]]) == exact([[want]])
                    refused += got is None
    assert refused or len(mods) == 1


def _tampered(a):
    """Dense matrices near a: its first nonzero entry x negated, x
    dropped, x copied to a zero entry of its row, and its row rotated by one
    column where that changes the row."""
    r, k = next((r, k) for r, row in enumerate(a)
                for k, x in enumerate(row) if not x.is_zero())
    row = a[r]
    x = row[k]
    changes = [row[:k] + [-x] + row[k + 1:],
               row[:k] + [CycNum.zero(x.n)] + row[k + 1:]]
    free = next((c for c, y in enumerate(row) if y.is_zero()), None)
    if free is not None:
        changes.append(row[:free] + [x] + row[free + 1:])
    rotated = row[-1:] + row[:-1]
    if rotated != row:
        changes.append(rotated)
    return [a[:r] + [change] + a[r + 1:] for change in changes]


@pytest.mark.parametrize("blocks", [[(3, 1)], [(5, 1)], [(7, 1)], [(11, 1)],
                                    [(3, 2)]])
def test_solver_relations_match_the_dense_guard(monkeypatch, blocks):
    """Every relation the oracle solver reads on the elementary ladder
    modules gives the scalar (value and conductor) of the every-entry
    guard, and every tampered transport is refused by both."""
    guard = dense_oracle.proportionality
    seen = []

    def checked(a, b):
        got = guard(a, b)
        want = proportionality_full(a, b)
        assert got is not None and exact([[got]]) == exact([[want]])
        for bad in _tampered(a):
            assert guard(bad, b) is None
            assert proportionality_full(bad, b) is None
        seen.append(got)
        return got

    monkeypatch.setattr(dense_oracle, "proportionality", checked)
    [c] = propagated_scalars(_lagrangian_models(standard_module(blocks)))
    assert len(seen) >= len(c) - 1


def test_doubled_delta_fails_transitivity():
    M = standard_module([(3, 1)])
    sys = solve_canonical_system(M, verify="none")
    sys.delta[1] = sys.delta[1] * 2
    report = check_system_axioms(sys, level="light", seed=0)
    assert not report.ok()
    failed = [name for (name, passed, _detail) in report.checks if not passed]
    assert "transitivity over enhanced triples" in failed


def test_solver_d0_trivial_module():
    from heisenrep.abgroup import AbGroup
    from heisenrep.symplectic import SympMod

    M0 = SympMod(AbGroup(()), [])
    sys0 = solve_canonical_system(M0, verify="none")
    assert sys0.count == 1
    assert mat_eq(sys0.operator((0, 1), (0, 1)), identity(1, sys0.conductor))
    assert mat_eq(sys0.operator((0, 1), (0, -1)),
                  scalar_mul(CycNum.rational(-1), identity(1, sys0.conductor)))


def test_solver_full_axioms_z3():
    M = standard_module([(3, 1)])
    sys = solve_canonical_system(M, verify="none")
    report = check_system_axioms(sys, level="full")
    assert report.ok(), report.text()
    assert check_inverse_symmetry(sys)


def test_solver_scalars_z3_frozen():
    # the anchored scalars are the gauss-sum normalizations +-g_3 / 3,
    # forced by the fixed-lagrangian cancellation constraints
    M = standard_module([(3, 1)])
    sys = solve_canonical_system(M, verify="none")
    g3 = 1 + 2 * root_of_unity(3)
    vals = sorted(str(sys.c[i]) for i in range(4))
    assert str(CycNum.one(1)) in vals
    others = [sys.c[i] for i in range(4) if sys.c[i] != 1]
    assert all(v == g3 / 3 or v == -g3 / 3 for v in others)


def test_solver_transverse_pair_product_is_one_third():
    M = standard_module([(3, 1)])
    sys = solve_canonical_system(M, verify="none")
    lags = sys.lags
    bi = _index_of(lags, (1, 0))
    yi = _index_of(lags, (0, 1))
    # F_{L0,N0} = c(L0,N0) T_{L,N}: extract both normalizations and multiply
    from heisenrep.kmat import proportionality

    VB, VY = sys.modules[bi], sys.modules[yi]
    T_yb = standard_T(VY, VB).to_dense()
    T_by = standard_T(VB, VY).to_dense()
    c1 = proportionality(sys.operator((yi, 1), (bi, 1)), T_yb)
    c2 = proportionality(sys.operator((bi, 1), (yi, 1)), T_by)
    assert c1 is not None and c2 is not None
    assert c1 * c2 == CycNum.rational(1) / 3


def test_solver_entries_in_K_and_in_Qp():
    # all entries lie in K = Q(mu_3, sqrt 3); this build's normalization
    # lands them in Q(mu_3) already (the gauss sum is i sqrt 3)
    M = standard_module([(3, 1)])
    sys = solve_canonical_system(M, verify="none")
    z3 = root_of_unity(3)
    s3 = sqrt_prime(3)
    for i in range(sys.count):
        for row in sys.anchored(i):
            for x in row:
                assert in_subfield(x, [z3, s3])
                assert x.descend(12) is not None
    table = sys.pair_table_json()
    for key, mat in table["pairs"].items():
        for row in mat:
            for entry in row:
                value = CycNum.from_json(entry)
                assert in_subfield(value, [z3, s3])


IN_FIELD_SYSTEMS = {
    "solved-3^2": [(3, 1)],
    "solved-5^2": [(5, 1)],
    "solved-7^2": [(7, 1)],
    "solved-3^4": [(3, 2)],
    "lifted-27^2": [(27, 1)],
    "lifted-9^2+3^2": [(9, 1), (3, 1)],
    "lifted-orders-3-3-1": None,
}


@pytest.mark.parametrize("name", list(IN_FIELD_SYSTEMS))
def test_entries_in_field_matches_the_entry_sweep(name):
    from heisenrep.canonrep import build_pi
    from heisenrep.symplectic import SympMod

    blocks = IN_FIELD_SYSTEMS[name]
    if blocks is None:
        M = SympMod.from_json({"orders": [3, 3, 1],
                               "gram": [[0, 1, 0], [2, 0, 0], [0, 0, 0]]})
    else:
        M = standard_module(blocks)
    if name.startswith("solved"):
        sys = solve_canonical_system(M, verify="none")
    else:
        pi = build_pi(M, system_verify="none")
        sys = pi.system
        assert sys is not pi.system_c
    assert sys.entries_in_field() is anchored_entries_in_field(sys) is True


def test_solver_basepoint_independence_z3():
    M = standard_module([(3, 1)])
    blobs = []
    for b in range(4):
        sys = solve_canonical_system(M, base_index=b, verify="none")
        blobs.append(json.dumps(sys.pair_table_json(), sort_keys=True).encode())
    assert all(x == blobs[0] for x in blobs)


def test_enhanced_index_of_a_point_outside_the_system():
    from heisenrep.abgroup import subgroup_from_gens
    from heisenrep.symplectic import EnhLag, Lagrangian

    M = standard_module([(3, 1)])
    sys = solve_canonical_system(M, verify="none")
    for i, L in enumerate(sys.enh_lags):
        assert sys.enhanced_index(EnhLag(L, -1)) == (i, -1)
    whole = Lagrangian(M, subgroup_from_gens(M.group, M.group.basis()),
                       validate=False)
    with pytest.raises(SolveError, match="not in the system"):
        sys.enhanced_index(EnhLag(whole, 1))


def test_solver_bad_basepoint():
    M = standard_module([(3, 1)])
    for base in (99, 4, -1):
        with pytest.raises(SymplecticError, match="index %d .* 4 lagrangians"
                           % base):
            solve_canonical_system(M, base_index=base)


def test_solver_refuses_an_unknown_verify_level(monkeypatch):
    """A verify level other than none, light or full raises ValueError
    naming them before the lagrangians are enumerated."""
    import heisenrep.intertwine as intertwine

    calls = []
    monkeypatch.setattr(intertwine, "enumerate_lagrangians",
                        lambda *args, **kw: calls.append(1))
    with pytest.raises(ValueError, match=r"'quick': expected none, light "
                       r"or full$"):
        solve_canonical_system(standard_module([(3, 1)]), verify="quick")
    assert calls == []


def scalar_digest(c):
    blob = json.dumps([[i, x.n, list(x.num), x.den]
                       for i, x in sorted(c.items())],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# SHA-256 of the solved scalars (i, conductor, numerators, denominator),
# recorded before the lagrangian images were computed on demand
SCALAR_DIGESTS = [
    ([(3, 2)], 0,
     "3ecff53916cbcc3b134a9738350d65122a2562103dc5f6cc5015a17e8cb256b0"),
    ([(3, 2)], 7,
     "b2420c512c7be284e5ed9d48c2bebfe958693bece58c7cba3a806e0f8a4b7a13"),
    ([(3, 2)], 13,
     "35ec4255a788d98df045cfd4a5c0b18bc91e5210bf712f2d3e7bdc684f327b2f"),
    ([(3, 2)], 39,
     "05b17e743d48ae0d76938342bf8dae8f547810ab9f809db33554b2c2421e833c"),
    ([(7, 1)], 0,
     "98b2229a0bafcd5d0160aeb0153421483072018f208f724d33fced0582a992a7"),
    ([(7, 1)], 3,
     "3073d77c216da9a5d77bf2c72be655e98d9fca54cbf6954d19a28c04babfa61f"),
]


@pytest.mark.parametrize("blocks,base,digest", SCALAR_DIGESTS)
def test_solved_scalars_pinned(blocks, base, digest):
    sys = solve_canonical_system(standard_module(blocks), base_index=base,
                                 verify="none")
    assert scalar_digest(sys.c) == digest


def test_rank6_scalars_pinned():
    """(Z/3)^6 at basepoint 0, where k = dim L / (L cap B) reaches 3: the
    closed form over the 1,120 lagrangians, with no intertwiner built,
    gives the scalars that the propagation solver gave at 4a36dc2."""
    M = standard_module([(3, 3)])
    lags = enumerate_lagrangians(M)
    B = lags[0]
    c = {i: CycNum.one(3) if i == 0 else
         canonical_scalar(M, L, B, subgroup_intersect(L.sub, B.sub))
         for i, L in enumerate(lags)}
    assert scalar_digest(c) == (
        "802716ef1b5ba6f51b87d5805cf10261837cae1c7f21e2e6bab5d3219abab669")


# (module, basepoints): every basepoint, or two seeded ones of (Z/5)^4
DIFFERENTIAL = {
    "Z3^2": (standard_module([(3, 1)]), None),
    "Z5^2": (standard_module([(5, 1)]), None),
    "Z7^2": (standard_module([(7, 1)]), None),
    "Z11^2": (standard_module([(11, 1)]), None),
    "Z3^4": (standard_module([(3, 2)]), None),
    "Z5^2-gram": (FP_MODULES[-2], None),
    "Z3^4-gram": (FP_MODULES[-1], None),
    "Z5^4": (standard_module([(5, 2)]), random.Random(0).sample(range(156), 2)),
}


@pytest.mark.parametrize("name", list(DIFFERENTIAL))
def test_closed_form_matches_the_propagation_solver(name):
    """``canonical_scalar`` gives the scalars that the oracle propagates
    through the transvection relations, in value and conductor."""
    M, basepoints = DIFFERENTIAL[name]
    mods = _lagrangian_models(M)
    lags = [V.lag for V in mods]
    if basepoints is None:
        basepoints = range(len(mods))
    for B, want in zip(basepoints, propagated_scalars(mods, basepoints)):
        assert sorted(want) == list(range(len(mods)))
        assert exact([[want[B]]]) == exact([[CycNum.one(M.n)]])
        assert [exact([[canonical_scalar(
                    M, L, lags[B], subgroup_intersect(L.sub, lags[B].sub))]])
                for i, L in enumerate(lags) if i != B] == \
            [exact([[want[i]]]) for i in range(len(mods)) if i != B], B


def test_solver_intersects_each_lagrangian_with_the_basepoint_once(
        monkeypatch):
    """The scalars take L cap B from ``standard_pairs``, which computes it
    once per lagrangian for delta."""
    import heisenrep.intertwine as intertwine

    calls, real = [], intertwine.subgroup_intersect

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(intertwine, "subgroup_intersect", counted)
    sys = solve_canonical_system(standard_module([(3, 2)]), base_index=3,
                                 verify="none")
    assert len(calls) == sys.count == 40


def _fp_matches_standard_T(mods, B, sample=None):
    T_LB, _delta, _inters = standard_pairs(mods, B)
    for i in (range(len(mods)) if sample is None else sample):
        want = standard_T(mods[i], mods[B])
        assert (T_LB[i].rows, T_LB[i].cols, T_LB[i].n) == \
            (want.rows, want.cols, want.n), (B, i)


@pytest.mark.parametrize("name", ["Z3^2", "Z5^2", "Z7^2", "Z11^2", "Z3^4",
                                  "Z5^2-gram", "Z3^4-gram"])
def test_fp_standard_pairs_match_standard_T(name):
    """The F_p builder gives the rows of ``standard_T``, pair for pair and
    in the same order, at every basepoint."""
    mods = _lagrangian_models(DIFFERENTIAL[name][0])
    for B in range(len(mods)):
        _fp_matches_standard_T(mods, B)


def test_fp_standard_pairs_match_standard_T_on_z5_4():
    mods = _lagrangian_models(standard_module([(5, 2)]))
    rng = random.Random(5)
    for B in rng.sample(range(len(mods)), 2):
        _fp_matches_standard_T(mods, B, rng.sample(range(len(mods)), 40))


def test_fp_standard_pairs_refuse_two_cosets_in_one_column(monkeypatch):
    import heisenrep.intertwine as intertwine
    from heisenrep.abgroup import zero_subgroup

    # with L_i cap L_B taken as 0, T_LB[B] sums over every element of L_B,
    # and all of them share the column of 0
    mods = _lagrangian_models(standard_module([(3, 1)]))
    monkeypatch.setattr(intertwine, "subgroup_intersect",
                        lambda a, b: zero_subgroup(a.ambient))
    with pytest.raises(SolveError, match=r"T_LB\[2\] at basepoint 2"):
        standard_pairs(mods, 2)


def test_solver_rejects_non_elementary():
    from heisenrep.symplectic import SymplecticError

    M9 = standard_module([(9, 1)])
    with pytest.raises(SymplecticError):
        solve_canonical_system(M9)


def test_kernel_roundtrip_fourier(setup3):
    M, H, lags, mods = setup3
    bi = _index_of(lags, (1, 0))
    yi = _index_of(lags, (0, 1))
    T = standard_T(mods[yi], mods[bi]).to_dense()
    k = kernel_of(T, mods[bi], mods[yi])
    back = operator_from_kernel(k, mods[bi], mods[yi])
    assert mat_eq(back, T)


def test_kernel_of_identity_is_normalized_indicator(setup3):
    M, H, lags, mods = setup3
    V = mods[0]
    k = kernel_of(standard_T(V, V).to_dense(), V, V)
    norm = CycNum.rational(1) / (3 * V.lag.order())
    for h in H.elements():
        m, a = h
        if V.lag.sub.contains(m):
            assert k[h] == norm * root_of_unity(3, a)
        else:
            assert k[h].is_zero()


def test_kernel_genuineness_negation(setup3):
    M, H, lags, mods = setup3
    sys = solve_canonical_system(M, verify="none")
    k_plus = _system_kernel(sys, (1, 1), (0, 1))
    k_minus = _system_kernel(sys, (1, -1), (0, 1))
    assert set(k_plus) == set(k_minus)
    for h, v in k_plus.items():
        assert k_minus[h] == -v


def _system_kernel(sys, n0, l0):
    return kernel_of(sys.operator(n0, l0), sys.modules[l0[0]],
                     sys.modules[n0[0]])


def test_canonical_kernels_lie_in_K():
    M = standard_module([(3, 1)])
    sys = solve_canonical_system(M, verify="none")
    z3 = root_of_unity(3)
    s3 = sqrt_prime(3)
    k = _system_kernel(sys, (1, 1), (0, 1))
    assert any(not v.is_zero() for v in k.values())
    for v in k.values():
        assert in_subfield(v, [z3, s3])


def test_operator_from_kernel_rejects_noncovariant(setup3):
    M, H, lags, mods = setup3
    bad = {h: CycNum.rational(1) for h in H.elements()}
    with pytest.raises(SolveError):
        operator_from_kernel(bad, mods[0], mods[1])

