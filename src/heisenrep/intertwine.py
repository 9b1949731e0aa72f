"""Intertwining operators between induced modules and the canonical system.

The standard (unnormalized) intertwiner averages over the target lagrangian;
the canonical system is the unique normalization of these satisfying the
identity, transitivity, genuineness, and symplectic-equivariance axioms on
enhanced lagrangians.  Anchored at a basepoint B, it is F_{L,B} = c_L T_{L,B}
with each scalar in closed form, a function of the pair (L, B) alone: with
I = L cap B, k = dim L/I, and bases (I, x) of L and (I, y) of B,

    c_L = legendre(2^k * a_L * a_B * det[omega(x_a, y_b)], p) * G_p^(-k),

where a_L and a_B are the determinants of (I, x) and (I, y) over the
echelon bases of L and B, and G_p is the quadratic Gauss sum.  This is the
normalization of the canonical Weil representation on oriented lagrangians
(Gurevich-Hadani, "Quantization of symplectic vector spaces over finite
fields", J. Symplectic Geom. 2009; Lion-Vergne, "The Weil representation,
Maslov index and theta series", 1980), the echelon basis of each lagrangian
being its orientation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from functools import lru_cache
from math import lcm
from operator import add as plus, mul, sub

from . import intlin
from .abgroup import subgroup_intersect
from .cyclo import (
    CycNum,
    gauss_sum_quadratic,
    in_subfield,
    legendre,
    root_of_unity,
    sqrt_prime,
)
from .heisenberg import HeisGrp, induce
from .kmat import Packed, PhaseMat, Rotations, mat_to_json, phase_columns
from .symplectic import (
    DEFAULT_LAGRANGIAN_BUDGET,
    EnhLag,
    SymplecticError,
    act_enhanced,
    enumerate_lagrangians,
)


# The export writes the full pair table only when its (2 * count)^2
# matrices of dim^2 entries hold at most this many entries, the size for
# 8 lagrangians of dimension 27.  The table grows as count^2 * dim^2 while
# the anchored maps, which determine every pair, grow as count * dim^2; on
# (Z/25)^2+(Z/5)^2 (6 lagrangians, dim 125) the table has 2.25 M entries
# and its export reached 3.9 GiB.
PAIR_TABLE_ENTRIES = 16 ** 2 * 27 ** 2

# ``pair`` keeps the column ints of the right factors T_LB[j]
# (``kmat.phase_columns``), the first it meets, while they stand for at
# most this many entries (dim^2 per j), the size of 16 lagrangians of
# dimension 27.  The ints of one j take about the memory of one pair, and
# a light check builds about three pairs per lagrangian of (Z/7)^4 (400
# of them, dim 49), where keeping every j took its peak from 153 to
# 191 MiB; (Z/3)^4, (Z/7)^2 and the lifted (Z/9)^2+(Z/3)^2 keep all.
KEPT_COLUMN_ENTRIES = 16 * 27 ** 2


class SolveError(RuntimeError):
    pass


def standard_T(target, source):
    """The averaging intertwiner H_L -> H_N for lagrangians L (source) and
    N (target): (Tf)(h) = sum over N/(N cap L) of f(n h), the canonical
    character being trivial on N x {0}.

    Returns the target.dim x source.dim ``PhaseMat``.  Row i sums over the
    cosets n of N/(N cap L): (n, 0)(r_i, 0) = (n + r_i, beta(n, r_i)) puts
    column j = locate(n + r_i) at exponent beta(n, r_i) + e.  Two cosets
    n, n' in one column would make n - n' lie in L, and in N, so in N cap L:
    n -> n + r_i is injective from N/(N cap L) into M/L, and every entry is
    0 or a single root of unity.  A second coset in one entry raises
    SolveError.  T_{L,L} = id; T is always nonzero and intertwines right
    translation.
    """
    H = target.H
    M = H.base
    add, beta, locate = M.group.add, M.beta, source.locate
    inter = subgroup_intersect(target.lag.sub, source.lag.sub)
    reps = sorted({inter.coset_reduce(v) for v in target.lag.sub.elements()})
    rows = []
    for i, ri in enumerate(target.reps):
        row = {}
        for nn in reps:
            j, e = locate(add(nn, ri))
            if j in row:
                raise SolveError("two cosets meet in entry (%d, %d) of the "
                                 "standard intertwiner; this is a bug" % (i, j))
            row[j] = beta(nn, ri) + e
        rows.append(row.items())
    return PhaseMat(rows, source.dim, H.n)


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
    the conjugate transpose of T_{j,B} (see ``standard_pairs``) and each
    T_{i,B} is held as a phase matrix, ``T_LB[i]``.  Identity and
    transitivity hold by construction; genuineness and equivariance hold
    because each c_i is the closed form of ``canonical_scalar``,
    +-G_p^(-k) for k = dim L_i / (L_i cap L_B).

    For a reduced module the same structure holds with the enhanced points
    living on the elementary quotient while the operators act upstairs:
    ``lags[i]``, a lagrangian of the operator module, and ``enh_lags[i]``,
    one of M_c, share the index i.

    ``_pair_cache`` holds the pairs F_{(i,1),(j,1)} as ``kmat.Packed``
    matrices, all of one form: one conductor N and the digit width of
    ``pair_width``.  Under None it holds that width, N, the rotations of
    the scales and, for the first j that the pairs use as their right
    factor, up to ``KEPT_COLUMN_ENTRIES``, the column ints and masks of
    T_LB[j] at N and that width (``_scales``), so emptying the cache drops
    them with the pairs.  It is the only store of pairs: ``pair`` gives
    the signed packed pair and ``operator`` its dense view.
    ``anchored`` reads the phase matrices directly.
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
        return self.T_LB[i].scaled(self.c[i] if e == 1 else -self.c[i])

    def pair(self, n0, l0):
        """F_{n0, l0}: modules[j] -> modules[i] for n0=(i,e), l0=(j,f), as
        a ``Packed`` matrix: the cached pair of (i, j), negated when
        e * f = -1."""
        i, e = n0
        j, f = l0
        base = self._pair_cache.get((i, j))
        if base is None:
            w, N, top_of, bottom_of, scales, columns = self._scales()
            if i == j:
                base = Packed.identity(self.modules[i].dim, N, w)
            else:
                b = self.T_LB[j]
                cols = columns.get(j)
                if cols is None:
                    cols = phase_columns(b, N, w)
                    if (len(columns) + 1) * len(b.rows) * b.cols \
                            <= KEPT_COLUMN_ENTRIES:
                        columns[j] = cols
                base = scales[top_of[i], bottom_of[j]].product(
                    self.T_LB[i], b, w, cols)
            self._pair_cache[(i, j)] = base
        return base if e * f == 1 else -base

    def operator(self, n0, l0):
        """F_{n0, l0} as a dense matrix: ``pair(n0, l0).to_dense()``."""
        return self.pair(n0, l0).to_dense()

    def pair_width(self):
        """The digit width of every pair, made once, covering the products
        and comparisons of any two pairs (``kmat`` module notes: a row of a
        pair is one int of 2N-digit slots, and the width bounds each digit
        of a slot, so it does not depend on the slots).  A pair is the
        identity or s * T_LB[i] T_LB[j]^H with s = c_i / (c_j delta_j), of
        height dim * h (h the largest coefficient of a rotation of s) over
        s.den, and s = 1 at i = j = B.  So the largest height H and
        denominator D come from the distinct c_i and c_j delta_j alone, and
        with N the one conductor of the pairs, a product of two pairs
        compared with a third has digits at most dim N H^2 D + H D^2.  A
        check of pairs of this one form and width needs no other."""
        return self._scales()[0]

    def _scales(self):
        """(``pair_width``, the one conductor N of the pairs, the index of
        c_i among the distinct c for each i, the index of c_j delta_j among
        the distinct c delta for each j, the ``kmat.Rotations`` of each
        quotient of the two keyed by the two indices, and a dict that
        ``pair`` fills with ``kmat.phase_columns(T_LB[j], N, width)`` for
        right factors j, up to ``KEPT_COLUMN_ENTRIES``).  N is the lcm of
        the moduli of the T_LB and of the conductors of the quotients,
        fixed before any rotation is made, and every rotation is made at
        N, so each product, as each identity, is at N, and the column ints
        of T_LB[j] serve every pair (i, j).  Kept in ``_pair_cache`` under
        None, so that emptying the cache drops them with the pairs."""
        got = self._pair_cache.get(None)
        if got is None:
            dim = self.modules[0].dim
            tops, top_of = _distinct(self.c[i] for i in range(self.count))
            bottoms, bottom_of = _distinct(self.c[j] * d
                                           for j, d in enumerate(self.delta))
            quotients = {(t, b): x / y for t, x in enumerate(tops)
                         for b, y in enumerate(bottoms)}
            N = lcm(*(T.n for T in self.T_LB),
                    *(s.n for s in quotients.values()))
            scales = {key: Rotations(s, N) for key, s in quotients.items()}
            D = max(s.den for s in quotients.values())
            H = dim * max(r.top for r in scales.values())
            w = (dim * N * H * H * D + H * D * D).bit_length() + 1
            got = self._pair_cache[None] = (w, N, top_of, bottom_of, scales,
                                            {})
        return got

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
        Each c_i = +-G_p^(-k) is nonzero (``canonical_scalar``; a lifted
        system reuses the scalars of M_c), and ``standard_T`` gives T_LB[i]
        a nonzero entry t0, a root of unity of order dividing n, so t0 lies
        in K.  Then every c_i * t lies in K if and only if c_i
        (= c_i t0 / t0) and every t (= c_i t / c_i) lie in K.  Each t is 0 or zeta_m^e, m the
        modulus of T_LB[i].  So the test is one Galois test per c_i, and
        one per exponent e that occurs only when m does not divide n.
        """
        n = self.module.n if self.module.group.rank else 1
        p = self.enh_module.n if self.enh_module.group.rank else 1
        gens = [root_of_unity(n)]
        if p > 1:
            gens.append(sqrt_prime(p))
        for i in range(self.count):
            if not in_subfield(self.c[i], gens):
                return False
            m = self.T_LB[i].n
            if n % m and not all(
                    in_subfield(root_of_unity(m, e), gens)
                    for e in {e for row in self.T_LB[i].rows for _, e in row}):
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
        mod_json = json.dumps(self.module.to_json(), sort_keys=True)
        # anchored(i, e) at the conductor: with c_i lifted to it, every
        # entry of the scaled T_LB[i], the shared zero included, is made
        # there, so no entry is lifted
        c = [self.c[i].lift(self.conductor) for i in range(self.count)]
        out = {
            "module": self.module.to_json(),
            "module_sha256": hashlib.sha256(mod_json.encode()).hexdigest(),
            "conductor": self.conductor,
            "basepoint": "L%d:+" % self.base_index,
            "lagrangians": [[list(r) for r in L.sub.rows] for L in self.enh_lags],
            "operator_lagrangians": [[list(r) for r in L.sub.rows] for L in self.lags],
            "anchored": {
                "L%d:%s" % (i, "+" if e > 0 else "-"): mat_to_json(
                    self.T_LB[i].scaled(c[i] if e > 0 else -c[i]))
                for i in range(self.count)
                for e in (1, -1)
            },
        }
        size = 2 * self.count * self.modules[0].dim
        if 2 * self.count <= 16 and size * size <= PAIR_TABLE_ENTRIES:
            out["pairs"] = self.pair_table_json()["pairs"]
        return out


def _distinct(values):
    """The distinct values, by conductor, coefficients and denominator, in
    order of first appearance, and the index among them of each value."""
    index, out, of = {}, [], []
    for x in values:
        key = (x.n, x.num, x.den)
        if key not in index:
            index[key] = len(out)
            out.append(x)
        of.append(index[key])
    return out, of


def standard_pairs(mods, B):
    """The averaging intertwiners T_LB[i]: mods[B] -> mods[i], with the
    scalars delta[i] given by T_{B,i} o T_LB[i] = delta[i] * id, and the
    intersections L_i cap L_B that delta is read from, for
    ``canonical_scalar``.

    The map back, T_{B,i}: mods[i] -> mods[B], is the conjugate transpose
    of T_LB[i], so it is not built; ``phase_product(a, T_LB[i], c)``
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
    the packed pairs and catches a wrong delta.

    On an elementary module F_p^2r the T_LB[i] are read off echelon bases,
    elsewhere each is ``standard_T``.  With E_j the echelon rows of L_B at
    pivots j, rep_B(y) = R y = y - sum_j y_j E_j is linear, so entry
    (r_i, n) of ``standard_T``, y = n + r_i, lies in the column of
    R n + R r_i, a digit-wise sum, with the exponent
    beta(n, r_i) - beta(y - R y, R y) = -Q(n) - Q(r_i) + n^T C r_i, where
    beta(y - R y, R y) = h <y - R y, y> = y^T A y = Q(y) for h = (p+1)/2
    (the pairing is alternating), A is zero but for the rows h <E_j, e_c>,
    and C = h G - A - A^T for the gram G.  The cosets are sum c_a x_a over
    the echelon rows x of L_i at the pivots L_i cap L_B lacks
    (``canonical_scalar``), ordered by c as their least representatives
    are; two in one column raise SolveError.  So a column, n^T C and Q are
    read once per coset and per row, and an entry is two table reads.
    """
    source = mods[B]
    M = source.H.base
    inters = [subgroup_intersect(V.lag.sub, source.lag.sub) for V in mods]
    delta = [CycNum.rational(V.lag.order() // inter.order(), source.H.n)
             for V, inter in zip(mods, inters)]
    if not M.is_elementary():
        return [standard_T(V, source) for V in mods], delta, inters
    p, m, basis = M.n, M.group.rank, M.group.basis()
    add, scale, dot, number = _box_tables(p, m // 2)
    h = (p + 1) // 2
    A = [[0] * m for _ in range(m)]
    for row in source.lag.sub.echelon():
        A[row.index(1)] = [h * M.pair(row, e) % p for e in basis]
    C = [[(h * M.gram[a][b] - A[a][b] - A[b][a]) % p for b in range(m)]
         for a in range(m)]

    def times(x, mat):
        return [sum(map(mul, x, col)) for col in zip(*mat)]

    def span(gens):
        """The number of sum c_a gens[a] per c in product order, for points
        gens[a] given by number."""
        out = [0]
        for g in gens:
            out = [add[w][u] for w in out for u in scale[g]]
        return out

    def box(zs, F):
        """Per c in product order, for z = sum c_a zs[a]: the numbers of
        R z and of z^T C read at F, and Q(z) = c . (S c) for
        S_ab = zs[a]^T A zs[b]."""
        S = [[sum(map(mul, u, y)) for y in zs] for u in (times(z, A)
                                                        for z in zs)]
        pad = (0,) * (m // 2 - len(zs))
        return (span(source.index[source.lag.sub.coset_reduce(z)] for z in zs),
                span(number[tuple(v[c] % p for c in F)]
                     for v in (times(z, C) for z in zs)),
                [dot[i][j] for i, j in enumerate(span(
                    number[pad + tuple(x % p for x in v)] for v in zip(*S)))])

    # entry e * dim + k is the pair (k, e), one object per pair; shift[q][x]
    # is (x - q mod p) * dim for x in (-p, p), x < 0 read from the end
    dim = source.dim
    entries = [(k, e) for e in range(p) for k in range(dim)]
    shift = [[(x - q) % p * dim for x in range(2 * p)] for q in range(p)]
    rows_of, T_LB = {}, []
    for i, (V, inter) in enumerate(zip(mods, inters)):
        rows_N = V.lag.sub.echelon()
        shared = {row.index(1) for row in inter.echelon()}
        F = tuple(sorted(set(range(m)) - {x.index(1) for x in rows_N}))
        offsets, funcs, quads = box(
            [x for x in rows_N if x.index(1) not in shared], F)
        if len(set(offsets)) < len(offsets):
            raise SolveError("two cosets meet in a column of T_LB[%d] at "
                             "basepoint %d; this is a bug" % (i, B))
        cols, _, q_rows = rows_of.get(F) or rows_of.setdefault(
            F, box([basis[c] for c in F], F))
        rows = zip(*[map(entries.__getitem__, map(
            plus, map(add[o].__getitem__, cols),
            map(shift[q].__getitem__, map(sub, dot[f], q_rows))))
            for o, f, q in zip(offsets, funcs, quads)])
        T_LB.append(PhaseMat.reduced(tuple(rows), dim, p))
    return T_LB, delta, inters


@lru_cache(maxsize=None)
def _box_tables(p, r):
    """On the box F_p^r, its points numbered in product order: the numbers
    of sums and multiples mod p, dot products mod p, and the numbers."""
    points = list(itertools.product(range(p), repeat=r))
    number = {v: i for i, v in enumerate(points)}
    add = [[number[tuple((x + y) % p for x, y in zip(u, v))]
            for v in points] for u in points]
    scale = [[number[tuple(d * x % p for x in u)] for d in range(p)]
             for u in points]
    dot = [[sum(map(mul, u, v)) % p for v in points] for u in points]
    return add, scale, dot, number


def canonical_scalar(Mc, L, B, inter):
    """The anchored scalar c_L of the canonical system on the elementary
    module Mc = F_p^2r with basepoint B, in closed form (see the module
    notes).  ``inter`` is L cap B, as ``standard_pairs`` gives it.

    I = L cap B has the echelon basis ``inter.echelon()``.  Its pivots are
    leading positions of vectors of L, so they are pivots of L, and the
    echelon rows x of L at the other pivots extend I to a basis of L, as
    their leading positions differ from those of I; likewise y for B.  The
    coordinates of a vector of L over the echelon rows of L are its entries
    at their pivot columns, so a_L is the determinant of (I, x) read there.
    omega pairs L/I with B/I perfectly (a vector of L orthogonal to B lies
    in B^perp = B, so in I), and a_L, a_B are nonzero: the Legendre symbol
    is +-1.
    """
    p = Mc.n
    rows_L, rows_B = L.sub.echelon(), B.sub.echelon()
    inter = inter.echelon()
    shared = {row.index(1) for row in inter}
    x = [row for row in rows_L if row.index(1) not in shared]
    y = [row for row in rows_B if row.index(1) not in shared]
    k = len(x)
    u = (2 ** k * intlin.orientation(inter + x, rows_L, p)
         * intlin.orientation(inter + y, rows_B, p)
         * intlin.det_mod([[Mc.pair(a, b) for b in y] for a in x], p))
    return legendre(u, p) * _inverse_gauss_power(p, k)


@lru_cache(maxsize=None)
def _inverse_gauss_power(p, k):
    """G_p^(-k) at conductor p, made once per prime and k: G_p^(-1) is
    G_p / G_p^2, and G_p^2 = legendre(-1, p) * p."""
    return (gauss_sum_quadratic(p) / (legendre(-1, p) * p)) ** k


def solve_canonical_system(Mc, base_index=0, verify="light", seed=0,
                           budget=DEFAULT_LAGRANGIAN_BUDGET):
    """Normalize the averaging intertwiners into the canonical system.

    Anchors the basepoint scalar at 1 and takes every other scalar from
    ``canonical_scalar``.  Raises SymplecticError, an input error, for a
    non-elementary module or a basepoint index outside the lagrangians;
    BudgetError when |Mc| exceeds ``budget``, the lagrangian enumeration
    budget; SolveError when the system fails the ``verify`` check.
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
    T_LB, delta, inters = standard_pairs(mods, B)
    c = {i: CycNum.one(conductor) if i == B else
         canonical_scalar(Mc, L, lags[B], inters[i])
         for i, L in enumerate(lags)}
    sys = CanonicalSystem(Mc, Mc, lags, lags, B, mods, T_LB, delta,
                          c, conductor)
    if verify != "none":
        from .verify import check_system_axioms

        report = check_system_axioms(sys, level=verify, seed=seed)
        if not report.ok():
            raise SolveError("canonical system failed verification:\n%s"
                             % report.text())
    return sys
