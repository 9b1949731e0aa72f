"""Test-only helpers that the library itself does not use."""

import random
from contextlib import contextmanager
from math import gcd, lcm
from unittest import mock

from heisenrep import intlin
from heisenrep.abgroup import subgroup_from_gens
from heisenrep.heisenberg import point_table
from heisenrep.kmat import Packed, identity, mat_eq, mat_mul
from heisenrep.symplectic import SympAut


class DirectSum:
    """Direct sum of induced modules; enough structure for hom_dim."""

    def __init__(self, parts):
        self.parts = parts
        self.H = parts[0].H
        self.dim = sum(p.dim for p in parts)

    def group_generators(self):
        return self.parts[0].group_generators()

    def generator_tables(self):
        return [point_table(*self.rho_parts(h), self.H.n)
                for h in self.group_generators()]

    def rho_parts(self, h):
        perm = []
        exp = []
        off = 0
        for p in self.parts:
            pp, ee = p.rho_parts(h)
            perm.extend(x + off for x in pp)
            exp.extend(ee)
            off += p.dim
        return perm, exp


def shared_zeros(mat):
    """Whether the zero entries of each conductor are one object."""
    seen = {}
    return all(seen.setdefault(x.n, x) is x
               for row in mat for x in row if not any(x.num))


def one_zero(mat, n):
    """Whether every entry of ``mat`` is at conductor n and its zero
    entries are one object."""
    zeros = [x for row in mat for x in row if not any(x.num)]
    return all(x.n == n for row in mat for x in row) and all(
        x is zeros[0] for x in zeros)


def zero_sharing(mat):
    """Each zero entry replaced by the position of the first entry that is
    the same object, each nonzero entry by None."""
    first = {}
    return [[first.setdefault(id(x), (i, j)) if not any(x.num) else None
             for j, x in enumerate(row)] for i, row in enumerate(mat)]


def packed_rows(vectors, n, den=1, width=None):
    """A ``Packed`` matrix at conductor n from rows of digit vectors (each
    a list of n ints), its masks on the nonzero vectors, at digit width
    ``width``, by default the least width its height allows."""
    height = max((abs(c) for row in vectors for v in row for c in v),
                 default=0)
    w = width or height.bit_length() + 1
    rows = [[sum(c << (w * t) for t, c in enumerate(v)) for v in row]
            for row in vectors]
    masks = [sum(1 << j for j, v in enumerate(row) if any(v))
             for row in vectors]
    return Packed.from_entries(rows, masks, n, den, w, height)


def packed_entries(P):
    """The entries of ``P`` as ints, read one at a time by ``Packed.entry``."""
    return [[P.entry(i, j) for j in range(P.cols)] for i in range(len(P.rows))]


def packed_of(dense, n, width=None):
    """``dense`` as a ``Packed`` matrix at conductor n, a multiple of the
    conductor of every entry: the coefficient of zeta_m^t at digit
    t * n / m, over the lcm of the denominators, at digit width ``width``
    as ``packed_rows`` takes it."""
    den = lcm(1, *(x.den for row in dense for x in row))
    vectors = []
    for row in dense:
        new = []
        for x in row:
            v = [0] * n
            for t, c in enumerate(x.num):
                v[t * n // x.n] = c * (den // x.den)
            new.append(v)
        vectors.append(new)
    return packed_rows(vectors, n, den, width)


def conj_transpose(b, inner):
    """b^H for b with rows of length ``inner``."""
    return [[row[k].conj() for row in b] for k in range(inner)]


def check_inverse_symmetry(sys, rng=None, samples=20):
    """F_{L0,N0} is exactly the inverse of F_{N0,L0} on sampled pairs."""
    rng = rng or random.Random(0)
    points = sys.enhanced()
    ok = True
    for _ in range(samples):
        a = points[rng.randrange(len(points))]
        b = points[rng.randrange(len(points))]
        prod = mat_mul(sys.operator(a, b), sys.operator(b, a))
        if not mat_eq(prod, identity(sys.modules[a[0]].dim, sys.conductor)):
            ok = False
    return ok


def sampled_automorphisms(M, seed, count):
    """Deterministic sample of group automorphisms of M (not nec. symplectic)."""
    rng = random.Random(seed)
    m = M.group.rank
    out = []
    guard = 0
    while len(out) < count and guard < 200 * count:
        guard += 1
        rows = []
        for i in range(m):
            di = M.group.orders[i]
            row = []
            for j in range(m):
                dj = M.group.orders[j]
                step = dj // gcd(dj, di)
                row.append(step * rng.randrange(dj // step))
            rows.append(tuple(row))
        img = subgroup_from_gens(M.group, rows)
        if img.order() != M.group.order():
            continue
        aut = object.__new__(SympAut)
        aut.module = M
        aut.mat = tuple(tuple(x % M.group.orders[j] for j, x in enumerate(r)) for r in rows)
        out.append(aut)
    if len(out) < count:
        raise RuntimeError("automorphism sampling failed to converge")
    return out


@contextmanager
def lattice_only():
    """Within the block no modulus counts as prime, so every subgroup,
    intersection and kernel is computed through HNF, as on a module that is
    not elementary; the lattice walk ``symplectic._isotropic_walk`` then
    runs with no F_p step."""
    with mock.patch.object(intlin, "is_prime", lambda n: False):
        yield
