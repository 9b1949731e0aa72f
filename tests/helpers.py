"""Test-only helpers that the library itself does not use."""

import random
from contextlib import contextmanager
from math import gcd
from unittest import mock

from heisenrep import intlin
from heisenrep.abgroup import subgroup_from_gens
from heisenrep.kmat import identity, mat_eq, mat_mul
from heisenrep.symplectic import SympAut


class DirectSum:
    """Direct sum of induced modules; enough structure for hom_dim."""

    def __init__(self, parts):
        self.parts = parts
        self.H = parts[0].H
        self.dim = sum(p.dim for p in parts)

    def group_generators(self):
        return self.parts[0].group_generators()

    def generator_parts(self):
        return [self.rho_parts(h) for h in self.group_generators()]

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
