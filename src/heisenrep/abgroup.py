"""Finite abelian groups, subgroups in canonical normal form, and quotients.

A group is Z/d1 x ... x Z/dm with elements stored as reduced residue
tuples.  A subgroup is represented by the Hermite normal form of the integer
lattice spanned by lifted generators together with the order relations
d_i e_i, which makes equality of subgroups a plain tuple comparison.  In an
elementary group (Z/p)^m the subgroups are F_p subspaces, and that HNF is
read off their reduced row echelon basis (``intlin.hnf_mod``).
"""

from __future__ import annotations

import itertools
from math import gcd, lcm, prod

from . import intlin


class GroupError(ValueError):
    pass


def strict_ints(values, error, what):
    """``values`` as a tuple, raising ``error`` on any entry that is not an
    int (bools, floats and strings are refused, never coerced)."""
    values = tuple(values)
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise error("%s must be integers, got %r" % (what, x))
    return values


class AbGroup:
    __slots__ = ("orders",)

    def __init__(self, orders):
        orders = strict_ints(orders, GroupError, "orders")
        if any(d < 1 for d in orders):
            raise GroupError("orders must be positive")
        self.orders = orders

    @property
    def rank(self):
        return len(self.orders)

    def order(self):
        return prod(self.orders)

    def exponent(self):
        e = 1
        for d in self.orders:
            e = lcm(e, d)
        return e

    def zero(self):
        return (0,) * len(self.orders)

    def basis(self):
        """The standard generators e_i, with a 1 in place i (not reduced)."""
        m = len(self.orders)
        return tuple(tuple(1 if j == i else 0 for j in range(m)) for i in range(m))

    def reduce(self, vec):
        if len(vec) != len(self.orders):
            raise GroupError("element has wrong length")
        return tuple(int(v) % d for v, d in zip(vec, self.orders))

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.orders))

    def neg(self, a):
        return tuple((-x) % d for x, d in zip(a, self.orders))

    def sub(self, a, b):
        return tuple((x - y) % d for x, y, d in zip(a, b, self.orders))

    def scale(self, k, a):
        return tuple((k * x) % d for x, d in zip(a, self.orders))

    def elements(self):
        return itertools.product(*(range(d) for d in self.orders))

    def __eq__(self, other):
        return isinstance(other, AbGroup) and self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return "AbGroup%r" % (self.orders,)

    def to_json(self):
        return {"orders": list(self.orders)}

    @staticmethod
    def from_json(obj):
        return AbGroup(obj["orders"])


class Subgroup:
    """Subgroup of an AbGroup, held as the canonical HNF of its lattice."""

    __slots__ = ("ambient", "rows", "_pivots")

    def __init__(self, ambient, hnf_rows):
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in hnf_rows)
        self._pivots = tuple(
            next(j for j, x in enumerate(row) if x != 0) for row in self.rows
        )

    def order(self):
        det = prod(self.rows[i][self._pivots[i]] for i in range(len(self.rows)))
        return self.ambient.order() // det if det else 0

    def contains(self, vec):
        v = list(vec)
        for i, row in enumerate(self.rows):
            j = self._pivots[i]
            if v[j] % row[j] != 0:
                return False
            q = v[j] // row[j]
            if q:
                for k in range(len(v)):
                    v[k] -= q * row[k]
        return not any(v)

    def coset_reduce(self, vec):
        """Lexicographically minimal representative of vec + subgroup."""
        v = list(vec)
        m = len(v)
        for i, row in enumerate(self.rows):
            j = self._pivots[i]
            q = v[j] // row[j]
            if q:
                for k in range(m):
                    v[k] -= q * row[k]
        return tuple(v)

    def gens(self):
        """Generators of the subgroup (nonzero reductions of HNF rows)."""
        out = []
        for row in self.rows:
            red = self.ambient.reduce(row)
            if any(red):
                out.append(red)
        return out

    def elements(self):
        ranges = []
        for i, row in enumerate(self.rows):
            d = self.ambient.orders[self._pivots[i]]
            piv = row[self._pivots[i]]
            assert d % piv == 0
            ranges.append(range(d // piv))
        for coeffs in itertools.product(*ranges):
            v = [0] * self.ambient.rank
            for c, row in zip(coeffs, self.rows):
                if c:
                    for k in range(len(v)):
                        v[k] += c * row[k]
            yield self.ambient.reduce(v)

    def key(self):
        return self.rows

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient.orders, self.rows))

    def __repr__(self):
        return "Subgroup(order=%d, rows=%r)" % (self.order(), self.rows)

    def to_json(self):
        return {"ambient": self.ambient.to_json(), "gens": [list(r) for r in self.rows]}

    @staticmethod
    def from_json(obj):
        amb = AbGroup.from_json(obj["ambient"])
        return subgroup_from_gens(amb, obj["gens"])


def elementary_prime(group):
    """p when the group is (Z/p)^m for a prime p and m >= 1, else None."""
    orders = group.orders
    p = orders[0] if orders else 0
    return p if intlin.is_prime(p) and orders.count(p) == len(orders) else None


def subgroup_from_gens(group, vectors):
    """Canonical subgroup generated by the given element vectors."""
    m = group.rank
    rows = []
    for v in vectors:
        if len(v) != m:
            raise GroupError("generator %r has wrong length" % (v,))
        rows.append([int(x) for x in v])
    p = elementary_prime(group)
    if p:
        echelon = intlin.echelon_mod(rows, p)
        return Subgroup(group, intlin.hnf_mod(echelon, p, m))
    for i, d in enumerate(group.orders):
        rows.append([d if j == i else 0 for j in range(m)])
    return Subgroup(group, intlin.hnf(rows))


def zero_subgroup(group):
    return subgroup_from_gens(group, [])


def full_subgroup(group):
    return subgroup_from_gens(group, group.basis())


def subgroup_join(a, b):
    if a.ambient != b.ambient:
        raise GroupError("join of subgroups of different groups")
    return subgroup_from_gens(a.ambient, a.rows + b.rows)


def subgroup_intersect(a, b):
    if a.ambient != b.ambient:
        raise GroupError("intersection of subgroups of different groups")
    p = elementary_prime(a.ambient)
    if p:
        # Zassenhaus: the echelon rows of [a | a] over [b | 0] whose left
        # half is zero span the intersection, in echelon form, on the right
        m = a.ambient.rank
        zero = (0,) * m
        stacked = [r + r for r in a.rows] + [r + zero for r in b.rows]
        meet = [row[m:] for row in intlin.echelon_mod(stacked, p)
                if not any(row[:m])]
        return Subgroup(a.ambient, intlin.hnf_mod(meet, p, m))
    rows = intlin.lattice_intersect([list(r) for r in a.rows], [list(r) for r in b.rows])
    return Subgroup(a.ambient, intlin.hnf(rows))


class QuotientMap:
    """Quotient A/B of nested subgroups with a deterministic section.

    ``group`` is the quotient in invariant-factor form; ``proj`` sends an
    ambient element of A to quotient coordinates; ``section`` returns the
    lexicographically smallest preimage of a quotient element.
    """

    __slots__ = ("ambient", "sub", "over", "group", "_v", "_vinv", "_diag", "_keep")

    def __init__(self, over, sub):
        if over.ambient != sub.ambient:
            raise GroupError("quotient of subgroups of different groups")
        for row in sub.rows:
            if not over.contains(row):
                raise GroupError("quotient base is not contained in the top subgroup")
        self.ambient = over.ambient
        self.over = over
        self.sub = sub
        # write sub's lattice rows in coordinates of over's lattice basis
        coeff = []
        for row in sub.rows:
            c = intlin.solve_lattice(list(over.rows), list(row))
            assert c is not None
            coeff.append(c)
        diag, _u, v = intlin.snf(coeff)
        self._v = v
        self._vinv = intlin.int_inverse_unimodular(v)
        self._diag = diag
        self._keep = [i for i, d in enumerate(diag) if d > 1]
        self.group = AbGroup([diag[i] for i in self._keep])

    def proj(self, vec):
        """Image of an element of ``over`` in the quotient group."""
        y = intlin.solve_lattice(list(self.over.rows), list(vec))
        if y is None:
            raise GroupError("element %r is not in the subgroup" % (vec,))
        z = [0] * len(y)
        for i in range(len(y)):
            if y[i]:
                for j in range(len(y)):
                    z[j] += y[i] * self._v[i][j]
        return tuple(z[i] % self._diag[i] for i in self._keep)

    def section(self, qvec):
        """Lexicographically smallest ambient representative; section(0) = 0."""
        m = self.ambient.rank
        y = [0] * len(self._diag)
        for pos, q in zip(self._keep, qvec):
            y[pos] = int(q)
        z = [0] * len(y)
        for i in range(len(y)):
            if y[i]:
                for j in range(len(y)):
                    z[j] += y[i] * self._vinv[i][j]
        v = [0] * m
        for i in range(len(z)):
            if z[i]:
                for j in range(m):
                    v[j] += z[i] * self.over.rows[i][j]
        return self.sub.coset_reduce(v)


def quotient(group, sub):
    """(Q, proj, section) for group/sub."""
    qm = QuotientMap(full_subgroup(group), sub)
    return qm.group, qm.proj, qm.section


def quotient_pair(over, sub):
    return QuotientMap(over, sub)


def torsion_and_scale(group, p, k):
    """(G[p^k], p^k G) as canonical subgroups."""
    m = group.rank
    pk = p ** k
    tor = []
    for i, d in enumerate(group.orders):
        g = d // gcd(d, pk)
        tor.append([g if j == i else 0 for j in range(m)])
    scl = [[pk if j == i else 0 for j in range(m)] for i in range(m)]
    return subgroup_from_gens(group, tor), subgroup_from_gens(group, scl)


def rho_layer(group, p, k):
    """The layer invariant G[p^k] / (G[p^(k-1)] + p G[p^(k+1)]).

    Always an elementary abelian p-group.
    """
    if k < 1:
        raise GroupError("layer index must be positive")
    top, _ = torsion_and_scale(group, p, k)
    below, _ = torsion_and_scale(group, p, k - 1)
    above, _ = torsion_and_scale(group, p, k + 1)
    p_above = subgroup_from_gens(
        group, [group.scale(p, g) for g in above.gens()]
    )
    bottom = subgroup_join(below, p_above)
    qm = quotient_pair(top, bottom)
    q = qm.group
    assert all(d == p for d in q.orders), "layer is not elementary abelian"
    return q


def primary_component(group, p):
    """The p-part of the group as a canonical subgroup."""
    m = group.rank
    gens = []
    for i, d in enumerate(group.orders):
        v = d
        while v % p == 0:
            v //= p
        gens.append([v if j == i else 0 for j in range(m)])
    return subgroup_from_gens(group, gens)


def prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out
