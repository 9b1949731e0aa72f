import ast
import hashlib
import itertools
import json
import random

import pytest
from helpers import check_inverse_symmetry, packed_entries

from dense_oracle import anchored_entries_in_field

from heisenrep import canonrep, verify
from heisenrep.cyclo import root_of_unity
from heisenrep.intertwine import (
    CanonicalSystem,
    SolveError,
    solve_canonical_system,
)
from heisenrep.kmat import Packed, PhaseMat, _digits
from heisenrep.reduction import g_to_gc
from heisenrep.symplectic import SympMod, sp_sample, standard_module
from heisenrep.verify import check_system_axioms, run_verify


def test_run_verify_quick_z3():
    reports = run_verify(standard_module([(3, 1)]), level="quick", seed=3)
    assert all(r.ok() for r in reports), "\n".join(r.text() for r in reports)
    titles = [r.title for r in reports]
    assert any("stone-von-neumann" in t for t in titles)
    assert any("canonical system" in t for t in titles)
    assert any("uniqueness" in t for t in titles)


def test_run_verify_quick_z9():
    reports = run_verify(standard_module([(9, 1)]), level="quick", seed=5)
    assert all(r.ok() for r in reports), "\n".join(r.text() for r in reports)
    # the lifted system over the nontrivial canonical subgroup is checked too
    assert any("lifted" in r.title for r in reports)


def test_run_verify_checks_lift_with_trivial_S():
    # orders (3, 3, 1): S = 0 but M_c has rank 2, so the system is lifted
    # and its operators over M are verified
    M = SympMod.from_json({"orders": [3, 3, 1],
                           "gram": [[0, 1, 0], [2, 0, 0], [0, 0, 0]]})
    reports = run_verify(M, level="quick", seed=7)
    lifted = [r for r in reports if r.title.startswith("lifted")]
    assert len(lifted) == 1 and lifted[0].ok(), lifted[0].text()


@pytest.mark.parametrize("blocks", [[(9, 1), (3, 1)], [(25, 1), (5, 1)],
                                    [(9, 2)]])
def test_lifted_system_without_equivariance_pairs_is_refused(blocks,
                                                              monkeypatch):
    """The transvections of M_c do not act on the operator module of a
    lifted system, so check_system_axioms refuses the default pairs with
    an error naming the argument, before any sweep runs."""
    pi = canonrep.build_pi(standard_module(blocks), system_verify="none")
    sweeps = []
    monkeypatch.setattr(verify, "_sweep", lambda *args: sweeps.append(args))
    with pytest.raises(ValueError, match="equivariance_pairs"):
        check_system_axioms(pi.system)
    assert sweeps == []
    check_system_axioms(pi.system_c)
    assert sweeps


def test_check_system_axioms_refuses_an_unknown_level(monkeypatch):
    """A misspelt level raises ValueError naming the accepted levels
    before any sweep runs, where it used to run the light sweep."""
    sys = solve_canonical_system(standard_module([(3, 1)]), verify="none")
    sweeps = []
    monkeypatch.setattr(verify, "_sweep", lambda *args: sweeps.append(args))
    with pytest.raises(ValueError, match=r"'ful': expected light or full$"):
        check_system_axioms(sys, level="ful")
    assert sweeps == []


def test_run_verify_refuses_an_unknown_level(monkeypatch):
    """A level other than quick or full raises ValueError before the
    representation is built."""
    calls = []
    monkeypatch.setattr(verify, "build_pi", lambda *args, **kw: calls.append(1))
    with pytest.raises(ValueError, match=r"'light': expected quick or full$"):
        run_verify(standard_module([(3, 1)]), level="light")
    assert calls == []


def test_run_verify_builds_composite_once(monkeypatch):
    calls = []
    build_pi = canonrep.build_pi

    def counted(M, *args, **kwargs):
        calls.append(M)
        return build_pi(M, *args, **kwargs)

    monkeypatch.setattr(canonrep, "build_pi", counted)
    monkeypatch.setattr(verify, "build_pi", counted)
    M = standard_module([(3, 1), (5, 1)])
    reports = run_verify(M, level="quick", seed=7)
    assert all(r.ok() for r in reports), "\n".join(r.text() for r in reports)
    assert calls == [M]
    assert sum("uniqueness" in r.title for r in reports) == 2


def test_report_json_shape():
    reports = run_verify(standard_module([(3, 1)]), level="quick", seed=1)
    blob = json.dumps([r.to_json() for r in reports], sort_keys=True)
    parsed = json.loads(blob)
    assert all(set(entry) == {"title", "ok", "checks"} for entry in parsed)


def test_check_system_levels_deterministic():
    M = standard_module([(3, 1)])
    sys_c = solve_canonical_system(M, verify="none")
    r1 = check_system_axioms(sys_c, level="light", seed=9)
    r2 = check_system_axioms(sys_c, level="light", seed=9)
    assert r1.to_json() == r2.to_json()
    assert check_inverse_symmetry(sys_c)


def test_solver_internal_verification_catches_defects():
    # solve with verification enabled: the light level must pass and the
    # returned system is usable immediately
    M = standard_module([(5, 1)])
    sys_c = solve_canonical_system(M, verify="light", seed=2)
    assert sys_c.count == 6


def test_sampled_draws_distinct_items():
    from heisenrep.verify import _sampled

    picked = _sampled(range(10), 5, random.Random(0))
    assert len(picked) == 5 and len(set(picked)) == 5
    assert set(picked) <= set(range(10))
    assert _sampled(range(3), 5, random.Random(0)) == [0, 1, 2]


@pytest.mark.parametrize("k", [2, 3])
def test_sampled_tuples_match_sampling_the_listed_product(k):
    from heisenrep.verify import _sampled_tuples

    points = [(i, e) for i in range(4) for e in (1, -1)]
    listed = list(itertools.product(points, repeat=k))
    total = len(listed)
    for seed in range(4):
        for count in (None, 1, 10, 200, total - 1, total, total + 3):
            ours, ref = random.Random(seed), random.Random(seed)
            got = _sampled_tuples(points, k, count, ours)
            if count is None or count >= total:
                want = listed
            else:
                want = ref.sample(listed, count)
            assert got == want, (seed, count)
            assert ours.getstate() == ref.getstate(), (seed, count)


def _tampered(sys, c=None, delta=None, T_LB=None):
    """A copy of ``sys`` with some of its stored data replaced."""
    return CanonicalSystem(
        sys.module, sys.enh_module, sys.lags, sys.enh_lags, sys.base_index,
        sys.modules, sys.T_LB if T_LB is None else T_LB,
        sys.delta if delta is None else delta,
        sys.c if c is None else c)


def _failed(report):
    return [name for (name, passed, _detail) in report.checks if not passed]


@pytest.fixture(scope="module")
def solved_z3():
    sys = solve_canonical_system(standard_module([(3, 1)]), verify="none")
    assert check_system_axioms(sys, level="full").ok()
    return sys, (sys.base_index + 1) % sys.count


def test_scaled_scalar_fails_equivariance(solved_z3):
    # transitivity holds for any scalars by construction
    sys, i = solved_z3
    c = dict(sys.c)
    c[i] = c[i] * root_of_unity(3)
    report = check_system_axioms(_tampered(sys, c=c), level="full")
    assert _failed(report) == ["equivariance under the symplectic action"]


def test_doubled_delta_fails_transitivity_at_full_level(solved_z3):
    sys, j = solved_z3
    delta = list(sys.delta)
    delta[j] = delta[j] * 2
    report = check_system_axioms(_tampered(sys, delta=delta), level="full")
    assert "transitivity over enhanced triples" in _failed(report)


def test_scalar_outside_the_field_fails(solved_z3):
    sys, i = solved_z3
    c = dict(sys.c)
    c[i] = c[i] * root_of_unity(7)
    bad = _tampered(sys, c=c)
    assert bad.entries_in_field() is anchored_entries_in_field(bad) is False
    report = check_system_axioms(bad, level="light")
    assert not report.ok()
    assert "entries lie in Q(mu_p, sqrt p)" in _failed(report)


def test_standard_entry_outside_the_field_fails(solved_z3):
    # a phase matrix of modulus 5 * 3 in a module of exponent 3, with one
    # entry zeta_15^3 = zeta_5 and without it, is refused when the system is
    # made: every T_LB[i] has the system's conductor, so ``entries_in_field``
    # tests the c_i alone
    sys, i = solved_z3
    assert sys.entries_in_field() is anchored_entries_in_field(sys) is True
    T = sys.T_LB[i]
    rows = [[(k, 5 * e) for k, e in row] for row in T.rows]
    T_LB = list(sys.T_LB)
    for entry in (3, 5 * T.rows[0][0][1]):
        rows[0][0] = (rows[0][0][0], entry)
        T_LB[i] = PhaseMat(rows, T.cols, 5 * T.n)
        with pytest.raises(SolveError, match=r"^T_LB\[%d\] has modulus 15, "
                           r"not the system's conductor 3$" % i):
            _tampered(sys, T_LB=T_LB)


def _witness(report, name):
    """The first failure that the check ``name`` of ``report`` names."""
    detail = dict((n, d) for (n, _p, d) in report.checks)[name]
    return ast.literal_eval(detail.split("; first failure ")[1])


@pytest.fixture(scope="module", params=["3^2", "5^2", "9^2+3^2"])
def checked_system(request):
    """A system with the keyword arguments its check needs: the lifted one
    acts through g_to_gc."""
    blocks = {"3^2": [(3, 1)], "5^2": [(5, 1)],
              "9^2+3^2": [(9, 1), (3, 1)]}[request.param]
    pi = canonrep.build_pi(standard_module(blocks), system_verify="none")
    if pi.system is pi.system_c:
        return pi.system, {}
    gs = sp_sample(pi.M, 3, 4)
    return pi.system, {"equivariance_pairs": [(g, g_to_gc(pi.red, g))
                                              for g in gs]}


def _entry_times_root(P, i, j):
    """P with entry (i, j) multiplied by zeta_N: its digits rotated by one."""
    n, w = P.n, P.width
    digits = _digits(P.entry(i, j), w, n)
    rows = packed_entries(P)
    rows[i][j] = sum(c << (w * t) for t, c in
                     enumerate(digits[-1:] + digits[:-1]))
    return Packed.from_entries(rows, P.masks, n, P.den, w, P.height)


def _tamper(P, how):
    """P changed one way, in its format: every change keeps the masks over
    the nonzero entries and the digits within the height."""
    rows, masks, den = packed_entries(P), list(P.masks), P.den
    i, j = next((i, j) for i, row in enumerate(rows)
                for j, x in enumerate(row) if x)
    if how == "negate an entry":
        rows[i][j] = -rows[i][j]
    elif how == "times zeta_N":
        return _entry_times_root(P, i, j)
    elif how == "double the denominator":
        den *= 2
    elif how == "zero made nonzero":
        i, k = next((i, k) for i, row in enumerate(rows)
                    for k, x in enumerate(row) if not x)
        j = next(j for j, x in enumerate(rows[i]) if x)
        rows[i][k] = rows[i][j]
        masks[i] |= 1 << k
    elif how == "rotate a row":
        rows[i] = rows[i][-1:] + rows[i][:-1]
        cols = len(rows[i])
        masks[i] = (masks[i] << 1 | masks[i] >> (cols - 1)) & ((1 << cols) - 1)
    return Packed.from_entries(rows, masks, P.n, den, P.width, P.height)


TAMPERS = ["negate an entry", "times zeta_N", "double the denominator",
           "zero made nonzero", "rotate a row"]


@pytest.mark.parametrize("how", TAMPERS)
def test_a_tampered_cached_pair_fails_with_its_witness(checked_system, how):
    """One cached pair changed in place fails the packed sweep, and the
    failed check names a triple through that pair (transitivity) or its
    point (identity).  A pair off the diagonal is tampered unless the change
    needs a zero entry that only the identity pairs have."""
    sys, kwargs = checked_system
    sys._pair_cache.clear()
    assert check_system_axioms(sys, level="light", seed=1, **kwargs).ok()
    key = (1, 0)
    if how == "zero made nonzero" and all(
            all(row) for row in packed_entries(sys.pair((1, 1), (0, 1)))):
        key = (1, 1)
    sys._pair_cache[key] = _tamper(sys.pair((key[0], 1), (key[1], 1)), how)
    try:
        report = check_system_axioms(sys, level="light", seed=1,
                                     transitivity_samples=10 ** 6, **kwargs)
    finally:
        sys._pair_cache.clear()
    assert not report.ok()
    if key[0] == key[1]:
        assert _witness(report, "identity on every enhanced point")[0] == 1
    else:
        triple = _witness(report, "transitivity over enhanced triples")
        assert key in {(triple[0][0], triple[1][0]), (triple[1][0], triple[2][0]),
                       (triple[0][0], triple[2][0])}, triple


@pytest.mark.parametrize("blocks", [[(3, 2)], [(9, 1), (3, 1)]])
def test_checked_pairs_sit_at_the_pair_width(blocks):
    """After the light check on (Z/3)^4 and on the lifted (Z/9)^2+(Z/3)^2
    every cached pair is at ``pair_width`` and at the system conductor, so
    no product or comparison met operands of two forms, which ``Packed``
    refuses.  Every pair (i, i) is one object, the identity at that form."""
    M = standard_module(blocks)
    pi = canonrep.build_pi(M, system_verify="none")
    sys = pi.system
    kwargs = {} if sys is pi.system_c else {"equivariance_pairs": [
        (g, g_to_gc(pi.red, g)) for g in sp_sample(M, 3, 4)]}
    sys._pair_cache.clear()
    assert check_system_axioms(sys, level="light", **kwargs).ok()
    pairs = [P for key, P in sys._pair_cache.items() if key is not None]
    assert len(pairs) > sys.count
    assert {(P.width, P.n) for P in pairs} == {(sys.pair_width(),
                                                sys.conductor)}
    ones = [sys._pair_cache[i, i] for i in range(sys.count)]
    one = ones[0]
    assert all(P is one for P in ones)
    identity = Packed.identity(sys.modules[0].dim, sys.conductor,
                               sys.pair_width())
    assert (one.rows, one.masks, one.den) == (identity.rows, identity.masks,
                                              identity.den)


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_the_identity_sweep_builds_one_identity(cold, monkeypatch):
    """A light check on (Z/3)^4 compares its 80 pairs (i, i) and their
    negations with one ``Packed.identity`` per call, at the form of the
    first pair it reads; from a cold pair cache the system builds its own
    shared identity besides, which the sweep's is not."""
    sys = canonrep.build_pi(standard_module([(3, 2)]),
                            system_verify="none").system
    made = []
    identity = Packed.identity

    def counted(dim, n, width):
        made.append(identity(dim, n, width))
        return made[-1]

    assert check_system_axioms(sys, level="light", seed=0).ok()
    monkeypatch.setattr(Packed, "identity", staticmethod(counted))
    for _call in range(2):
        made.clear()
        if cold:
            sys._pair_cache.clear()
        report = check_system_axioms(sys, level="light", seed=0)
        assert report.ok()
        assert "80 points" in report.text()
        assert len(made) == (2 if cold else 1)
        shared = sys._pair_cache[0, 0]
        assert shared is sys._pair_cache[1, 1] and made[-1] is not shared
        assert (made[-1].rows, made[-1].width, made[-1].n) == (
            shared.rows, sys.pair_width(), sys.conductor)
    sys._pair_cache.clear()


def test_a_pair_at_another_width_fails_with_its_forms(solved_z3):
    """One cached pair of (Z/3)^2 replaced by the same values one digit bit
    wider: the check does not raise, and the transitivity sweep fails with
    a triple through that pair and the two forms in its witness."""
    sys, _i = solved_z3
    sys = _tampered(sys)
    key = (1, 0)
    P = sys.pair((key[0], 1), (key[1], 1))
    w = P.width + 1
    rows = [[sum(c << (w * t) for t, c in enumerate(_digits(x, P.width, P.n)))
             for x in row] for row in packed_entries(P)]
    sys._pair_cache[key] = Packed.from_entries(rows, P.masks, P.n, P.den, w,
                                               P.height)
    assert sys.operator((key[0], 1), (key[1], 1)) == P.to_dense()
    report = check_system_axioms(sys, level="light", seed=1,
                                 transitivity_samples=10 ** 6)
    assert "transitivity over enhanced triples" in _failed(report)
    detail = dict((n, d) for (n, _p, d) in report.checks)[
        "transitivity over enhanced triples"]
    witness, reason = detail.split("; first failure ")[1].split(": ", 1)
    triple = ast.literal_eval(witness)
    assert key in {(triple[0][0], triple[1][0]), (triple[1][0], triple[2][0]),
                   (triple[0][0], triple[2][0])}, triple
    assert all("conductor 3, width %d" % v in reason for v in (P.width, w)), \
        detail


def test_a_wrong_sign_fails_genuineness_with_its_pair(checked_system,
                                                      monkeypatch):
    """A pair that does not negate under one lift flip fails genuineness,
    and the check names a pair through it; the passing report has no
    witness."""
    sys, kwargs = checked_system
    kwargs = dict(kwargs, equivariance_pairs=[])
    passing = check_system_axioms(sys, level="full", **kwargs)
    assert passing.ok() and "first failure" not in passing.text()
    pair = sys.pair

    def unflipped(n0, l0):
        out = pair(n0, l0)
        return -out if (n0, l0) == ((1, -1), (0, 1)) else out

    monkeypatch.setattr(sys, "pair", unflipped)
    report = check_system_axioms(sys, level="full", **kwargs)
    assert _failed(report) == ["transitivity over enhanced triples",
                               "genuineness under lift flips"]
    n0, l0 = _witness(report, "genuineness under lift flips")
    assert (n0[0], l0[0]) == (1, 0)


def test_pair_conductor_that_is_not_a_prime_power_fails(solved_z3):
    """A scale outside Q(zeta_3) puts some pairs at conductor 21: the
    packed sweep refuses it as a failure that names the conductor."""
    sys, i = solved_z3
    c = dict(sys.c)
    c[i] = c[i] * root_of_unity(7)
    report = check_system_axioms(_tampered(sys, c=c), level="light")
    detail = dict((n, d) for (n, _p, d) in report.checks)[
        "transitivity over enhanced triples"]
    assert "not 21" in detail


# The light check at the sample sizes of ``heisenrep verify --level quick``
# (200 triples, 40 genuineness pairs, 10 transvections and 10 point pairs;
# six ``sp_sample`` elements through ``g_to_gc`` on the lifted system), as
# the benchmark's verify workload runs it: the SHA-256 of ``report.text()``
# at seed 1 (``sp_sample`` seed 5), and the numbers of distinct
# (automorphism, source, target) transports and (automorphism, point)
# images the equivariance sweep needs.
LIGHT_REPORTS = [
    ([(3, 2)],
     "c92bd5378c012327685f565de5196bdd00a9c0b0fc473b8ba18a751d0f37962d",
     150, 160),
    ([(7, 1)],
     "f587f6567a115061ae51df3c81a4a2d3816bb71b01c6a4f85a90313357eb603e",
     70, 110),
    ([(9, 1), (3, 1)],
     "ceab0710711b38c45dd36a6bc9c169fdaf7193131473f49e33430605cb693344",
     24, 48),
]


def _light_system(blocks):
    """The system of ``standard_module(blocks)`` and the keyword arguments
    of its light check as the verify workload passes them."""
    M = standard_module(blocks)
    pi = canonrep.build_pi(M, system_verify="none")
    sys, kwargs = pi.system, {}
    if sys is not pi.system_c:
        kwargs = {"equivariance_pairs": [(g, g_to_gc(pi.red, g))
                                         for g in sp_sample(M, 5, 6)],
                  "report_title": "lifted canonical system on %r" % (M,)}
    return sys, kwargs


@pytest.mark.parametrize("blocks,digest,transports,images", LIGHT_REPORTS,
                         ids=["3^4", "7^2", "lifted 9^2+3^2"])
def test_light_reports_pinned_with_one_transport_per_key(
        blocks, digest, transports, images, monkeypatch):
    """The light reports are pinned; within one call ``g_transport`` runs
    once per distinct (automorphism, source, target) and ``act_point`` once
    per distinct (automorphism, point), and a second call, from a cold
    pair cache, does that work again."""
    sys, kwargs = _light_system(blocks)
    moves, points = [], []
    g_transport, act_point = verify.g_transport, CanonicalSystem.act_point

    def transport(g, source, target):
        moves.append((id(g), id(source), id(target)))
        return g_transport(g, source, target)

    def image(self, g, n0):
        points.append((id(g), n0))
        return act_point(self, g, n0)

    monkeypatch.setattr(verify, "g_transport", transport)
    monkeypatch.setattr(CanonicalSystem, "act_point", image)
    for _call in range(2):
        moves.clear()
        points.clear()
        sys._pair_cache.clear()
        report = check_system_axioms(sys, level="light", seed=1, **kwargs)
        assert hashlib.sha256(report.text().encode()).hexdigest() == digest, \
            report.text()
        assert len(moves) == len(set(moves)) == transports
        assert len(points) == len(set(points)) == images


@pytest.mark.parametrize("blocks,digest,products", [
    (blocks, digest, products) for (blocks, digest, _t, _i), products
    in zip(LIGHT_REPORTS, [200, 176, 64])], ids=["3^4", "7^2", "lifted 9^2+3^2"])
def test_light_transitivity_multiplies_once_per_lagrangian_triple(
        blocks, digest, products, monkeypatch):
    """The 200 sampled enhanced triples of a light check at seed 1 lie over
    200, 176 and 64 lagrangian triples (of 64,000, 512 and 64), and one
    packed product per lagrangian triple decides them all: each call, from
    a cold pair cache, makes that many products and gives the pinned
    report."""
    sys, kwargs = _light_system(blocks)
    made = []
    matmul = Packed.__matmul__

    def counted(a, b):
        made.append(None)
        return matmul(a, b)

    monkeypatch.setattr(Packed, "__matmul__", counted)
    for _call in range(2):
        made.clear()
        sys._pair_cache.clear()
        report = check_system_axioms(sys, level="light", seed=1, **kwargs)
        assert hashlib.sha256(report.text().encode()).hexdigest() == digest, \
            report.text()
        assert "200 triples" in report.text()
        assert len(made) == products
    sys._pair_cache.clear()


def test_a_tampered_signed_pair_is_multiplied_out(solved_z3):
    """On (Z/3)^2 the signed pair ((1, -1), (0, 1)) is given the form of
    its lift-(+1) pair with one entry times zeta_3.  Over all 512 triples,
    in product order, a clean triple over the lagrangians of the first
    triple through the tampered pair comes before it (lift 1 at 1 sorts
    before lift -1), so that lagrangian triple has held when the tampered
    pair is reached; its sign is neither 1 nor -1, so the triple is
    multiplied out and fails, and the witness is that first triple through
    the tampered pair."""
    sys = _tampered(solved_z3[0])
    points = sys.enhanced()
    signed = ((1, -1), (0, 1))
    clean = sys.pair((1, 1), (0, 1))
    tampered = _entry_times_root(clean, *next(
        (i, j) for i, row in enumerate(packed_entries(clean))
        for j, x in enumerate(row) if x))
    assert tampered.sign_to(clean) == tampered.sign_to(-clean) == 0
    pair = sys.pair
    sys.pair = lambda n0, l0: tampered if (n0, l0) == signed else pair(n0, l0)
    report = check_system_axioms(sys, level="light", seed=1,
                                 transitivity_samples=10 ** 6)
    assert "transitivity over enhanced triples" in _failed(report)
    triple = _witness(report, "transitivity over enhanced triples")
    assert signed in {(triple[0], triple[1]), (triple[1], triple[2]),
                      (triple[0], triple[2])}, triple
    order = list(itertools.product(points, repeat=3))
    through = [signed in {(t[0], t[1]), (t[1], t[2]), (t[0], t[2])}
               for t in order]
    first = through.index(True)
    key = tuple(point[0] for point in order[first])
    assert any(tuple(point[0] for point in t) == key and not through[index]
               for index, t in enumerate(order[:first])), order[first]
    assert triple == order[first]


def test_light_report_pinned_on_z5_4():
    """The light report of (Z/5)^4 at seed 0 is pinned.  Its 156
    lagrangians give 200 sampled triples over 200 distinct lagrangian
    triples, so the sweep multiplies every triple out."""
    sys = canonrep.build_pi(standard_module([(5, 2)]),
                            system_verify="none").system
    report = check_system_axioms(sys, level="light", seed=0)
    assert report.ok()
    assert hashlib.sha256(report.text().encode()).hexdigest() == (
        "21081904555a5831d8110910ae333bbbdfa690ede700e5e4c0be72192654e919")


@pytest.mark.parametrize("level", ["light", "full"])
def test_a_check_keeps_only_pairs_in_the_pair_cache(checked_system, level):
    """After a check the pair cache holds the pairs (i, j) and the
    system's scales under None, and nothing that the sweeps made."""
    sys, kwargs = checked_system
    sys._pair_cache.clear()
    if level == "full":
        kwargs = dict(kwargs, equivariance_pairs=kwargs.get(
            "equivariance_pairs", [])[:1], transitivity_samples=300)
    assert check_system_axioms(sys, level=level, seed=1, **kwargs).ok()
    keys = set(sys._pair_cache)
    assert None in keys
    pairs = keys - {None}
    assert pairs and all(
        type(key) is tuple and len(key) == 2
        and all(type(i) is int and 0 <= i < sys.count for i in key)
        for key in pairs), sorted(map(repr, keys))
    sys._pair_cache.clear()
