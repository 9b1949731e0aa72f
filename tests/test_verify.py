import itertools
import json
import random

import pytest
from helpers import check_inverse_symmetry

from dense_oracle import anchored_entries_in_field

from heisenrep import canonrep, verify
from heisenrep.cyclo import root_of_unity
from heisenrep.intertwine import CanonicalSystem, solve_canonical_system
from heisenrep.kmat import PhaseMat
from heisenrep.symplectic import SympMod, standard_module
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
        sys.c if c is None else c, sys.conductor)


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
    # a phase matrix of modulus 5 * 3 in a module of exponent 3 is the one
    # whose entries are tested on their own, not through their scalar: the
    # same roots of unity at exponents 5 e, and one entry zeta_15^3 = zeta_5
    sys, i = solved_z3
    T = sys.T_LB[i]
    rows = [[(k, 5 * e) for k, e in row] for row in T.rows]
    rows[0][0] = (rows[0][0][0], 3)
    T_LB = list(sys.T_LB)
    T_LB[i] = PhaseMat(rows, T.cols, 5 * T.n)
    bad = _tampered(sys, T_LB=T_LB)
    assert bad.entries_in_field() is anchored_entries_in_field(bad) is False
    # the same matrix without the tampered entry passes
    rows[0][0] = (rows[0][0][0], 5 * T.rows[0][0][1])
    T_LB[i] = PhaseMat(rows, T.cols, 5 * T.n)
    good = _tampered(sys, T_LB=T_LB)
    assert good.entries_in_field() is anchored_entries_in_field(good) is True
