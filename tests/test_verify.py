import itertools
import json
import random

import pytest
from helpers import check_inverse_symmetry

from heisenrep import canonrep, verify
from heisenrep.intertwine import solve_canonical_system
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
