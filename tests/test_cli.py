import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import heisenrep
from heisenrep.cli import main, parse_standard_spec, UsageError


def run_cli(args, tmp_path=None):
    from io import StringIO
    import contextlib

    out = StringIO()
    err = StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_parse_standard_spec():
    assert parse_standard_spec("3^1:1") == [(3, 1)]
    assert parse_standard_spec("3^2:1+3^1:2") == [(9, 1), (3, 2)]
    with pytest.raises(UsageError):
        parse_standard_spec("2^1:1")
    with pytest.raises(UsageError):
        parse_standard_spec("nonsense")


def test_standard_and_info(tmp_path):
    mod = tmp_path / "m.json"
    code, out, _ = run_cli(["standard", "3^1:1", "--out", str(mod)])
    assert code == 0
    data = json.loads(mod.read_text())
    assert data == {"orders": [3, 3], "gram": [[0, 1], [2, 0]]}
    code, out, _ = run_cli(["info", str(mod)])
    assert code == 0
    info = json.loads(out)
    assert info["exponent"] == 3 and info["size"] == 9 and info["valid"]


def test_standard_even_rejected():
    code, _out, err = run_cli(["standard", "2^1:1"])
    assert code == 2
    assert "odd" in err


def test_lagrangians_counts(tmp_path):
    mod = tmp_path / "m.json"
    run_cli(["standard", "3^1:2", "--out", str(mod)])
    code, out, _ = run_cli(["lagrangians", str(mod)])
    assert code == 0
    assert json.loads(out)["count"] == 40


def test_lagrangians_budget_exit(tmp_path):
    mod = tmp_path / "m.json"
    run_cli(["standard", "3^1:2", "--out", str(mod)])
    code, _out, err = run_cli(["lagrangians", str(mod), "--budget", "3"])
    assert code == 2
    assert "budget" in err


def test_reduce_examples(tmp_path):
    mod = tmp_path / "m27.json"
    run_cli(["standard", "3^3:1", "--out", str(mod)])
    code, out, _ = run_cli(["reduce", str(mod)])
    assert code == 0
    data = json.loads(out)
    assert data["exponent_chain"] == [3, 1]
    assert data["Mc"]["orders"] == [3, 3]
    assert data["S"]["gens"] == [[9, 0], [0, 9]]


def test_corrupted_module_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"orders": [3, 3], "gram": [[0, 1], [1, 0]]}))
    code, _out, err = run_cli(["info", str(bad)])
    assert code == 2
    code, _out, err = run_cli(["verify", str(bad)])
    assert code == 2
    missing = tmp_path / "missing.json"
    code, _out, err = run_cli(["info", str(missing)])
    assert code == 2
    for data in ({"orders": ["a", 3], "gram": [[0, 1], [2, 0]]},
                 {"orders": [3.5, 3], "gram": [[0, 1], [2, 0]]},
                 {"orders": [3, 3], "gram": [[0, "1"], [2, 0]]}):
        bad.write_text(json.dumps(data))
        for command in ("info", "gauss"):
            code, _out, err = run_cli([command, str(bad)])
            assert code == 2, (command, data)
            assert err.startswith("error:") and "Traceback" not in err


def test_system_export_roundtrip(tmp_path):
    mod = tmp_path / "m.json"
    run_cli(["standard", "3^1:1", "--out", str(mod)])
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    assert run_cli(["system", str(mod), "--out", str(out1)])[0] == 0
    assert run_cli(["system", str(mod), "--out", str(out2)])[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["basepoint"] == "L0:+"
    assert len(data["anchored"]) == 8
    from heisenrep.kmat import mat_from_json
    from heisenrep.cyclo import CycNum

    mat = mat_from_json(data["anchored"]["L0:+"])
    assert mat[0][0] == 1
    # reserialization is byte-stable
    from heisenrep.kmat import mat_to_json

    assert mat_to_json(mat) == data["anchored"]["L0:+"]


def test_system_base_flag(tmp_path):
    mod = tmp_path / "m.json"
    run_cli(["standard", "3^1:1", "--out", str(mod)])
    code, out, _ = run_cli(["system", str(mod), "--base", "2"])
    assert code == 0
    assert json.loads(out)["basepoint"] == "L2:+"


@pytest.mark.parametrize("command", ["system", "pi"])
@pytest.mark.parametrize("base", ["99", "-1"])
def test_out_of_range_base_is_usage_error(tmp_path, command, base):
    mod = tmp_path / "m.json"
    run_cli(["standard", "3^1:2", "--out", str(mod)])
    code, out, err = run_cli([command, str(mod), "--base", base])
    assert code == 2 and out == ""
    assert err.startswith("error: basepoint index %s " % base)
    assert "40 lagrangians" in err


@pytest.mark.parametrize("command", ["system", "pi"])
def test_budget_reaches_the_solver(tmp_path, command):
    mod = tmp_path / "m.json"
    run_cli(["standard", "3^1:1", "--out", str(mod)])
    code, out, err = run_cli([command, str(mod), "--budget", "8"])
    assert code == 2 and out == ""
    assert err.startswith("error: lagrangian enumeration budget exceeded")
    assert "Traceback" not in err


def test_verify_honours_the_budget(tmp_path):
    # |M| = 121 > 81: verify refuses to build the representation, as pi does
    mod = tmp_path / "m.json"
    run_cli(["standard", "11^1:1", "--out", str(mod)])
    code, out, err = run_cli(["verify", str(mod), "--budget", "81"])
    assert code == 2 and out == ""
    assert err.startswith("error: lagrangian enumeration budget exceeded")
    assert "Traceback" not in err


# SHA-256 of the stdout of ``heisenrep pi`` and ``heisenrep system``, which
# run the light self-check that the benchmark's construct path skips
CLI_DIGESTS = [
    ("pi", "3^1:1",
     "735514bca9cd4010fdd8b579a6a7f5d3bf23cc966d60d4e81122bce2ea79a3e6"),
    ("system", "3^1:1",
     "33d054dc7d901aa45371baa5d6ed5dd9d1158bc699450c7f964701b57c3b31d6"),
    ("pi", "3^2:1+3^1:1",
     "f917021be225aec5cfb20c6eaa062df201f83b0028c81391a338382bcae7dec7"),
    ("system", "3^2:1+3^1:1",
     "c32bf0683d93373eb8db88473027616bbf1650694830adb08c5536e78eaf64fb"),
    ("pi", "5^1:1+3^1:1",
     "a8e820cef824d9c1122001fec0037a85f64d0b6acd242b7a0d03b905bc4b5009"),
    # ``heisenrep lagrangians``, recorded at 31c8883 (before the F_p walk):
    # (Z/9)^2 and (Z/25)^2 take the lattice walk; (Z/5)^2, (Z/3)^4 and a
    # (Z/5)^2 with a non-standard gram the F_p walk
    ("lagrangians", "3^2:1",
     "3ed343dd1fb3391ce7562a59b0bef141eb12b060f57d813b63708af094739495"),
    ("lagrangians", "5^2:1",
     "61a12920d6c14f553df55d584b6aa9ab6c75741d3689076c0ed0c873d18a40ae"),
    ("lagrangians", "5^1:1",
     "8edc72ff13e3fe2ea08c08b048e500135d60db037b1836499d13db1e97fa5186"),
    ("lagrangians", "3^1:2",
     "f972878d25647560750548d3ce7bc932038bd62060ededb7e8fafeb55d1ff20a"),
    ("lagrangians", {"orders": [5, 5], "gram": [[0, 2], [3, 0]]},
     "8edc72ff13e3fe2ea08c08b048e500135d60db037b1836499d13db1e97fa5186"),
    # 262 KB, many values repeated across the anchored maps, recorded at
    # 15eb68c (written by ``json.dumps``)
    ("system", "3^1:2",
     "67012dc85aa53cddb03e22be1a6f8977894fe3c3ff3afe5d140eae5a6b2d527e"),
    # 7.1 MB: the lifted (Z/27)^2, its anchored maps and pair table at
    # conductor 27 over a solved system at 3, recorded at dd7a5ec
    ("system", "27^1:1",
     "ae9e26626ea2457aa47fb0f2c02022bf8351d349a74a4b1c856c9a792c858238"),
]


@pytest.mark.parametrize("command,spec,digest", CLI_DIGESTS)
def test_cli_construct_output_pinned(tmp_path, command, spec, digest):
    """``spec`` is a standard block spec, or a module as JSON."""
    import hashlib

    mod = tmp_path / "m.json"
    if isinstance(spec, dict):
        mod.write_text(json.dumps(spec))
    else:
        run_cli(["standard", spec, "--out", str(mod)])
    code, out, err = run_cli([command, str(mod)])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the stdout of ``heisenrep verify --seed 7``: the elementary,
# the lifted and the tensor path, recorded at 349dee9
VERIFY_DIGESTS = [
    ("3^1:1",
     "c54522add599d788c0bb0f43deeeaff84454a494ec90f4d2f62af0b334ddbf44"),
    ("3^2:1+3^1:1",
     "741b8ca99d03b6aae147bb0be104c2f2dbd783e86f01a1a210f37a1996087abd"),
    ("5^1:1+3^1:1",
     "2f126d7846c4d1f1ba4c1c72a128c9488563bbfdc8456cae20eca30abfaafb88"),
]


@pytest.mark.parametrize("spec,digest", VERIFY_DIGESTS)
def test_cli_verify_output_pinned(tmp_path, spec, digest):
    import hashlib

    mod = tmp_path / "m.json"
    run_cli(["standard", spec, "--out", str(mod)])
    code, out, _err = run_cli(["verify", str(mod), "--seed", "7"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_system_export_omits_a_large_pair_table(tmp_path):
    # (Z/25)^2+(Z/5)^2: 6 lagrangians of dimension 125, so the pair table
    # would hold 2.25 M entries; the anchored maps determine it
    mod = tmp_path / "m.json"
    run_cli(["standard", "5^2:1+5^1:1", "--out", str(mod)])
    code, out, err = run_cli(["system", str(mod)])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert "pairs" not in data and len(data["anchored"]) == 12


def reference_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _forms():
    """Entry forms as ``mat_to_json`` makes them, and an equal form that is
    a distinct object."""
    from heisenrep.cyclo import CycNum, root_of_unity
    from heisenrep.kmat import Form, mat_to_json

    row = mat_to_json([[CycNum.zero(1), CycNum.zero(9), root_of_unity(9, 2),
                        root_of_unity(5, 1) / -7, CycNum.one(3)]])[0]
    return row + [Form(row[2])]


FORMS = _forms()
TEXTS = st.one_of(st.text(), st.sampled_from(
    ['"', "\\", "\x00", "\x1f\n\t", "\x7f", "\u00e9", "\u2028",
     "\ud800", "\U0001f600", 'a"b\\c']))
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.integers(min_value=-2 ** 200, max_value=-2 ** 64),
    TEXTS, st.sampled_from(FORMS))
ROWS = st.lists(st.sampled_from(FORMS), min_size=1)
TREES = st.recursive(
    st.one_of(LEAVES, ROWS),
    lambda children: st.one_of(
        st.lists(children), st.lists(children).map(tuple),
        st.dictionaries(TEXTS, children),
        st.tuples(ROWS, st.lists(children)).map(lambda t: t[0] + t[1])),
    max_leaves=30)


@settings(max_examples=300)
@given(TREES)
def test_writer_matches_json_dumps(tree):
    from heisenrep.cli import dumps

    assert dumps(tree) == reference_dumps(tree)


@settings(max_examples=100)
@given(st.one_of(st.lists(st.integers()), st.lists(st.integers()).map(tuple),
                 st.lists(st.one_of(st.integers(), st.booleans()))))
def test_writer_matches_json_dumps_on_int_lists(v):
    """A list of ints is one piece; a bool among them (an int by
    ``isinstance``, not by type) is written item by item."""
    from heisenrep.cli import write_json

    pieces = []
    write_json(v, pieces.append)
    assert "".join(pieces) == reference_dumps(v)
    if all(type(x) is int for x in v):
        assert len(pieces) == 2


def test_writer_refuses_what_the_program_never_writes():
    from heisenrep.cli import dumps

    with pytest.raises(TypeError):
        dumps({"x": object()})
    with pytest.raises(TypeError):
        dumps({1: 2})


CONSTRUCT_SPECS = ["3^1:1", "5^1:1", "7^1:1", "11^1:1", "3^1:2", "27^1:1",
                   "3^2:1+3^1:1", "3^1:1+5^1:1"]


@pytest.mark.parametrize("spec", CONSTRUCT_SPECS)
def test_writer_matches_json_dumps_on_the_construct_exports(spec):
    from heisenrep.canonrep import build_pi
    from heisenrep.cli import dumps
    from heisenrep.symplectic import standard_module

    export = build_pi(standard_module(parse_standard_spec(spec)),
                      system_verify="none").export()
    assert dumps(export) == reference_dumps(export)


@pytest.mark.parametrize("spec", ["3^1:1", "3^1:2", "3^2:1+3^1:1"])
def test_writer_matches_json_dumps_on_system_exports(spec):
    """The same bytes, in pieces each shorter than any one anchored map."""
    from heisenrep.canonrep import CanonicalRep
    from heisenrep.cli import write_json
    from heisenrep.symplectic import standard_module

    export = CanonicalRep(standard_module(parse_standard_spec(spec)),
                          system_verify="none").system.export()
    pieces = []
    write_json(export, pieces.append)
    assert "".join(pieces) == reference_dumps(export)
    assert max(map(len, pieces)) < min(
        len(reference_dumps(m)) for m in export["anchored"].values())


def test_emit_writes_the_same_bytes_to_out_and_stdout(tmp_path):
    mod = tmp_path / "m.json"
    run_cli(["standard", "3^2:1+3^1:1", "--out", str(mod)])
    out = tmp_path / "pi.json"
    assert run_cli(["pi", str(mod), "--out", str(out)]) == (0, "", "")
    code, text, _ = run_cli(["pi", str(mod)])
    assert code == 0 and out.read_text() == text


def test_pi_export_and_roundtrip(tmp_path):
    mod = tmp_path / "m.json"
    run_cli(["standard", "3^1:1", "--out", str(mod)])
    code, out, _ = run_cli(["pi", str(mod)])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 3
    reparsed = json.loads(json.dumps(data, sort_keys=True))
    assert reparsed == data


def test_gauss_command(tmp_path):
    inp = tmp_path / "g.json"
    inp.write_text(json.dumps({"orders": [3], "gram": [[1]]}))
    code, out, _ = run_cli(["gauss", str(inp)])
    assert code == 0
    data = json.loads(out)
    assert data["identity_holds"] is True
    assert data["order_squared"] == 9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"orders": [3], "gram": [[0]]}))
    assert run_cli(["gauss", str(bad)])[0] == 2


def test_verify_quick_deterministic(tmp_path):
    mod = tmp_path / "m.json"
    run_cli(["standard", "3^1:1", "--out", str(mod)])
    o1 = tmp_path / "v1.json"
    o2 = tmp_path / "v2.json"
    c1, _, _ = run_cli(["verify", str(mod), "--out", str(o1), "--seed", "7"])
    c2, _, _ = run_cli(["verify", str(mod), "--out", str(o2), "--seed", "7"])
    assert c1 == 0 and c2 == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_reduce_composite_is_usage_error(tmp_path):
    mod = tmp_path / "m15.json"
    mod.write_text(json.dumps({"orders": [15, 15], "gram": [[0, 1], [14, 0]]}))
    code, _out, err = run_cli(["reduce", str(mod)])
    assert code == 2
    assert "primary" in err


def test_pi_composite_exponent(tmp_path):
    mod = tmp_path / "m15.json"
    mod.write_text(json.dumps({"orders": [15, 15], "gram": [[0, 1], [14, 0]]}))
    code, out, _ = run_cli(["pi", str(mod)])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 15
    assert [part["p"] for part in data["primary"]] == [3, 5]
    assert all(part["export"]["dim"] in (3, 5) for part in data["primary"])


def test_verify_composite_exponent(tmp_path):
    mod = tmp_path / "m15.json"
    mod.write_text(json.dumps({"orders": [15, 15], "gram": [[0, 1], [14, 0]]}))
    code, out, _ = run_cli(["verify", str(mod)])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_console_entry_point():
    # the child imports the package from where this process found it, so
    # the test also runs from a checkout without PYTHONPATH
    src = os.path.dirname(os.path.dirname(heisenrep.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "heisenrep.cli", "standard", "3^1:1"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"orders": [3, 3], "gram": [[0, 1], [2, 0]]}


FUZZ_COMMANDS = ["info", "lagrangians", "reduce", "system", "pi", "verify",
                 "gauss"]


@st.composite
def module_json(draw):
    """{"orders", "gram"} objects: hyperbolic pairs with a unit multiple of
    the standard pairing and order-1 summands in a random basis order, or
    random orders with an alternating, symmetric or random gram, sometimes
    of the wrong shape or with non-integer values."""
    junk = st.sampled_from([None, "3", 1.5, [], {}, True])
    if draw(st.booleans()):
        q = draw(st.sampled_from([3, 5, 7, 9, 11, 15]))
        u = draw(st.integers(1, q - 1))
        orders = [q, q] + [1] * draw(st.integers(0, 2))
        gram = [[0] * len(orders) for _ in orders]
        gram[0][1], gram[1][0] = u, -u
        perm = draw(st.permutations(range(len(orders))))
        return {"orders": [orders[i] for i in perm],
                "gram": [[gram[i][j] for j in perm] for i in perm]}
    valid = [1, 3, 3, 3, 5, 7, 9, 15]
    order = st.one_of(st.sampled_from(valid + [2, 0, -3]), junk) \
        if draw(st.integers(0, 9)) == 0 else st.sampled_from(valid)
    orders = draw(st.lists(order, max_size=4).filter(_small))
    m = len(orders)
    kind = draw(st.sampled_from(["alternating", "symmetric", "random",
                                 "shape", "junk"]))
    entry = st.integers(-10, 10)
    upper = {(i, j): draw(entry) for i in range(m) for j in range(i + 1, m)}
    gram = [[0] * m for _ in range(m)]
    for (i, j), x in upper.items():
        gram[i][j] = x
        gram[j][i] = -x if kind == "alternating" else x
    if kind == "random":
        gram = [[draw(entry) for _ in range(m)] for _ in range(m)]
    elif kind == "shape":
        gram = gram[:-1] if m and draw(st.booleans()) else gram + [[0] * m]
    elif kind == "junk" and m:
        gram[draw(st.integers(0, m - 1))][0] = draw(junk)
    return {"orders": orders, "gram": gram}


def _small(orders):
    """Whether at most two integer orders exceed 1, so that every command
    on a valid module ends within about a second; ``verify`` on (Z/3)^4
    alone takes 20 s."""
    return sum(isinstance(d, int) and abs(d) > 1 for d in orders) <= 2


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "module.json"


@settings(max_examples=60, deadline=None)
@given(data=module_json(), command=st.sampled_from(FUZZ_COMMANDS))
def test_cli_exit_codes_on_random_modules(fuzz_file, data, command):
    fuzz_file.write_text(json.dumps(data))
    try:
        code, _out, err = run_cli([command, str(fuzz_file), "--budget", "81"])
    except Exception as exc:  # anything escaping main is a traceback
        pytest.fail("%s on %r raised %r" % (command, data, exc))
    assert code in (0, 1, 2), (command, data, code)
    if code == 2:
        assert err.startswith("error:"), (command, data, err)
    assert "Traceback" not in err
