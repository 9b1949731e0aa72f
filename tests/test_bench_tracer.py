"""The benchmark tracer still finds every library function and method it
wraps, and ``uninstall`` puts every patched attribute back."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _library_attributes():
    """(module, name) or (module, class, name) -> value, for every
    attribute of every loaded library module and of every class that
    module defines."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "heisenrep" or key.startswith("heisenrep.")):
            continue
        for name, value in vars(mod).items():
            out[(key, name)] = value
            if isinstance(value, type) and value.__module__ == key:
                for attr, member in vars(value).items():
                    out[(key, name, attr)] = member
    return out


def test_tracer_install_and_uninstall_restore_the_library():
    tracer = _load_tracer()
    for _name, mod, *_rest in tracer.FUNCTIONS + tracer.METHODS:
        importlib.import_module("heisenrep." + mod)
    before = _library_attributes()
    t = tracer.Tracer()
    t.install()
    try:
        patched = list(t._patched)
        during = _library_attributes()
    finally:
        t.uninstall()
    after = _library_attributes()
    # each listed function is wrapped in the module that defines it, and
    # each listed method on its class
    wrapped = {(id(owner), attr) for owner, attr, _orig in patched}
    for _name, mod, attr in tracer.FUNCTIONS:
        module = importlib.import_module("heisenrep." + mod)
        assert (id(module), attr) in wrapped, (mod, attr)
    for _name, mod, cls, meth in tracer.METHODS:
        owner = getattr(importlib.import_module("heisenrep." + mod), cls)
        assert (id(owner), meth) in wrapped, (mod, cls, meth)
    changed = [key for key, value in before.items() if during[key] is not value]
    assert len(changed) == len(wrapped)
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert after.keys() == before.keys()
