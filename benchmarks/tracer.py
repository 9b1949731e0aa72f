"""In-memory span tracer for the heisenrep benchmark.

The tracer wraps the public functions and methods of each library layer from
outside the library: every ``heisenrep.*`` module attribute that is one of the
listed functions is replaced (the modules import each other's functions by
name, so patching only the defining module would miss most calls), and the
listed methods are replaced on their classes.  Each wrapped call records a
span (name, start, end, parent, operation id) in flat arrays; self time is a
span's duration minus the time covered by its child spans.  Cyclotomic
scalar arithmetic is only counted, never spanned, so its time stays in the
caller's self time.

Installing the tracer changes no result of the library; ``uninstall``
restores every patched attribute.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (metric prefix, module, function) for wrapped module-level functions
FUNCTIONS = [
    ("kmat.mat_mul", "kmat", "mat_mul"),
    ("kmat.mat_eq", "kmat", "mat_eq"),
    ("kmat.kron", "kmat", "kron"),
    ("kmat.proportionality", "kmat", "proportionality"),
    ("intlin.hnf", "intlin", "hnf"),
    ("abgroup.subgroup_from_gens", "abgroup", "subgroup_from_gens"),
    ("symplectic.enumerate_lagrangians", "symplectic", "enumerate_lagrangians"),
    ("symplectic.act_enhanced", "symplectic", "act_enhanced"),
    ("heisenberg.induce", "heisenberg", "induce"),
    ("heisenberg.g_transport", "heisenberg", "g_transport"),
    ("intertwine.standard_T", "intertwine", "standard_T"),
    ("intertwine.solve_canonical_system", "intertwine", "solve_canonical_system"),
    ("intertwine.hom_dim", "intertwine", "hom_dim"),
    ("reduction.lift_canonical_system", "reduction", "lift_canonical_system"),
    ("reduction.g_to_gc", "reduction", "g_to_gc"),
    ("canonrep.build_pi", "canonrep", "build_pi"),
    ("canonrep.verify_svn", "canonrep", "verify_svn"),
    ("verify.check_system_axioms", "verify", "check_system_axioms"),
    ("cli.dumps", "cli", "dumps"),
]

# (metric prefix, module, class, method) for wrapped methods
METHODS = [
    ("kmat.genperm_apply", "kmat", "GenPerm", "apply_left"),
    ("kmat.genperm_apply", "kmat", "GenPerm", "apply_right"),
    ("symplectic.on_subgroup", "symplectic", "SympAut", "on_subgroup"),
    ("heisenberg.character", "heisenberg", "InducedModule", "character"),
    ("intertwine.operator", "intertwine", "CanonicalSystem", "operator"),
    ("reduction.ReductionData", "reduction", "ReductionData", "__init__"),
    ("canonrep.export", "canonrep", "CanonicalRep", "export"),
    ("canonrep.export", "canonrep", "TensorRep", "export"),
    ("canonrep.act_g", "canonrep", "CanonicalRep", "act_g"),
    ("canonrep.act_g", "canonrep", "TensorRep", "act_g"),
    ("canonrep.act_h", "canonrep", "CanonicalRep", "act_h"),
    ("canonrep.act_h", "canonrep", "TensorRep", "act_h"),
]

# CycNum operations, counted at the outermost call only: __sub__ adds and
# __truediv__ inverts internally, and those inner calls are not separate
# operations of the caller.
CYCLO_COUNTERS = [
    ("cyclo.mul.calls", ("__mul__", "__rmul__")),
    ("cyclo.add.calls", ("__add__", "__radd__", "__sub__", "__rsub__")),
    ("cyclo.div.calls", ("inverse", "__truediv__", "__rtruediv__")),
    ("cyclo.galois.calls", ("galois",)),
]

# calls of the first span counted while the second is open anywhere above it
UNDER = [
    ("symplectic.act_enhanced", "intertwine.solve_canonical_system"),
    ("kmat.proportionality", "intertwine.solve_canonical_system"),
    ("kmat.mat_mul", "intertwine.operator"),
]

PACKAGE = "heisenrep"
OP_SPAN = "bench.op"

# every per-layer metric the traced run reports, with its unit
PER_LAYER = [
    ("bench.ops", "count"),
    ("trace.overhead_s", "s"),
    ("cyclo.mul.calls", "count"),
    ("cyclo.add.calls", "count"),
    ("cyclo.div.calls", "count"),
    ("cyclo.galois.calls", "count"),
    ("kmat.mat_mul.calls", "count"),
    ("kmat.mat_mul.madds", "count"),
    ("kmat.mat_mul.self_s", "s"),
    ("kmat.mat_eq.calls", "count"),
    ("kmat.mat_eq.self_s", "s"),
    ("kmat.genperm_apply.calls", "count"),
    ("kmat.genperm_apply.self_s", "s"),
    ("kmat.kron.self_s", "s"),
    ("kmat.proportionality.calls", "count"),
    ("intlin.hnf.calls", "count"),
    ("intlin.hnf.self_s", "s"),
    ("abgroup.subgroup_from_gens.calls", "count"),
    ("abgroup.subgroup_from_gens.self_s", "s"),
    ("symplectic.enumerate_lagrangians.self_s", "s"),
    ("symplectic.lagrangians", "count"),
    ("symplectic.act_enhanced.calls", "count"),
    ("symplectic.act_enhanced.self_s", "s"),
    ("symplectic.act_enhanced_per_lagrangian", "ratio"),
    ("symplectic.on_subgroup.calls", "count"),
    ("symplectic.on_subgroup.self_s", "s"),
    ("heisenberg.induce.calls", "count"),
    ("heisenberg.induce.self_s", "s"),
    ("heisenberg.g_transport.calls", "count"),
    ("heisenberg.g_transport.self_s", "s"),
    ("heisenberg.character.calls", "count"),
    ("heisenberg.character.self_s", "s"),
    ("intertwine.standard_T.calls", "count"),
    ("intertwine.standard_T.self_s", "s"),
    ("intertwine.solve_canonical_system.calls", "count"),
    ("intertwine.solve_canonical_system.self_s", "s"),
    ("intertwine.lagrangians_solved", "count"),
    ("intertwine.relations_per_lagrangian", "ratio"),
    ("intertwine.hom_dim.calls", "count"),
    ("intertwine.hom_dim.self_s", "s"),
    ("intertwine.operator.calls", "count"),
    ("intertwine.operator.self_s", "s"),
    ("intertwine.operator.dense_ratio", "ratio"),
    ("reduction.ReductionData.self_s", "s"),
    ("reduction.lift_canonical_system.self_s", "s"),
    ("reduction.g_to_gc.calls", "count"),
    ("reduction.g_to_gc.self_s", "s"),
    ("canonrep.build_pi.self_s", "s"),
    ("canonrep.export.self_s", "s"),
    ("canonrep.act_g.self_s", "s"),
    ("canonrep.act_h.self_s", "s"),
    ("canonrep.verify_svn.self_s", "s"),
    ("verify.check_system_axioms.self_s", "s"),
    ("cli.dumps.self_s", "s"),
]

# per-layer metrics that must repeat exactly across runs on one seed
COUNT_METRICS = [name for (name, unit) in PER_LAYER if unit == "count"]


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Spans and counters for one process; see the module docstring."""

    def __init__(self):
        self.names = [OP_SPAN]
        self._name_id = {OP_SPAN: 0}
        # one entry per span, in start order
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_pass = array("l")
        self.op_labels = []
        self._stack = []      # open span indices
        self._child = []      # child time covered so far, per open span
        self._op = -1
        self._pass = -1
        self._patched = []    # (owner, attribute, original)
        self._cyc_depth = [0]
        # per-name aggregates, indexed like ``names``
        self.calls = [0]
        self.self_s = [0.0]
        self.active = [0]
        self.counts = {name: 0 for (name, _ops) in CYCLO_COUNTERS}
        self.counts.update({"kmat.mat_mul.madds": 0, "symplectic.lagrangians": 0,
                            "intertwine.lagrangians_solved": 0})
        for (child, parent) in UNDER:
            self.counts["%s@%s" % (child, parent)] = 0

    # -- aggregates -------------------------------------------------------

    def reset_counters(self):
        """Zero the aggregates in place (wrappers hold references)."""
        self.calls[:] = [0] * len(self.calls)
        self.self_s[:] = [0.0] * len(self.self_s)
        for key in self.counts:
            self.counts[key] = 0

    def _id(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_id[name] = nid
            self.calls.append(0)
            self.self_s.append(0.0)
            self.active.append(0)
        return nid

    def begin_pass(self):
        self._pass += 1
        self.reset_counters()

    def pass_metrics(self, ops):
        """Per-layer metrics for everything recorded since ``begin_pass``;
        ``trace.overhead_s`` needs untraced passes and is left at 0."""
        values = {"bench.ops": ops}
        for nid, name in enumerate(self.names):
            values[name + ".calls"] = self.calls[nid]
            values[name + ".self_s"] = self.self_s[nid]
        values.update(self.counts)
        solved = self.counts["intertwine.lagrangians_solved"]
        values["symplectic.act_enhanced_per_lagrangian"] = _ratio(
            self.counts["symplectic.act_enhanced@intertwine.solve_canonical_system"],
            solved)
        values["intertwine.relations_per_lagrangian"] = _ratio(
            self.counts["kmat.proportionality@intertwine.solve_canonical_system"],
            solved)
        values["intertwine.operator.dense_ratio"] = _ratio(
            self.counts["kmat.mat_mul@intertwine.operator"],
            values.get("intertwine.operator.calls", 0))
        return {name: values.get(name, 0) for (name, _unit) in PER_LAYER}

    # -- spans ------------------------------------------------------------

    def _enter(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_pass.append(self._pass)
        self._stack.append(idx)
        self._child.append(0.0)
        self.active[nid] += 1
        return idx

    def _exit(self, nid, idx, t0, t1):
        dur = t1 - t0
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        self._stack.pop()
        self.self_s[nid] += dur - self._child.pop()
        if self._child:
            self._child[-1] += dur
        self.calls[nid] += 1
        self.active[nid] -= 1

    @contextmanager
    def op(self, label):
        """Root span of one benchmark operation; its spans share its id."""
        self._op = len(self.op_labels)
        self.op_labels.append(label)
        nid = 0
        idx = self._enter(nid)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(nid, idx, t0, perf_counter())
            self._op = -1

    def _span_wrapper(self, name, orig):
        nid = self._id(name)
        under = [(self._id(parent), "%s@%s" % (child, parent))
                 for (child, parent) in UNDER if child == name]
        counts = self.counts
        active = self.active
        enter, exit_ = self._enter, self._exit
        is_mat_mul = name == "kmat.mat_mul"
        is_enum = name == "symplectic.enumerate_lagrangians"
        is_solve = name == "intertwine.solve_canonical_system"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            for (anc, key) in under:
                if active[anc]:
                    counts[key] += 1
            if is_mat_mul:
                a, b = args[0], args[1]
                counts["kmat.mat_mul.madds"] += \
                    len(a) * len(b) * (len(b[0]) if b else 0)
            idx = enter(nid)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                exit_(nid, idx, t0, perf_counter())
            if is_enum:
                counts["symplectic.lagrangians"] += len(result)
            elif is_solve:
                counts["intertwine.lagrangians_solved"] += result.count
            return result

        return wrapper

    def _counting_wrapper(self, key, orig):
        depth = self._cyc_depth
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args):
            if depth[0]:
                return orig(*args)
            counts[key] += 1
            depth[0] = 1
            try:
                return orig(*args)
            finally:
                depth[0] = 0

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self):
        def module(name):
            return importlib.import_module("%s.%s" % (PACKAGE, name))

        for (_n, mod, *_rest) in FUNCTIONS + METHODS:
            module(mod)
        modules = [m for (k, m) in sorted(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for (name, mod, attr) in FUNCTIONS:
            orig = getattr(module(mod), attr)
            wrapper = self._span_wrapper(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapper)
        for (name, mod, cls_name, meth) in METHODS:
            cls = getattr(module(mod), cls_name)
            self._patch(cls, meth, self._span_wrapper(name, vars(cls)[meth]))
        cyc = module("cyclo").CycNum
        for (key, ops) in CYCLO_COUNTERS:
            for meth in ops:
                self._patch(cyc, meth, self._counting_wrapper(key, vars(cyc)[meth]))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for (owner, attr, orig) in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    # -- output -----------------------------------------------------------

    def write_spans(self, path):
        """Gzipped JSON lines: a header, then [name, start, end, parent,
        op, pass] per span; times are perf_counter seconds."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names, "ops": self.op_labels,
                                 "fields": ["name", "start", "end", "parent",
                                            "op", "pass"]}) + "\n")
            for i in range(len(self.span_start)):
                fh.write("[%d,%r,%r,%d,%d,%d]\n" % (
                    self.span_name[i], self.span_start[i], self.span_end[i],
                    self.span_parent[i], self.span_op[i], self.span_pass[i]))
        return len(self.span_start)
