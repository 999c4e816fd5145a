"""In-memory span recorder and the layer instrumentation of the package.

Spans are recorded from outside the package: `instrument` replaces the
public functions of each module, the surface-family `jet`/`frame` methods
and the `TaylorJet` operators with wrappers, at every place they are looked
up (a name bound by ``from .x import f`` is a separate binding and is
replaced too).  `Instrumentation.restore` puts the originals back.

A span is six integers (id, name, start ns, end ns, parent id, job id),
appended to one flat array; ids are assigned in start order within a job,
so a parent's id is always smaller than its children's.  A span's self time
is its duration minus the durations of its direct children.  When a job
ends its spans are folded into per-name totals (calls, self time, and the
parent/child counts behind the work ratios); whole jobs are kept for the
span file until SPAN_SAMPLE spans are held, so memory stays bounded however
long the run.
"""

from __future__ import annotations

import functools
import itertools
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("taylor", "surfaces", "cartan_invariants", "distribution5", "conformal_oracle",
          "finitediff", "rolling", "embedding", "cli")

TAYLOR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__", "derivative", "truncate", "sqrt", "exp",
              "log", "sin", "cos", "sinh", "cosh")
TAYLOR_CTORS = ("variable", "constant")

# public functions per module, with the span name each is recorded under
MODULE_FUNCTIONS = {
    "surfaces": {"parse_surface": "surfaces.parse"},
    "cartan_invariants": {
        "quartic_killing_case": "cartan_invariants.quartic",
        "root_type": "cartan_invariants.root_type",
        "g2_check": "cartan_invariants.g2_check",
    },
    "distribution5": {
        "lie_bracket": "distribution5.lie_bracket",
        "growth_vector": "distribution5.growth_vector",
    },
    "conformal_oracle": {
        "metric_components": "conformal_oracle.metric",
        "cartan_from_weyl": "conformal_oracle.cartan_from_weyl",
        "proportionality_residual": "conformal_oracle.proportionality_residual",
    },
    "finitediff": {
        "fd_weights": "finitediff.fd_weights",
        "sampled_derivative": "finitediff.sampled_derivative",
        "cumulative_integral": "finitediff.cumulative_integral",
    },
    "rolling": {
        "integrate": "rolling.integrate",
        "no_slip_residual": "rolling.diagnostics.no_slip",
        "no_twist_residual": "rolling.diagnostics.no_twist",
        "contact_arclengths": "rolling.diagnostics.arclengths",
    },
    "embedding": {
        "build_mesh": "embedding.build_mesh",
        "emit_mesh": "embedding.emit_mesh",
    },
    "cli": {"main": "cli.main", "build_parser": "cli.build_parser"},
}

SPAN_SAMPLE = 250_000  # spans kept in memory for the span file

# work-ratio numerators: (child span, ancestor span, direct parent only)
RELATIONS = {
    "quartic_in_g2_check": ("cartan_invariants.quartic", "cartan_invariants.g2_check", True),
    "jet_in_field": ("surfaces.jet", "distribution5.field", True),
    "field_in_growth": ("distribution5.field", "distribution5.growth_vector", False),
    "metric_in_weyl": ("conformal_oracle.metric", "conformal_oracle.cartan_from_weyl", False),
    "weights_in_sampled": ("finitediff.fd_weights", "finitediff.sampled_derivative", True),
    "field_in_integrate": ("distribution5.field", "rolling.integrate", False),
    "frame_in_diagnostics": ("surfaces.frame", "rolling.diagnostics", False),
}


class Recorder:
    """Spans of the current job, and what earlier jobs' spans added up to."""

    def __init__(self):
        self.rows = array("q")
        self.names = []
        self._ids = {}
        self.stack = [-1]
        self.ids = itertools.count()
        self.job = 0
        self.jobs = 0
        self.counts = Counter()  # work counts taken from arguments and results
        self.calls = self.self_ns = None
        self.relations = Counter()
        self.kept = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def prefix_ids(self, prefix):
        return [i for i, n in enumerate(self.names) if n == prefix or n.startswith(prefix + ".")]

    def wrap(self, name, fn, on_result=None):
        nid = self.name_id(name)
        extend = self.rows.extend
        stack = self.stack
        clock = time.perf_counter_ns
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = next(rec.ids)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                extend((idx, nid, t0, t1, parent, rec.job))
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def start_job(self, job):
        self.job = job
        self.ids = itertools.count()

    def end_job(self):
        """Fold the finished job's spans into the totals."""
        flat = np.frombuffer(self.rows, dtype=np.int64).reshape(-1, 6)
        t = np.empty_like(flat)
        t[flat[:, 0]] = flat  # row i is span i
        del flat  # release the view, so the buffer can be cleared below
        name, parent = t[:, 1], t[:, 4]
        has_parent = parent >= 0
        dur = t[:, 3] - t[:, 2]
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(t))
        n = len(self.names)
        if self.calls is None:
            self.calls, self.self_ns = np.zeros(n, dtype=np.int64), np.zeros(n)
        self.calls += np.bincount(name, minlength=n)
        self.self_ns += np.bincount(name, weights=dur - child, minlength=n)
        for key, (kid, anc, direct) in RELATIONS.items():
            kids = np.isin(name, self.prefix_ids(kid))
            targets = self.prefix_ids(anc)
            if direct:
                ok = has_parent & np.isin(name[np.where(has_parent, parent, 0)], targets)
            else:
                ok = _ancestor_in(parent, name, targets) >= 0
            self.relations[key] += int(np.sum(kids & ok))
        if sum(len(k) for k in self.kept) + len(t) <= SPAN_SAMPLE:
            self.kept.append(t)
        self.jobs += 1
        del self.rows[:]

    def save(self, path):
        t = np.concatenate(self.kept) if self.kept else np.zeros((0, 6), dtype=np.int64)
        np.savez(path, id=t[:, 0].astype(np.int32), name=t[:, 1].astype(np.int16),
                 start_ns=t[:, 2], end_ns=t[:, 3], parent=t[:, 4].astype(np.int32),
                 job=t[:, 5].astype(np.int32), names=np.array(self.names))


class Instrumentation:
    """The replaced attributes of one `instrument` call."""

    def __init__(self):
        self.undo = []

    def set(self, owner, attr, value):
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()


def _package_modules():
    """The package and its modules, by short name ("" for the package)."""
    import importlib

    names = ("taylor", "surfaces", "cartan_invariants", "distribution5", "conformal_oracle",
             "finitediff", "rolling", "embedding", "split4", "cli")
    mods = {name: importlib.import_module(f"rolling_twistor.{name}") for name in names}
    mods[""] = importlib.import_module("rolling_twistor")
    return mods


def instrument(rec):
    """Wrap every layer boundary of the imported package; returns the
    Instrumentation whose `restore` undoes it."""
    inst = Instrumentation()
    mods = _package_modules()
    taylor, surfaces = mods["taylor"], mods["surfaces"]

    tj = taylor.TaylorJet
    for op in TAYLOR_OPS:
        inst.set(tj, op, rec.wrap(f"taylor.{op}", tj.__dict__[op]))
    for ctor in TAYLOR_CTORS:
        inst.set(tj, ctor, classmethod(rec.wrap(f"taylor.{ctor}", tj.__dict__[ctor].__func__)))

    families = (surfaces.Surface, surfaces.Plane, surfaces.Sphere, surfaces.Hyperbolic,
                surfaces._RevolutionBase, surfaces.CustomRevolution)
    for cls in families:
        for meth in ("jet", "frame", "coframe", "profile_grid"):
            if meth in cls.__dict__:
                label = {"profile_grid": "grid"}.get(meth, meth)
                inst.set(cls, meth, rec.wrap(f"surfaces.{label}", cls.__dict__[meth]))
    control = mods["rolling"].ControlCurve
    inst.set(control, "__call__", rec.wrap("rolling.control", control.__dict__["__call__"]))

    def count(key, size):
        def hook(out):
            rec.counts[key] += size(out)
        return hook

    hooks = {
        "rolling.integrate": count("rolling.samples", len),
        "finitediff.sampled_derivative": count("finitediff.samples", len),
        "embedding.build_mesh": count("embedding.vertices", lambda mesh: mesh.n_vertices),
    }

    replacements = {}  # id(original function) -> (original, wrapper)
    for modname, funcs in MODULE_FUNCTIONS.items():
        for attr, span in funcs.items():
            fn = vars(mods[modname])[attr]
            replacements[id(fn)] = (fn, rec.wrap(span, fn, hooks.get(span)))

    field_original = mods["distribution5"].velocity_fields
    rec.name_id("distribution5.field")  # registered now: its wrappers are made per call

    def velocity_fields(s1, s2):
        x1, x2 = field_original(s1, s2)
        return rec.wrap("distribution5.field", x1), rec.wrap("distribution5.field", x2)

    replacements[id(field_original)] = (
        field_original, functools.wraps(field_original)(velocity_fields))

    for mod in mods.values():  # every lookup site, including `from .x import f` bindings
        for attr, value in list(vars(mod).items()):
            original, wrapper = replacements.get(id(value), (None, None))
            if original is value:
                inst.set(mod, attr, wrapper)
    return inst


def _ancestor_in(parent, name, targets):
    """For each span, the nearest proper ancestor whose name is in
    `targets`, or -1."""
    hit_name = np.isin(np.arange(name.max() + 1 if len(name) else 1), targets)
    anc = parent.copy()
    while True:
        safe = np.where(anc >= 0, anc, 0)
        done = (anc < 0) | hit_name[name[safe]]
        if done.all():
            return anc
        anc = np.where(done, anc, parent[safe])


def layer_metrics(rec, job_seconds):
    """Per-layer calls and self times per traced job, and work ratios, from
    the folded spans.  `job_seconds` is the traced jobs' summed wall time."""
    jobs = rec.jobs

    def calls(prefix):
        return int(sum(rec.calls[i] for i in rec.prefix_ids(prefix)))

    def self_s(prefix):
        return float(sum(rec.self_ns[i] for i in rec.prefix_ids(prefix))) * 1e-9

    def ratio(num, den):
        return float(num) / den if den else 0.0

    m = {}
    for key in LAYERS + ("surfaces.jet", "surfaces.frame", "cartan_invariants.quartic",
                         "cartan_invariants.root_type", "cartan_invariants.g2_check",
                         "distribution5.field", "distribution5.lie_bracket",
                         "distribution5.growth_vector", "conformal_oracle.metric",
                         "conformal_oracle.cartan_from_weyl", "finitediff.fd_weights",
                         "finitediff.sampled_derivative", "finitediff.cumulative_integral",
                         "rolling.integrate", "rolling.diagnostics", "embedding.build_mesh",
                         "embedding.emit_mesh"):
        m[f"{key}.calls"] = ratio(calls(key), jobs)
        m[f"{key}.self_s"] = ratio(self_s(key), jobs)
    m["taylor.ops"] = m.pop("taylor.calls")
    m["cli.main.calls"] = calls("cli.main")

    rel = rec.relations
    samples = rec.counts["rolling.samples"]
    steps = samples - calls("rolling.integrate")
    m["cartan_invariants.points_per_g2_check"] = ratio(
        rel["quartic_in_g2_check"], calls("cartan_invariants.g2_check"))
    m["distribution5.jets_per_field"] = ratio(rel["jet_in_field"], calls("distribution5.field"))
    m["distribution5.fields_per_growth"] = ratio(
        rel["field_in_growth"], calls("distribution5.growth_vector"))
    m["conformal_oracle.metrics_per_point"] = ratio(
        rel["metric_in_weyl"], calls("conformal_oracle.cartan_from_weyl"))
    m["finitediff.weights_per_sample"] = ratio(
        rel["weights_in_sampled"], rec.counts["finitediff.samples"])
    m["rolling.rk_steps"] = ratio(steps, jobs)
    m["rolling.fields_per_step"] = ratio(rel["field_in_integrate"], steps)
    m["rolling.frames_per_sample"] = ratio(rel["frame_in_diagnostics"], samples)
    m["embedding.vertices"] = ratio(rec.counts["embedding.vertices"], jobs)
    m["trace.spans"] = ratio(int(rec.calls.sum()), jobs)
    m["trace.self_sum_frac"] = ratio(sum(self_s(layer) for layer in LAYERS), job_seconds)
    return m
