"""Span tracer installed around nilscroll's public functions from outside.

Each wrapper replaces the module or class attribute that the caller looks
up at call time: ``frames.frame_from_h`` is what ``make_frame_source``'s
closure calls, while ``cli.scan_singularities`` and ``singular.brentq`` are
the names imported into those modules.  Nothing in the package is edited;
``uninstall`` restores every attribute.

Spans of one CLI call share the call index.  Each records its id, its
parent span, its name and its start and end; they are kept in memory and
written out when the run ends.  Totals per span name are kept as the run
goes: the count, the inclusive time (outermost span of that name only) and
the self time (duration minus the time covered by child spans).
"""

from __future__ import annotations

import os
import time
from collections import Counter

import numpy as np

perf_counter = time.perf_counter

# (owner path, attribute, span name).  The owner path is a module of the
# package, optionally followed by a class name.
SPANS = [
    ("frames", "frame_from_h", "frames.frame_from_h"),
    ("hexpr", "eval_jet", "hexpr.eval_jet"),
    ("frames", "schwarzian", "jets.schwarzian"),
    ("cli", "integrate_curve", "integrate.integrate_curve"),
    ("integrate.CurvePath", "dense_eval", "integrate.dense_eval"),
    ("integrate", "solve_dense", "integrate.solve_dense"),
    ("surface.ScrollSurface", "bscroll_point", "surface.bscroll_point"),
    ("surface.ScrollSurface", "nil3_point", "surface.nil3_point"),
    ("surface.ScrollSurface", "box_check", "surface.box_check"),
    ("surface.ScrollSurface", "fundamental_forms_fd", "surface.fundamental_forms_fd"),
    ("surface.ScrollSurface", "nil3_jacobian_metrics", "surface.nil3_jacobian_metrics"),
    ("surface.ScrollSurface", "normal_gauss_map", "surface.normal_gauss_map"),
    ("cli", "scan_singularities", "singular.scan_singularities"),
    ("singular", "classify_point", "singular.classify_point"),
    ("cli", "classify_point", "singular.classify_point"),
    ("singular", "brentq", "singular.brentq"),
    ("cli", "find_notce_transform", "singular.find_notce_transform"),
    ("cli", "invariance_check", "singular.invariance_check"),
    ("cli", "write_obj", "io_formats.write_obj"),
    ("cli", "write_curve_csv", "io_formats.write_curve_csv"),
    ("cli", "write_json", "io_formats.write_json"),
]
ROOT = "cli.main"


class Tracer:
    """Records spans and counters for the CLI calls run between begin/end."""

    def __init__(self, package, count_jet_ops=False):
        self.package = package
        self.count_jet_ops = count_jet_ops
        self.spans = []  # (call, span id, parent id, name, t0, t1)
        self.missing = set()  # wrap targets the package does not have
        self._saved = []
        self._stack = []  # open spans: [span id, time covered by children]
        self._open = Counter()
        self._next_id = 0
        self.call = None
        self.totals = {}  # name -> [count, inclusive s, self s]
        self.counts = Counter()
        self._distinct_s = set()

    # -- installation ---------------------------------------------------------

    def _owner(self, path):
        module, _, cls = path.partition(".")
        owner = getattr(self.package, module)
        return getattr(owner, cls) if cls else owner

    def _replace(self, owner, attr, make):
        original = vars(owner).get(attr)
        if original is None:
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        for path, attr, name in SPANS:
            self._replace(self._owner(path), attr,
                          lambda fn, name=name: self._span(name, fn))
        self._replace(self._owner("singular"), "transform_frame",
                      self._counter("singular.notce_evals", "singular.find_notce_transform"))
        self._replace(self._owner("lorentz.LorentzTransform"), "apply",
                      self._counter("lorentz.apply_calls"))
        if self.count_jet_ops:
            jet = self.package.jets.Jet
            for attr in ("__mul__", "__rmul__", "__truediv__"):
                self._replace(jet, attr, self._counter("jets.frame_ops", "frames.frame_from_h"))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-call bookkeeping -------------------------------------------------

    def begin_call(self, call):
        self.call = call
        self.totals = {}
        self.counts = Counter()
        self._distinct_s = set()

    def end_call(self):
        self.counts["frames.distinct_s"] = len(self._distinct_s)
        return self.totals, self.counts

    def run(self, fn, *args):
        """Run fn(*args) as the root span of the current call."""
        return self._span(ROOT, fn)(*args)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))
        stack, open_, spans, tracer = self._stack, self._open, self.spans, self

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(tracer, args)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            entry = [sid, 0.0]
            stack.append(entry)
            open_[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                open_[name] -= 1
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                tot = tracer.totals.get(name)
                if tot is None:
                    tot = tracer.totals[name] = [0, 0.0, 0.0]
                tot[0] += 1
                if open_[name] == 0:
                    tot[1] += dur
                tot[2] += dur - entry[1]
                spans.append((tracer.call, sid, parent[0] if parent else None, name, t0, t1))
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _counter(self, key, inside=None):
        """Count calls, or only those made while a span named ``inside`` is open."""

        def make(fn):
            def wrapper(*args, **kwargs):
                if inside is None or self._open[inside]:
                    self.counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    # -- output ---------------------------------------------------------------

    def write_spans(self, path):
        """One line per span: call, id, parent, name, start, end (seconds)."""
        with open(path, "w") as fh:
            for call, sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{call} {sid} {parent if parent is not None else '-'} "
                         f"{name} {t0!r} {t1!r}\n")


# -- hooks at span boundaries: counts measured where the work happens --------


def _frame_before(tracer, args):
    # s is a float today; an array of s values counts one evaluation per point
    s = args[2] if len(args) > 2 else None
    points = (s,) if s is None or isinstance(s, float) else np.ravel(s).tolist()
    tracer.counts["frames.evals"] += len(points)
    tracer._distinct_s.update(points)
    if tracer._open["integrate.integrate_curve"]:
        tracer.counts["integrate.curve_frame_evals"] += len(points)
    return args


def _curve_after(tracer, args, path):
    # the step count comes from the public sample list while it exists
    samples = getattr(path, "samples", None)
    tracer.counts["integrate.curve_steps"] += len(samples) if samples is not None else 0


def _brentq_before(tracer, args):
    f = args[0]
    counts = tracer.counts

    def counted(s):
        counts["singular.root_fevals"] += 1
        return f(s)

    return (counted,) + tuple(args[1:])


def _brentq_after(tracer, args, result):
    tracer.counts["singular.roots"] += 1


def _write_after(tracer, args, result):
    tracer.counts["io_formats.bytes"] += os.path.getsize(args[0])


_HOOKS = {
    "frames.frame_from_h": (_frame_before, None),
    "integrate.integrate_curve": (None, _curve_after),
    "singular.brentq": (_brentq_before, _brentq_after),
    "io_formats.write_obj": (None, _write_after),
    "io_formats.write_curve_csv": (None, _write_after),
    "io_formats.write_json": (None, _write_after),
}


# -- per-layer metrics of one call -------------------------------------------


def _incl(totals, *names):
    return sum(totals[n][1] for n in names if n in totals)


def _count(totals, *names):
    return sum(totals[n][0] for n in names if n in totals)


def _self(totals, name):
    return totals[name][2] if name in totals else 0.0


def layer_times(totals):
    """Per-layer busy times (s) and span counts of one traced call."""
    return {
        "frames.self_s": _self(totals, "frames.frame_from_h"),
        "frames.total_s": _incl(totals, "frames.frame_from_h"),
        "hexpr.eval_jet_s": _incl(totals, "hexpr.eval_jet"),
        "jets.schwarzian_s": _incl(totals, "jets.schwarzian"),
        "integrate.curve_s": _incl(totals, "integrate.integrate_curve"),
        "integrate.dense_s": _incl(totals, "integrate.dense_eval"),
        "integrate.flow_s": _incl(totals, "integrate.solve_dense"),
        "surface.point_s": _incl(totals, "surface.bscroll_point", "surface.nil3_point"),
        "surface.fd_s": _incl(totals, "surface.box_check", "surface.fundamental_forms_fd",
                              "surface.nil3_jacobian_metrics", "surface.normal_gauss_map"),
        "singular.scan_s": _incl(totals, "singular.scan_singularities"),
        "singular.classify_s": _incl(totals, "singular.classify_point"),
        "singular.notce_s": _incl(totals, "singular.find_notce_transform"),
        "singular.invariance_s": _incl(totals, "singular.invariance_check"),
        "io_formats.write_s": _incl(totals, "io_formats.write_obj",
                                    "io_formats.write_curve_csv", "io_formats.write_json"),
        "cli.self_s": _self(totals, ROOT),
    }


def work_counts(totals, counts):
    """Machine-independent work counters of one call."""
    evals = counts["frames.evals"]
    return {
        "frames.evals": evals,
        "frames.distinct_s": counts["frames.distinct_s"],
        "jets.frame_ops": counts["jets.frame_ops"],
        "integrate.curve_steps": counts["integrate.curve_steps"],
        "integrate.curve_frame_evals": counts["integrate.curve_frame_evals"],
        "integrate.dense_evals": _count(totals, "integrate.dense_eval"),
        "surface.points": _count(totals, "surface.bscroll_point", "surface.nil3_point"),
        "singular.classify_calls": _count(totals, "singular.classify_point"),
        "singular.root_fevals": counts["singular.root_fevals"],
        "singular.roots": counts["singular.roots"],
        "singular.notce_evals": counts["singular.notce_evals"],
        "lorentz.apply_calls": counts["lorentz.apply_calls"],
        "io_formats.bytes": counts["io_formats.bytes"],
    }
