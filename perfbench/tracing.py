"""Spans around the public functions of each biphoton module.

``Tracer.install`` wraps every function in TARGETS and rebinds each name
in the biphoton modules that refers to it, so calls are caught at the
name the caller looks up (``biphoton.cli.critical_efficiency``,
``biphoton.detection.build_experiment_state``, ...), from the benchmark
and across layers alike.  While ``paused`` holds, wrapped functions run
unrecorded; the benchmark pauses around its output checks, so every span
comes from a timed op.  Spans stay in memory until ``write``.  A span's
self time is its duration minus the time its child spans cover.
"""

import contextlib
import functools
import json
import os
import sys
import time

import numpy as np

#: layer -> traced functions (``Class.method`` for methods)
TARGETS = {
    "cli": ("main",),
    "optimize": ("critical_efficiency", "maximize_chsh"),
    "bell": ("chsh", "correlation_closed_form", "correlation_from_table",
             "correlation_via_table", "table_for"),
    "detection": ("joint_table", "apply_alpha_confusion", "closed_form_ideal_table",
                  "closed_form_lossy_table"),
    "optics": ("build_experiment_state", "apply"),
    "fock": ("norm",),
    "montecarlo": ("sample_events", "estimate_chsh", "estimate_correlation",
                   "EventBatch.split_by_setting", "EventBatch.to_csv",
                   "EventBatch.__getitem__"),
    "selftest": ("run_all",),
}

LAYERS = tuple(TARGETS)

#: span name -> what to note from (args, result)
_NOTES = {
    "optics.build_experiment_state": lambda a, r: len(r.terms),
    "optimize.maximize_chsh": lambda a, r: r.starts_used,
    "montecarlo.sample_events": lambda a, r: len(r),
    "montecarlo.EventBatch.to_csv": lambda a, r: os.path.getsize(a[1]),
}


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index, note]
        self.spans = []
        self._stack = []
        self._undo = []
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Run the body with no spans recorded."""
        was, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was

    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note:
                span[4] = note(args, result)
            return result

        return traced

    def _wrap_getitem(self, fn):
        # only integer keys materialise an EventRecord; masks and slices
        # are views and stay untraced
        record = self._wrap("montecarlo.record", fn)

        @functools.wraps(fn)
        def getitem(batch, key):
            if isinstance(key, (int, np.integer)):
                return record(batch, key)
            return fn(batch, key)

        return getitem

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "biphoton" or n.startswith("biphoton."))]
        for layer, names in TARGETS.items():
            module = sys.modules[f"biphoton.{layer}"]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                fn = owner.__dict__[attr]
                if attr == "__getitem__":
                    wrapped = self._wrap_getitem(fn)
                else:
                    wrapped = self._wrap(f"{layer}.{name}", fn)
                if owner_name:
                    self._rebind(owner, attr, wrapped)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._rebind(m, key, wrapped)

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, note in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "note": note}) + "\n")

    def summary(self):
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - child[k])
        return out

    def notes(self, name):
        return [s[4] for s in self.spans if s[0] == name]

    def calls_under(self, name, ancestor):
        """Calls of ``name`` made (at any depth) inside a span of ``ancestor``."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count


def layer_metrics(tracer, units, speed=1.0):
    """Per-layer metrics, per workload unit where they are totals.

    Times are multiplied by ``speed``, reference seconds per raw second
    over the traced interval (hostspeed.py).
    """
    summary = tracer.summary()
    per = 1.0 / max(units, 1)

    def total(name):
        return summary.get(name, (0, 0.0, 0.0))[1] * per * speed

    def own(name):
        return summary.get(name, (0, 0.0, 0.0))[2] * per * speed

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0] * per

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    kets = tracer.notes("optics.build_experiment_state")
    thresholds = summary.get("optimize.critical_efficiency", (0,))[0]
    records = summary.get("montecarlo.record", (0, 0.0))
    m = {
        "cli.main_s": (total("cli.main"), "s"),
        "optimize.critical_efficiency_s": (total("optimize.critical_efficiency"), "s"),
        "optimize.maximize_chsh_s": (total("optimize.maximize_chsh"), "s"),
        "optimize.maximize_chsh_calls": (
            tracer.calls_under("optimize.maximize_chsh", "optimize.critical_efficiency")
            / thresholds if thresholds else 0.0, "count"),
        "optimize.starts_used": (sum(tracer.notes("optimize.maximize_chsh")) * per, "count"),
        "bell.chsh_s": (total("bell.chsh"), "s"),
        "bell.correlation_from_table_s": (total("bell.correlation_from_table"), "s"),
        "bell.correlation_closed_form_calls": (calls("bell.correlation_closed_form"), "count"),
        "detection.joint_table_s": (total("detection.joint_table"), "s"),
        "detection.joint_table_self_s": (own("detection.joint_table"), "s"),
        "detection.joint_table_calls": (calls("detection.joint_table"), "count"),
        "detection.apply_alpha_confusion_s": (total("detection.apply_alpha_confusion"), "s"),
        "detection.closed_form_lossy_table_s": (total("detection.closed_form_lossy_table"), "s"),
        "optics.build_experiment_state_s": (total("optics.build_experiment_state"), "s"),
        "optics.apply_s": (total("optics.apply"), "s"),
        "optics.apply_calls": (calls("optics.apply"), "count"),
        "fock.kets_per_state": (mean(kets), "count"),
        "fock.norm_s": (total("fock.norm"), "s"),
        "montecarlo.sample_events_s": (total("montecarlo.sample_events"), "s"),
        "montecarlo.events_drawn": (mean(tracer.notes("montecarlo.sample_events")), "count"),
        "montecarlo.split_by_setting_s": (total("montecarlo.EventBatch.split_by_setting"), "s"),
        "montecarlo.estimate_chsh_s": (total("montecarlo.estimate_chsh"), "s"),
        "montecarlo.record_us": (
            1e6 * speed * records[1] / records[0] if records[0] else 0.0, "us"),
        "montecarlo.to_csv_s": (total("montecarlo.EventBatch.to_csv"), "s"),
        "montecarlo.csv_bytes": (mean(tracer.notes("montecarlo.EventBatch.to_csv")), "bytes"),
        "selftest.run_all_s": (total("selftest.run_all"), "s"),
    }
    for layer in LAYERS:
        names = [n for n in summary if n.split(".", 1)[0] == layer]
        m[f"{layer}.self_s"] = (sum(own(n) for n in names), "s")
        m[f"{layer}.calls"] = (sum(calls(n) for n in names), "count")
    return m
