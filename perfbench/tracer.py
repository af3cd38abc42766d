"""Spans and counts taken from outside the program.

The tracer replaces the public names that one beamlink module imports from
another, in the namespace of the module that calls them, with wrappers that
record a span: name, start, end, parent span and trace id.  It also swaps
the `np` global of the calling modules for a copy whose `linalg` counts
calls, so `numpy.linalg` work is attributed to the module that asked for
it.  Nothing under src/ changes; `uninstall` puts every original back.

Spans stay in memory until the run ends.  All spans under one run_trials
call share a trace id; spans outside any run_trials call have trace id -1.
"""
from __future__ import annotations

import importlib
import time
import types
from collections import Counter

import numpy as np

# namespace module -> (name looked up there, layer that owns it)
PARENT_BOUNDARIES = {
    "experiments": (
        ("build_scenario", "topology"),
        ("run_trials", "linksim"),
        ("estimate_rates", "metrics"),
        ("mean_confidence", "metrics"),
        ("packet_error_rate", "metrics"),
        ("uncoded_stream_params", "metrics"),
    ),
}
# boundaries crossed inside a trial; with workers > 1 they run in forked
# processes whose spans never come back, so they are not installed there
TRIAL_BOUNDARIES = {
    "linksim": (
        ("sample_channel", "channel"),
        ("derive_moments", "channel"),
        ("stack", "channel"),
        ("build_rotator", "beamformer"),
        ("solve_coupled_drivers", "beamformer"),
        ("compose", "beamformer"),
        ("normalization", "beamformer"),
        ("path_gain", "topology"),
        ("capacity", "metrics"),
        ("effective_snr", "metrics"),
        ("modulate", "linksim"),
        ("received_signal", "linksim"),
        ("detect", "linksim"),
    ),
}
LINALG_CALLERS = ("beamformer", "linksim")
LINALG_NAMES = ("svd", "solve", "pinv", "norm")

RUN_TRIALS = "linksim.run_trials"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, trace id)
        self.stack: list[int] = []
        self.trace_id = -1
        self.next_trace_id = 0
        self.counts: Counter = Counter()  # (calling module, linalg name) -> calls
        self.errors: Counter = Counter()  # exception class name -> times seen
        self.point_results: list = []  # what each run_trials call returned
        self._saved: list = []

    def reset(self) -> None:
        self.spans = []
        self.stack.clear()
        self.counts.clear()
        self.errors.clear()
        self.point_results = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        spans, stack = self.spans, self.stack
        index = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(index)
        opened_trace = name == RUN_TRIALS
        if opened_trace:
            self.trace_id = self.next_trace_id
            self.next_trace_id += 1
        trace_id = self.trace_id
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._count_error(exc)
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, trace_id)
            if opened_trace:
                self.trace_id = -1
        if opened_trace:
            self.point_results.extend(result)
        return result

    def _count_error(self, exc: BaseException) -> None:
        # one exception passes several wrappers on its way out; count it once
        if getattr(exc, "_perfbench_seen", False):
            return
        try:
            exc._perfbench_seen = True
        except AttributeError:
            pass
        self.errors[type(exc).__name__] += 1

    def wrap(self, name: str, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    def _counting_numpy(self, caller: str):
        counts = self.counts
        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(np.linalg.__dict__)
        for fn_name in LINALG_NAMES:
            fn = getattr(np.linalg, fn_name)
            key = (caller, fn_name)

            def counted(*args, _fn=fn, _key=key, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            setattr(linalg, fn_name, counted)
        proxy = types.ModuleType("numpy")
        proxy.__dict__.update(np.__dict__)
        proxy.__getattr__ = lambda attr: getattr(np, attr)  # lazily loaded submodules
        proxy.linalg = linalg
        return proxy

    def install(self, in_trial: bool) -> None:
        """Wrap the parent-side boundaries, and the in-trial ones if asked."""
        groups = [PARENT_BOUNDARIES] + ([TRIAL_BOUNDARIES] if in_trial else [])
        for group in groups:
            for module_name, names in group.items():
                module = importlib.import_module(f"beamlink.{module_name}")
                for attr, layer in names:
                    self._replace(module, attr, self.wrap(f"{layer}.{attr}", getattr(module, attr)))
        if in_trial:
            for caller in LINALG_CALLERS:
                module = importlib.import_module(f"beamlink.{caller}")
                self._replace(module, "np", self._counting_numpy(caller))

    def _replace(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]
