"""Span tracing for the benchmark, applied to rarelogit from the outside.

`install` replaces each traced function at every module attribute that is
bound to it, so a call is recorded wherever the caller looks the name up
(`rarelogit.estimators.fit_mle`, `rarelogit.simulation.fit_estimator`, ...).
Nothing under `src/` changes; the returned callable puts the originals back.

A span is (name, start, end, parent) with times from `time.perf_counter`.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children; calls are sequential
in one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _count_fit(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    weights = kwargs["weights"] if "weights" in kwargs else args[1]
    active = int(np.count_nonzero(np.asarray(weights) > 0))
    counts["model.fit_mle.iterations"] += result.iterations
    counts["model.fit_mle.row_iters"] += active * (result.iterations + 1)
    counts["model.fit_mle.nonconverged"] += not result.converged


def _count_load(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    counts["cli.load_dataset.rows"] += result.n


def _count_save(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    data = kwargs["data"] if "data" in kwargs else args[1]
    counts["cli.save_dataset.rows"] += data.n


# span name -> (owner of the definition, attribute, counter hook).  The
# per-estimator functions (full_mle, under_weighted, ...) are left unwrapped
# so that fit_estimator's self time is the estimators layer's own work:
# weights, subset rebuilds and intercept shifts.
TRACED = {
    "model.fit_mle": ("rarelogit.model", "fit_mle", _count_fit),
    "sampling.undersample": ("rarelogit.sampling", "undersample", None),
    "sampling.oversample": ("rarelogit.sampling", "oversample", None),
    "sampling.substream": ("rarelogit.sampling", "substream", None),
    "sampling.effective_sample_size": ("rarelogit.sampling", "effective_sample_size", None),
    "estimators.fit_estimator": ("rarelogit.estimators", "fit_estimator", None),
    "estimators.realize_design": ("rarelogit.estimators", "realize_design", None),
    "simulation.run_experiment": ("rarelogit.simulation", "run_experiment", None),
    "simulation.generate_marginal": ("rarelogit.simulation", "generate_marginal", None),
    "simulation.generate_conditional": ("rarelogit.simulation", "generate_conditional", None),
    "simulation.GaussianLaw.sample": ("rarelogit.simulation:GaussianLaw", "sample", None),
    "asymptotics.moment_matrix": ("rarelogit.asymptotics", "moment_matrix", None),
    "asymptotics.v_full": ("rarelogit.asymptotics", "v_full", None),
    "asymptotics.v_under_weighted": ("rarelogit.asymptotics", "v_under_weighted", None),
    "asymptotics.v_under_bc": ("rarelogit.asymptotics", "v_under_bc", None),
    "asymptotics.v_over_weighted": ("rarelogit.asymptotics", "v_over_weighted", None),
    "asymptotics.v_over_bc": ("rarelogit.asymptotics", "v_over_bc", None),
    "asymptotics.limit_constants": ("rarelogit.asymptotics", "limit_constants", None),
    "asymptotics.oversampling_variance_factor": (
        "rarelogit.asymptotics",
        "oversampling_variance_factor",
        None,
    ),
    "cli.main": ("rarelogit.cli", "main", None),
    "cli.load_dataset": ("rarelogit.cli", "load_dataset", _count_load),
    "cli.save_dataset": ("rarelogit.cli", "save_dataset", _count_save),
}

LAYERS = ("model", "estimators", "sampling", "simulation", "asymptotics", "cli")


class Tracer:
    """In-memory span store plus the counters the hooks fill."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def install(tracer: Tracer):
    """Wrap every traced function at each of its lookup sites; return the undo."""
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "rarelogit" or name.startswith("rarelogit."))
    ]
    undo: list[tuple[object, str, object]] = []
    try:
        for span_name, (owner_path, attr, hook) in TRACED.items():
            owner = _owner(owner_path)
            fn = vars(owner).get(attr)
            if fn is None:
                raise RuntimeError(f"traced function {owner_path}.{attr} not found")
            wrapped = tracer.wrap(span_name, fn, hook)
            sites = [owner] if isinstance(owner, type) else modules
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is fn:
                        setattr(site, key, wrapped)
                        undo.append((site, key, fn))
    except BaseException:
        _restore(undo)
        raise
    return lambda: _restore(undo)


def _restore(undo: list[tuple[object, str, object]]) -> None:
    for site, key, fn in reversed(undo):
        setattr(site, key, fn)


def summarize(spans: list[list], scales: list[float]) -> tuple[dict, dict, dict, float]:
    """Per-name busy seconds, self seconds and calls, plus the root-span total.

    Each span's duration is multiplied by its entry in scales.  Busy time
    of a name is the summed duration of its spans (no traced function
    recurses into itself).  Root spans are those with no traced caller;
    their total is the traced share of the wall time.
    """
    duration = [(end - start) * k for (_, start, end, _), k in zip(spans, scales)]
    child = [0.0] * len(spans)
    for (_, _, _, parent), d in zip(spans, duration):
        if parent >= 0:
            child[parent] += d
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    roots = 0.0
    for (name, _, _, parent), d, c in zip(spans, duration, child):
        busy[name] += d
        self_s[name] += d - c
        calls[name] += 1
        if parent < 0:
            roots += d
    return busy, self_s, calls, roots
