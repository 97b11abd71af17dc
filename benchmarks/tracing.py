"""Spans and size counters for a traced pass, recorded from outside the program.

``install`` wraps each traced function at every module attribute of the
``mzfringe`` package that binds it. ``cli``, ``experiments`` and
``interferometer`` bind their imports at import time, so replacing only the
defining module's attribute would miss their calls; ``tomography`` imports its
names at call time and picks up the wrapped module attributes.

A span is ``[name, start, end, parent index, sizes]``. Spans stay in memory
during the pass; sizes, self times and the per-layer metrics are computed
after the pass and written out with the spans. Sizes come from the arguments
and results of the call, never from the program's internals:

- ``compose_arm``: ``branches`` is the product of per-element branch counts
  (2 per crystal, 1 otherwise), ``kraus_out`` the length of the returned list.
- ``contrast_shared_env``: ``upper_bins``/``lower_bins`` are the distinct
  total delays each arm can reach, ``pairs_tested`` their product and
  ``matched`` the pairs whose delays coincide. Reachable delays equal the
  composed Kraus set except where an operator vanishes at special angles.
- ``oracle_contrast``: the joint dimension is 4 * (bins of the union of both
  arms and delay 0); two of the 2n columns of each arm dilation are read.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import importlib
import sys
import time

TRACED = (
    "arms.compose_arm",
    "arms.arm_channel_apply",
    "interferometer.contrast_shared_env",
    "interferometer.oracle_contrast",
    "interferometer.output_probability",
    "tomography.qpt",
    "core.validate_density_matrix",
    "experiments.sweep",
    "experiments.poisson_fringe",
    "experiments.fit_fringe",
    "cli.main",
)

# The simulator's documented delay-merge tolerance, in micrometers.
DELAY_TOL = 1e-9

class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sized = name in _SIZERS
        digest = _RESULT_DIGESTS.get(name, lambda result: None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if sized:
                span[4] = (args, kwargs, digest(result))
            return result

        return traced

    def finish(self) -> dict:
        """Replace kept call data by sizes and return the pass's per-layer metrics."""
        for span in self.spans:
            if span[4] is not None:
                args, kwargs, result = span[4]
                span[4] = _SIZERS[span[0]](*args, result=result, **kwargs)
        return layer_metrics(self.spans)


def install() -> Tracer:
    """Wrap every traced function at every binding site inside ``mzfringe``."""
    tracer = Tracer()
    wrappers = {}
    for qualname in TRACED:
        module_name, fn_name = qualname.split(".")
        fn = getattr(importlib.import_module(f"mzfringe.{module_name}"), fn_name, None)
        if fn is None:
            tracer.missing.append(qualname)
        else:
            wrappers[id(fn)] = (fn, tracer.wrap(qualname, fn))
    for module_name, module in list(sys.modules.items()):
        if module_name != "mzfringe" and not module_name.startswith("mzfringe."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return tracer


def _cluster(delays) -> list[float]:
    out: list[float] = []
    for d in sorted(delays):
        if not out or d - out[-1] > DELAY_TOL:
            out.append(d)
    return out


def arm_bins(arm) -> list[float]:
    """Distinct total delays an arm can reach: subset sums of crystal delays."""
    bins = [0.0]
    for elem in arm:
        delay = getattr(elem, "delay", None)
        if delay:
            bins = _cluster(bins + [b + delay for b in bins])
    return bins


def _matched(upper: list[float], lower: list[float]) -> int:
    return sum(bisect.bisect_right(lower, d + DELAY_TOL)
               - bisect.bisect_left(lower, d - DELAY_TOL) for d in upper)


def _arm_key(arm) -> str:
    parts = []
    for elem in arm:
        matrix = getattr(elem, "matrix", None)
        parts.append((type(elem).__name__, getattr(elem, "axis_angle", None),
                      getattr(elem, "delay", None),
                      None if matrix is None else matrix.tobytes().hex()))
    return hashlib.sha1(repr(parts).encode()).hexdigest()[:16]


def _compose_sizes(arm, *, result, **_):
    branches = 1
    for elem in arm:
        branches *= 2 if hasattr(elem, "delay") else 1
    return {"elements": len(arm), "branches": branches, "kraus_out": result,
            "arm": _arm_key(arm)}


def _contrast_sizes(spec, *, result, **_):
    upper, lower = arm_bins(spec.upper), arm_bins(spec.lower)
    return {"upper_bins": len(upper), "lower_bins": len(lower),
            "pairs_tested": len(upper) * len(lower), "matched": _matched(upper, lower)}


def _oracle_sizes(spec, *args, result, **_):
    n = len(_cluster(arm_bins(spec.upper) + arm_bins(spec.lower)))
    return {"bins": n, "dim": 4 * n, "cols_used": 2 * 2, "cols_total": 2 * 2 * n}


def _poisson_sizes(spec, phis, *args, result, **_):
    return {"points": len(phis)}


def _fit_sizes(*args, result, **_):
    iterations, converged = result
    return {"iterations": iterations, "converged": converged}


# What a traced call keeps of its result until the pass ends (arguments are
# kept as they are), so that a traced pass holds few objects the program
# itself would have freed.
_RESULT_DIGESTS = {
    "arms.compose_arm": len,
    "experiments.fit_fringe": lambda r: (int(r.iterations), int(bool(r.converged))),
}


_SIZERS = {
    "arms.compose_arm": _compose_sizes,
    "interferometer.contrast_shared_env": _contrast_sizes,
    "interferometer.oracle_contrast": _oracle_sizes,
    "experiments.poisson_fringe": _poisson_sizes,
    "experiments.fit_fringe": _fit_sizes,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its child spans."""
    self_s = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    return self_s


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass: calls and self time of every traced
    function, and the size statistics (``trace.overhead_share`` excluded)."""
    span_self_s = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    totals: dict[str, dict[str, float]] = {}
    arms: set[str] = set()
    dim_max = 0
    for (name, _, _, _, sizes), span_s in zip(spans, span_self_s):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + span_s
        if sizes:
            acc = totals.setdefault(name, {})
            for key, value in sizes.items():
                if key == "arm":
                    arms.add(value)
                else:
                    acc[key] = acc.get(key, 0) + value
            dim_max = max(dim_max, sizes.get("dim", 0))

    def total(name, key):
        return totals.get(name, {}).get(key, 0)

    compose, contrast = "arms.compose_arm", "interferometer.contrast_shared_env"
    oracle, fit = "interferometer.oracle_contrast", "experiments.fit_fringe"
    metrics = {}
    for layer in TRACED:
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    metrics.update({
        f"{compose}.branches": total(compose, "branches"),
        f"{compose}.kraus_out": total(compose, "kraus_out"),
        f"{compose}.kept_ratio": _ratio(total(compose, "kraus_out"), total(compose, "branches")),
        f"{compose}.distinct_ratio": _ratio(len(arms), calls.get(compose, 0)),
        f"{contrast}.pairs_tested": total(contrast, "pairs_tested"),
        f"{contrast}.match_ratio": _ratio(total(contrast, "matched"),
                                          total(contrast, "pairs_tested")),
        f"{oracle}.dim_max": dim_max,
        f"{oracle}.cols_used_ratio": _ratio(total(oracle, "cols_used"),
                                            total(oracle, "cols_total")),
        "experiments.poisson_fringe.points": total("experiments.poisson_fringe", "points"),
        f"{fit}.iterations": total(fit, "iterations"),
        f"{fit}.converged_ratio": _ratio(total(fit, "converged"), calls.get(fit, 0)),
    })
    return metrics
