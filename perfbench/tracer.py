"""Spans around the public functions of anosovlab, recorded from outside.

A ``Tracer`` rebinds each target (a module function or a class method) to a
wrapper that records one span per call: name, start, end, parent span,
the number of points in the call's array argument, and a few counts taken
from the arguments or the result.  The rebinding covers the defining module
and every ``anosovlab`` module namespace that imported the name, and
``uninstall`` restores the originals, so tracing lasts for one phase of one
run only.  Nothing under ``src/`` changes.

Per-layer metrics come from ``layer_metrics``: self time is a span's
duration minus the time covered by its direct children (spans nest on a
single thread, so children never overlap).
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the root
    points: int          # size of the call's array argument (0 if none)
    extras: Optional[dict]


# extras: metric -> (extractor(args, kwargs, result), reducer over calls)
@dataclass(frozen=True)
class Target:
    name: str                    # metric prefix, e.g. "flow.ExactEnsemble.advance"
    module: str                  # defining module
    attr: str                    # "func" or "Class.method"
    metrics: Tuple[str, ...]     # published under the prefix, unless dotted
    points: Optional[Callable] = None
    extras: Dict[str, Tuple[Callable, Callable]] = field(default_factory=dict)


def _self_n(args, kwargs):
    return args[0].n


def _size_of(i):
    def size(args, kwargs):
        x = args[i]
        return x.size if isinstance(x, np.ndarray) else int(np.size(x))
    return size


def _sample_lags(args, kwargs, result):
    return result.n_samples * len(result.values)


def _inversion_rank(args, kwargs, result):
    return len(result.z)


def _sv_gap(args, kwargs, result):
    """Ratio of the last kept singular value to the first dropped one."""
    sv, rank = result.singular_values, len(result.z)
    if rank == 0 or rank >= len(sv) or sv[rank] == 0.0:
        return 0.0
    return float(sv[rank - 1] / sv[rank])


def _last(values):
    return values[-1]


_CALL_METRICS = ("calls", "self_s", "ns_per_point")

TARGETS: Tuple[Target, ...] = (
    Target("flow.ExactEnsemble.advance", "anosovlab.flow",
           "ExactEnsemble.advance", _CALL_METRICS, points=_self_n),
    Target("flow.evaluate_observable", "anosovlab.flow", "evaluate_observable",
           _CALL_METRICS, points=_size_of(2)),
    Target("flow.MidpointEnsemble.step", "anosovlab.flow",
           "MidpointEnsemble.step", _CALL_METRICS + ("ns_per_point_step",),
           points=_self_n),
    Target("surface.PerturbationShape.pack", "anosovlab.surface",
           "PerturbationShape.pack",
           _CALL_METRICS + ("surface.PerturbationShape.n_centers",),
           points=_size_of(1),
           extras={"n_centers": (lambda a, k, r: a[0].n_centers, max)}),
    Target("surface.octagon_area", "anosovlab.surface", "octagon_area",
           ("self_s",)),
    Target("surface.sample_octagon_positions", "anosovlab.surface",
           "sample_octagon_positions", ("accept_ratio",),
           points=lambda a, k: int(a[0])),
    # Traced only to count the candidates sample_octagon_positions draws:
    # it tests every candidate angle against the polygon boundary here.
    Target("surface.octagon_rho_max", "anosovlab.surface", "octagon_rho_max",
           (), points=_size_of(0)),
    Target("fuchsian.DirichletDomain.reduce_matrices", "anosovlab.fuchsian",
           "DirichletDomain.reduce_matrices", _CALL_METRICS + ("rounds_max",),
           points=lambda a, k: len(a[1]),
           extras={"rounds_max": (lambda a, k, r: r, max)}),
    Target("fuchsian.DirichletDomain.reduce_points", "anosovlab.fuchsian",
           "DirichletDomain.reduce_points", _CALL_METRICS + ("rounds_max",),
           points=_size_of(1),
           extras={"rounds_max": (lambda a, k, r: r[2], max)}),
    Target("fuchsian.DirichletDomain.quotient_dist", "anosovlab.fuchsian",
           "DirichletDomain.quotient_dist", _CALL_METRICS, points=_size_of(1)),
    Target("fuchsian.closed_geodesic_elements", "anosovlab.fuchsian",
           "closed_geodesic_elements", ("calls", "self_s")),
    Target("model.build_model", "anosovlab.model", "build_model", ("self_s",)),
    Target("birkhoff.band_edges_upto", "anosovlab.birkhoff", "band_edges_upto",
           ("self_s",)),
    Target("birkhoff.space_average", "anosovlab.birkhoff", "space_average",
           ("self_s",)),
    Target("correlation.correlation_series", "anosovlab.correlation",
           "correlation_series", ("self_s", "ns_per_sample_lag", "sample_lags"),
           extras={"sample_lags": (_sample_lags, sum)}),
    Target("correlation.mean_zero", "anosovlab.correlation", "mean_zero",
           ("self_s",)),
    Target("inversion.harmonic_inversion", "anosovlab.inversion",
           "harmonic_inversion", ("self_s", "rank", "sv_gap"),
           extras={"rank": (_inversion_rank, _last), "sv_gap": (_sv_gap, _last)}),
    Target("catalog.resonances_from_laplacian", "anosovlab.catalog",
           "resonances_from_laplacian", ("self_s", "entries"),
           extras={"entries": (lambda a, k, r: len(r), sum)}),
    Target("stats.band_membership", "anosovlab.stats", "band_membership",
           ("self_s",)),
    Target("stats.weyl_count", "anosovlab.stats", "weyl_count", ("self_s",)),
    Target("stats.concentration", "anosovlab.stats", "concentration",
           ("self_s",)),
    Target("tableio.write_resonances", "anosovlab.tableio", "write_resonances",
           ("self_s", "bytes"),
           extras={"bytes": (lambda a, k, r: os.path.getsize(a[0]), sum)}),
    Target("tableio.read_resonances", "anosovlab.tableio", "read_resonances",
           ("calls", "self_s")),
    Target("cli", "anosovlab.cli", "main", ("self_s",)),
)

# Metrics that must repeat exactly for a fixed seed.
COUNT_METRICS = ("calls", "rounds_max", "sample_lags", "entries", "bytes",
                 "rank", "n_centers")


def _metric_name(target: Target, metric: str) -> str:
    return metric if "." in metric else "%s.%s" % (target.name, metric)


def metric_names() -> List[str]:
    names = [_metric_name(t, m) for t in TARGETS for m in t.metrics]
    return names + ["trace.unattributed_s", "trace.overhead_frac"]


def metric_unit(name: str) -> str:
    tail = name.rsplit(".", 1)[1]
    if tail in COUNT_METRICS:
        return "count"
    if tail.startswith("ns_per_"):
        return "ns"
    if tail.endswith("_s"):
        return "s"
    return "ratio"


class Tracer:
    """Records spans for every target while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        spans, stack = self.spans, self._stack
        name, points = target.name, target.points
        extras = [(key, get) for key, (get, _) in target.extras.items()]
        clock = time.perf_counter

        # Calls record plain tuples, the cheapest record to build; take()
        # turns them into Span.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = points(args, kwargs) if points else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, n, None)
            if extras:
                spans[idx] = (name, start, end, parent, n, {
                    key: get(args, kwargs, result) for key, get in extras})
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        # Import every target module first, so that the namespaces scanned
        # below include all modules that could hold a reference.
        modules = [importlib.import_module(t.module) for t in self.targets]
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "anosovlab" or n.startswith("anosovlab.")]
        for target, module in zip(self.targets, modules):
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, self._wrap(target, original))
                continue
            original = getattr(module, target.attr)
            wrapped = self._wrap(target, original)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is original:
                        self._rebind(ns, key, wrapped)

    def _rebind(self, owner, key, value) -> None:
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def take(self) -> List[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        out = [Span._make(s) for s in self.spans]
        self.spans.clear()
        return out


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def root_time(spans: List[Span]) -> float:
    """Wall time covered by spans that have no traced parent."""
    return sum(s.end - s.start for s in spans if s.parent < 0)


def layer_metrics(spans: List[Span], targets=TARGETS) -> Dict[str, float]:
    """Per-layer metrics of one span list; absent layers read 0."""
    own = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    out: Dict[str, float] = {}
    for t in targets:
        idx = by_name.get(t.name, [])
        calls = len(idx)
        self_s = float(sum(own[i] for i in idx))
        incl_s = float(sum(spans[i].end - spans[i].start for i in idx))
        points = sum(spans[i].points for i in idx)
        extras = {}
        for key, (_, reduce) in t.extras.items():
            values = [spans[i].extras[key] for i in idx if spans[i].extras]
            extras[key] = reduce(values) if values else 0
        for name in t.metrics:
            m = name.rsplit(".", 1)[-1]
            if m == "calls":
                val = calls
            elif m == "self_s":
                val = self_s
            elif m == "ns_per_point":
                val = 1e9 * self_s / points if points else 0.0
            elif m == "ns_per_point_step":
                val = 1e9 * incl_s / points if points else 0.0
            elif m == "ns_per_sample_lag":
                lags = extras["sample_lags"]
                val = 1e9 * incl_s / lags if lags else 0.0
            elif m == "accept_ratio":
                val = _accept_ratio(spans, idx)
            else:
                val = extras[m]
            out[_metric_name(t, name)] = val
    return out


def _accept_ratio(spans: List[Span], sampler_idx: List[int]) -> float:
    """Points returned over candidate points drawn by the position sampler."""
    returned = sum(spans[i].points for i in sampler_idx)
    inside = set(sampler_idx)
    drawn = sum(s.points for s in spans
                if s.parent in inside and s.name == "surface.octagon_rho_max")
    return returned / drawn if drawn else 0.0


def write_spans(path, spans: List[Span]) -> None:
    """Spans as JSON: a name table plus [name, start, end, parent, points]."""
    names = sorted({s.name for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = min((s.start for s in spans), default=0.0)
    rows = [[index[s.name], round(s.start - t0, 9), round(s.end - t0, 9),
             s.parent, s.points] for s in spans]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": names,
                   "columns": ["name", "start_s", "end_s", "parent", "points"],
                   "spans": rows}, fh)
