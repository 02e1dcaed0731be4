"""Span tracing installed from outside the program.

Every traced function is replaced by a wrapper on each module namespace that
binds it (``from ... import`` copies a binding into the importing module, so
patching the defining module alone would miss most calls).  Methods are
wrapped on their classes.  Spans are kept in flat in-memory arrays and
written to a sidecar file once the run ends; per-layer metrics are
aggregated from those arrays.

A span's self time is its duration minus the durations of its direct child
spans.  Spans nest strictly in one thread, so the children of a span never
overlap and their sum is exactly the part of its interval they cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One traced callable.

    ``owner`` is a module name, or ``module:Class`` for a method.  ``span`` is
    the span name, or a function of the call arguments returning it.
    ``work`` maps ``(args, kwargs, result)`` to the span's work count.
    """

    owner: str
    attr: str
    span: str | Callable
    work: Callable | None = None


def _kraus_out(result):
    channel = result[0] if isinstance(result, tuple) else result
    return len(channel.kraus)


def _suite_span(args, kwargs):
    suite = kwargs["suite"] if "suite" in kwargs else args[1]
    return f"campaigns.suite.{suite}"


def _random_targets():
    import qrecovery.qcore as qcore

    return [
        Target("qrecovery.qcore", name, "qcore.random")
        for name in sorted(vars(qcore))
        if name.startswith("random_") and callable(getattr(qcore, name))
    ]


def targets():
    """Every callable the benchmark traces, grouped by the program's modules."""
    return [
        Target("qrecovery.campaigns", "run_suite", _suite_span),
        *(
            Target("qrecovery.theorems", name, f"theorems.{name}")
            for name in (
                "check_entropy_gain",
                "check_entropy_gain_recovery",
                "check_cond_entropy_gain",
                "check_info_gain_upper",
                "check_efficient_second_law",
                "check_info_gain_no_qsi",
                "check_info_gain_qsi",
                "check_entropic_disturbance",
            )
        ),
        Target(
            "qrecovery.theorems",
            "minimal_entropy_gain",
            "theorems.minimal_entropy_gain",
            lambda a, k, r: r.evals,
        ),
        Target("qrecovery.cpdp", "reduced_dynamics", "cpdp.reduced_dynamics",
               lambda a, k, r: _kraus_out(r)),
        Target("qrecovery.cpdp", "converse_bound", "cpdp.converse_bound"),
        Target("qrecovery.recovery", "integrated_recovery", "recovery.integrated_recovery",
               lambda a, k, r: _kraus_out(r)),
        *(
            Target("qrecovery.recovery", name, f"recovery.{name}")
            for name in ("quadrature", "petz_map", "rotated_petz", "adjoint_recovery",
                         "uhlmann_isometry")
        ),
        *(
            Target("qrecovery.bosonic", name, f"bosonic.{name}")
            for name in ("loss_channel", "amp_channel", "check_almost_unital",
                         "check_adjoint_relation", "check_bosonic_entropy_gain",
                         "check_loss_semigroup")
        ),
        *(
            Target("qrecovery.entropy", name, f"entropy.{name}")
            for name in ("entropy", "rel_entropy", "fidelity", "root_fidelity")
        ),
        Target("qrecovery.qcore:KrausMap", "apply", "qcore.KrausMap.apply",
               lambda a, k, r: len(a[0].kraus)),
        Target("qrecovery.qcore", "transfer_matrix", "qcore.transfer_matrix",
               lambda a, k, r: r.size),
        Target("qrecovery.qcore", "lift", "qcore.lift", lambda a, k, r: _kraus_out(r)),
        Target("qrecovery.qcore", "compose", "qcore.compose", lambda a, k, r: _kraus_out(r)),
        Target("qrecovery.qcore", "partial_trace", "qcore.partial_trace"),
        Target("qrecovery.qcore", "partial_trace_channel", "qcore.partial_trace_channel"),
        Target("qrecovery.qcore:Channel", "__init__", "qcore.Channel.init"),
        Target("qrecovery.qcore:DensityOperator", "__init__", "qcore.DensityOperator.init"),
        *_random_targets(),
        Target("qrecovery.matfun", "eig_hermitian", "matfun.eig_hermitian"),
        Target("qrecovery.matfun", "complex_power", "matfun.complex_power"),
        Target("numpy.linalg", "eigh", "linalg.eigh"),
        Target("numpy.linalg", "eigvalsh", "linalg.eigh"),
        Target("qrecovery.reports", "write_json", "reports.write_json",
               lambda a, k, r: os.path.getsize(k["path"] if "path" in k else a[1])),
        Target("qrecovery.reports", "summarize", "reports.summarize"),
    ]


# Per-layer metrics: span name -> reported quantities.  ``calls`` counts
# spans, ``self_s`` sums self time, ``wall_s`` sums duration, and any other
# quantity sums the span's work count.
METRICS = {
    **{f"campaigns.suite.{s}": ("wall_s",) for s in (
        "entropy-gain", "recovery", "info-gain", "info-gain-qsi", "disturbance", "cpdp",
        "bosonic")},
    **{f"theorems.{name}": ("calls", "self_s") for name in (
        "check_entropy_gain", "check_entropy_gain_recovery", "check_cond_entropy_gain",
        "check_info_gain_upper", "check_efficient_second_law", "check_info_gain_no_qsi",
        "check_info_gain_qsi", "check_entropic_disturbance")},
    "theorems.minimal_entropy_gain": ("calls", "self_s", "evals"),
    "cpdp.reduced_dynamics": ("calls", "self_s", "kraus_out"),
    "cpdp.converse_bound": ("calls", "self_s"),
    "recovery.integrated_recovery": ("calls", "self_s", "kraus_out"),
    **{f"recovery.{name}": ("calls", "self_s") for name in (
        "quadrature", "petz_map", "rotated_petz", "adjoint_recovery", "uhlmann_isometry")},
    "bosonic.loss_channel": ("calls", "self_s"),
    "bosonic.amp_channel": ("calls", "self_s"),
    **{f"bosonic.{name}": ("self_s",) for name in (
        "check_almost_unital", "check_adjoint_relation", "check_bosonic_entropy_gain",
        "check_loss_semigroup")},
    **{f"entropy.{name}": ("calls", "self_s") for name in (
        "entropy", "rel_entropy", "fidelity", "root_fidelity")},
    "qcore.KrausMap.apply": ("calls", "self_s", "kraus"),
    "qcore.transfer_matrix": ("calls", "self_s", "entries"),
    "qcore.lift": ("calls", "self_s", "kraus_out"),
    "qcore.compose": ("calls", "self_s", "kraus_out"),
    **{f"qcore.{name}": ("calls", "self_s") for name in (
        "partial_trace", "partial_trace_channel", "Channel.init", "DensityOperator.init",
        "random")},
    "matfun.eig_hermitian": ("calls", "self_s"),
    "matfun.complex_power": ("calls", "self_s"),
    "linalg.eigh": ("calls", "self_s"),
    "reports.write_json": ("self_s", "bytes"),
    "reports.summarize": ("self_s",),
}

UNITS = {"calls": "count", "self_s": "s", "wall_s": "s", "bytes": "B"}


def metric_names() -> list:
    return [f"{span}.{q}" for span, qs in METRICS.items() for q in qs]


def metric_unit(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[1], "count")


class Tracer:
    """In-memory span store.  ``clock`` is injectable so tests can fix time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack: list = []
        self._installed: list = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn: Callable, span, work: Callable | None = None) -> Callable:
        """Wrap ``fn`` so that each call records one span.

        The hot path binds the span arrays locally: on small matrices the
        wrapped calls take microseconds, and attribute lookups would add as
        much again.
        """
        name_id, parent, start, end, work_arr = (
            self.name_id, self.parent, self.start, self.end, self.work)
        stack, clock, lookup = self._stack, self.clock, self._id
        fixed = None if callable(span) else lookup(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(lookup(span(args, kwargs)) if fixed is None else fixed)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            work_arr.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if work is not None:
                work_arr[idx] = work(args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self, specs) -> None:
        """Wrap every target on its owner and on each ``qrecovery`` module binding it."""
        specs = list(specs)
        for t in specs:
            importlib.import_module(t.owner.partition(":")[0])
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qrecovery" or n.startswith("qrecovery."))]
        for t in specs:
            mod_name, _, cls_name = t.owner.partition(":")
            owner = sys.modules[mod_name]
            if cls_name:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[t.attr] if cls_name else getattr(owner, t.attr)
            wrapper = self.wrap(original, t.span, t.work)
            self._patch(owner, t.attr, original, wrapper)
            if cls_name:
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())

    def aggregate(self) -> dict:
        """Per span name: calls, wall (summed duration), self time, summed work."""
        a = self.arrays()
        n = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = dur - child
        ids = a["name_id"]
        calls = np.bincount(ids, minlength=n)
        wall = np.bincount(ids, weights=dur, minlength=n)
        self_sum = np.bincount(ids, weights=self_t, minlength=n)
        work = np.bincount(ids, weights=a["work"], minlength=n)
        return {
            name: {"calls": int(calls[i]), "wall_s": float(wall[i]),
                   "self_s": float(self_sum[i]), "work": float(work[i])}
            for i, name in enumerate(self.names)
        }


def layer_metrics(agg: dict) -> dict:
    """Flatten aggregated spans into the named per-layer metrics (0 when unused)."""
    out = {}
    for span, quantities in METRICS.items():
        stats = agg.get(span, {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "work": 0.0})
        for q in quantities:
            key = q if q in ("calls", "self_s", "wall_s") else "work"
            value = stats[key]
            out[f"{span}.{q}"] = int(value) if key in ("calls", "work") else value
    return out
