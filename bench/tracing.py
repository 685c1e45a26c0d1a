"""Traced run: spans around the calls into each package layer.

The tracer rebinds public functions of the package at every module that
binds them (``spectrum.hamiltonian_direct`` and ``cli.hamiltonian_direct``
are separate bindings of one function).  Module globals are looked up at
call time, so calls made inside the package, such as
``ground_state_scan -> solve_bae -> bae_residual``, pass through the
wrappers too.  Nothing under ``src/`` changes; the original bindings are
restored by ``uninstall``.

A span is (name, start, end, parent, op id, raised).  Spans are recorded
only while an op is active, kept in memory, and written out at the end.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass

import numpy as np

import competing_chain
from competing_chain import (algebra, bae, cli, hamiltonian, params, spectrum,
                             thermo, transfer)

PACKAGE_MODULES = (competing_chain, algebra, bae, cli, hamiltonian, params,
                   spectrum, thermo, transfer)

# span name -> (defining module, public function names)
LAYER_FUNCTIONS = {
    "hamiltonian.direct": (hamiltonian, ("hamiltonian_direct",)),
    "transfer.apply": (transfer, ("apply_transfer",)),
    "transfer.matrix": (transfer, ("transfer_matrix",)),
    "transfer.h_from_transfer": (transfer, ("hamiltonian_from_transfer",)),
    "spectrum.diagonalize": (spectrum, ("diagonalize",)),
    "spectrum.roots": (spectrum, ("state_zero_roots", "transfer_state_roots")),
    "spectrum.lambda_samples": (spectrum, ("lambda_samples",)),
    "algebra.residual": (algebra, ("yang_baxter_residual", "reflection_residual")),
    "cli.main": (cli, ("main",)),
    "bae.solve": (bae, ("solve_bae",)),      # named per call: bae.ladder or bae.direct
    "bae.certify": (bae, ("bae_residual",)),
    "bae.classify": (bae, ("classify_pattern",)),
    "bae.scan": (bae, ("ground_state_scan",)),
    "thermo.integral": (thermo, ("half_line_integral",)),
}

# per-layer metrics: name -> unit (all lower is better)
PER_LAYER_METRICS = {
    "hamiltonian.direct.calls": "count",
    "hamiltonian.direct.s": "s",
    "hamiltonian.direct.bytes": "B",
    "transfer.apply.calls": "count",
    "transfer.apply.s": "s",
    "transfer.matrix.calls": "count",
    "transfer.matrix.s": "s",
    "transfer.h_from_transfer.s": "s",
    "spectrum.diagonalize.self_s": "s",
    "spectrum.roots.calls": "count",
    "spectrum.roots.self_s": "s",
    "spectrum.lambda_samples.calls": "count",
    "spectrum.failures": "count",
    "algebra.residual.calls": "count",
    "algebra.residual.s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "bae.ladder.calls": "count",
    "bae.ladder.s": "s",
    "bae.direct.calls": "count",
    "bae.direct.s": "s",
    "bae.direct.failures": "count",
    "bae.certify.calls": "count",
    "bae.certify_per_solve": "ratio",
    "bae.classify.calls": "count",
    "bae.classify.s": "s",
    "bae.scan.self_s": "s",
    "thermo.integral.calls": "count",
    "thermo.integral.s": "s",
    "thermo.integrand_points": "count",
    "thermo.points_per_integral": "ratio",
    "thermo.failures": "count",
    "bench.op.self_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}

_SOLVE_HOMOTOPY_DEFAULT = inspect.signature(bae.solve_bae).parameters["homotopy"].default


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    raised: str | None = None
    nbytes: int = 0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.integrand_points = 0
        self._stack: list = []
        self._op: int | None = None
        self._saved: list = []   # (module, attribute, original)

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, raised: BaseException | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if raised is not None:
            span.raised = type(raised).__name__
        self._stack.pop()

    def run_op(self, op_id: int, kind: str, fn):
        """Run one op as a root span; returns the op's result."""
        self._op = op_id
        index = self._open("op." + kind)
        try:
            result = fn()
        except BaseException as exc:
            self._close(index, exc)
            raise
        finally:
            self._op = None
        self._close(index)
        return result

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span_name = name
            if name == "bae.solve":
                span_name = _solve_span_name(args, kwargs)
            elif name == "thermo.integral":
                args = (tracer._count_points(args[0]),) + args[1:]
            index = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(index, exc)
                raise
            if isinstance(result, np.ndarray):
                tracer.spans[index].nbytes = result.nbytes
            tracer._close(index)
            return result
        return traced

    def _count_points(self, f):
        def counted(k):
            self.integrand_points += np.size(k)
            return f(k)
        return counted

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for name, (home, functions) in LAYER_FUNCTIONS.items():
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(name, original)
                for module in PACKAGE_MODULES:
                    if getattr(module, fname, None) is original:
                        self._saved.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._saved):
            setattr(module, fname, original)
        self._saved.clear()

    # -- output -----------------------------------------------------------

    def self_times(self) -> list:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s, self_s in zip(self.spans, own):
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op,
                                     "self_s": self_s, "raised": s.raised}) + "\n")

    def metrics(self, untraced_wall_s: float) -> dict:
        """Aggregate the spans into the per-layer metrics (see PER_LAYER_METRICS)."""
        own = self.self_times()
        calls: dict = {}
        total: dict = {}
        self_s: dict = {}
        raised: dict = {}
        nbytes: dict = {}
        for s, o in zip(self.spans, own):
            key = "bench.op" if s.name.startswith("op.") else s.name
            calls[key] = calls.get(key, 0) + 1
            total[key] = total.get(key, 0.0) + (s.end - s.start)
            self_s[key] = self_s.get(key, 0.0) + o
            nbytes[key] = nbytes.get(key, 0) + s.nbytes
            if s.raised is not None:
                raised[key] = raised.get(key, 0) + 1
        wall = sum(s.end - s.start for s in self.spans if s.parent is None)
        solves = (calls.get("bae.ladder", 0) - raised.get("bae.ladder", 0)
                  + calls.get("bae.direct", 0) - raised.get("bae.direct", 0))
        integrals = calls.get("thermo.integral", 0)
        values = {
            "hamiltonian.direct.bytes": nbytes.get("hamiltonian.direct", 0),
            "spectrum.failures": sum(raised.get(k, 0) for k in (
                "spectrum.diagonalize", "spectrum.roots", "spectrum.lambda_samples")),
            "bae.direct.failures": raised.get("bae.direct", 0),
            "bae.certify_per_solve": calls.get("bae.certify", 0) / solves if solves else 0.0,
            "thermo.integrand_points": self.integrand_points,
            "thermo.points_per_integral": (self.integrand_points / integrals
                                           if integrals else 0.0),
            "thermo.failures": raised.get("thermo.integral", 0),
            "trace.wall_s": wall,
            "trace.self_sum_s": sum(own),
            "trace.overhead_s": wall - untraced_wall_s,
        }
        for metric in PER_LAYER_METRICS:
            if metric not in values:
                layer, stat = metric.rsplit(".", 1)
                values[metric] = {"calls": calls, "s": total, "self_s": self_s}[stat].get(layer, 0)
        return {metric: values[metric] for metric in PER_LAYER_METRICS}


def _solve_span_name(args, kwargs) -> str:
    homotopy = kwargs.get("homotopy", args[2] if len(args) > 2 else _SOLVE_HOMOTOPY_DEFAULT)
    return "bae.direct" if homotopy is None else "bae.ladder"
