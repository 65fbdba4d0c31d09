"""Span tracing of ``projqm`` from outside the package.

:class:`Tracer` replaces the public functions of each ``projqm`` module
(plus ``Report.add`` and ``Report.write``) with wrappers that record a
span - name, start, end, parent span and job id - into flat in-memory
arrays.  ``projqm`` modules bind each other's functions with
``from .x import f``, so a wrapper is installed in every loaded ``projqm``
namespace that bound the original: ``project`` is replaced in
``projective``, ``cli``, ``dynamics``, ``geodesics``, ``kahler`` and the
package itself, ``poisson_bracket`` also in ``interference``, and
``_shoot`` finds the wrapped ``integrate_geodesic`` in ``projqm.geodesics``.  :meth:`Tracer.uninstall` puts the originals back,
so untraced rounds run the unmodified program.

In ``projqm.cli`` only ``main`` is wrapped: the ``cmd_*`` bodies - random
draws, check arithmetic, report assembly - are the CLI layer's own work
and count as ``cli.main`` self time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("hilbert", "projective", "kahler", "dynamics", "geodesics",
           "interference", "report", "cli")
METHODS = (("report", "Report", "add"), ("report", "Report", "write"))


def _flow_steps(counters, args, kwargs, result):
    counters["dynamics.flow_integrate.steps"] += result.times.size - 1


def _geodesic_steps(counters, args, kwargs, result):
    counters["geodesics.integrate_geodesic.steps"] += len(result.samples) - 1


def _pairs(counters, args, kwargs, result):
    counters["geodesics.integrated_pair_distances.pairs"] += len(result)


def _certificate(counters, args, kwargs, result):
    counters["geodesics.shots"] += result.iterations
    counters["geodesics.converged"] += bool(result.converged)


def _kernel_bytes(counters, args, kwargs, result):
    wall = args[0] if args else kwargs["wall"]
    counters["interference.propagate_to_screen.kernel_bytes"] += (
        result.screen_positions.size * wall.dim * 16)


def _bytes_written(counters, args, kwargs, result):
    counters["report.bytes_written"] += os.path.getsize(result)


#: Counters recorded from a call's arguments and result, by span name.
COUNTERS = {
    "dynamics.flow_integrate": _flow_steps,
    "geodesics.integrate_geodesic": _geodesic_steps,
    "geodesics.integrated_pair_distances": _pairs,
    "geodesics.total_geodesy_certificate": _certificate,
    "interference.propagate_to_screen": _kernel_bytes,
    "report.Report.write": _bytes_written,
    "report.write_csv": _bytes_written,
}


class Tracer:
    """Records spans of ``projqm`` calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.job_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        count = COUNTERS.get(name)
        stack, start, end = self._stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public ``projqm`` function in every namespace bound to it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"projqm.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and (short != "cli" or attr == "main")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "projqm" or n.startswith("projqm."))]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"projqm.{short}"], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time its children cover.

        Children of one span run one after another, so their durations add.
        """
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def totals(self):
        """Calls and summed self time by span name."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=self.self_times(), minlength=n)
        return ({name: int(calls[i]) for i, name in enumerate(self.names)},
                {name: float(self_s[i]) for i, name in enumerate(self.names)})

    def write(self, path: str) -> str:
        """Save the spans as ``.npz``: names, name id, parent, job, start, end."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 job=np.frombuffer(self.job, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
        return path


#: (metric, unit, better) of the traced run, in report order.  Names of the
#: form ``<span>.calls`` / ``<span>.self_s`` are per round; a module name
#: with ``.self_s`` is the self time of all its spans.
PER_LAYER = [
    *[(f"{m}.self_s", "s", "lower") for m in MODULES[:-1]],
    ("hilbert.as_hermitian.calls", "count", "lower"),
    ("hilbert.as_hermitian.self_s", "s", "lower"),
    ("hilbert.expectation.calls", "count", "lower"),
    ("hilbert.expectation.self_s", "s", "lower"),
    ("hilbert.evolve_exact.calls", "count", "lower"),
    ("hilbert.evolve_exact.self_s", "s", "lower"),
    ("projective.project.calls", "count", "lower"),
    ("projective.project.self_s", "s", "lower"),
    ("projective.fs_distance.calls", "count", "lower"),
    ("projective.sphere_membership.calls", "count", "lower"),
    ("projective.sphere_membership.self_s", "s", "lower"),
    ("projective.sphere_area.self_s", "s", "lower"),
    ("kahler.hamiltonian_vector_field.calls", "count", "lower"),
    ("kahler.hamiltonian_vector_field.self_s", "s", "lower"),
    ("kahler.poisson_bracket.calls", "count", "lower"),
    ("kahler.poisson_bracket.self_s", "s", "lower"),
    ("kahler.uncertainty_audit.self_s", "s", "lower"),
    ("kahler.killing_residual.self_s", "s", "lower"),
    ("dynamics.flow_integrate.calls", "count", "lower"),
    ("dynamics.flow_integrate.self_s", "s", "lower"),
    ("dynamics.flow_integrate.steps", "count", "lower"),
    ("dynamics.flow_vs_exact_deviation.self_s", "s", "lower"),
    ("dynamics.ehrenfest_residual.self_s", "s", "lower"),
    ("geodesics.integrated_pair_distances.self_s", "s", "lower"),
    ("geodesics.integrated_pair_distances.pairs", "count", "higher"),
    ("geodesics.total_geodesy_certificate.calls", "count", "lower"),
    ("geodesics.total_geodesy_certificate.self_s", "s", "lower"),
    ("geodesics.integrate_geodesic.calls", "count", "lower"),
    ("geodesics.integrate_geodesic.self_s", "s", "lower"),
    ("geodesics.integrate_geodesic.steps", "count", "lower"),
    ("geodesics.shots_per_certificate", "count", "lower"),
    ("geodesics.certificate_converged_ratio", "ratio", "higher"),
    ("interference.propagate_to_screen.calls", "count", "lower"),
    ("interference.propagate_to_screen.self_s", "s", "lower"),
    ("interference.propagate_to_screen.kernel_bytes", "B", "lower"),
    ("interference.propagations_per_job", "count", "lower"),
    ("interference.fringe_spacing.self_s", "s", "lower"),
    ("interference.projector_poisson_check.self_s", "s", "lower"),
    ("report.Report.add.calls", "count", "lower"),
    ("report.Report.add.self_s", "s", "lower"),
    ("report.Report.write.self_s", "s", "lower"),
    ("report.digest_inputs.self_s", "s", "lower"),
    ("report.write_csv.self_s", "s", "lower"),
    ("report.bytes_written", "B", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, two_slit_jobs: int,
                  traced_run_s: float, overhead_s: float) -> dict[str, float]:
    """The :data:`PER_LAYER` values; counts and times are per traced round.

    ``traced_run_s`` is the mean traced round time, which the module and
    ``cli.main`` self times add up to; ``overhead_s`` is the traced minus
    the untraced round time.
    """
    calls, self_s = tracer.totals()
    c = tracer.counters
    values = {}
    for name, _, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls.get(base, 0) / rounds
        elif kind == "self_s" and base in MODULES:
            values[name] = sum(v for k, v in self_s.items()
                               if k.startswith(base + ".")) / rounds
        elif kind == "self_s":
            values[name] = self_s.get(base, 0.0) / rounds
    certs = calls.get("geodesics.total_geodesy_certificate", 0)
    pair_calls = calls.get("geodesics.integrated_pair_distances", 0)
    values.update({
        "dynamics.flow_integrate.steps": c["dynamics.flow_integrate.steps"] / rounds,
        "geodesics.integrate_geodesic.steps": c["geodesics.integrate_geodesic.steps"] / rounds,
        "geodesics.integrated_pair_distances.pairs":
            _ratio(c["geodesics.integrated_pair_distances.pairs"], pair_calls),
        "geodesics.shots_per_certificate": _ratio(c["geodesics.shots"], certs),
        "geodesics.certificate_converged_ratio": _ratio(c["geodesics.converged"], certs),
        "interference.propagate_to_screen.kernel_bytes":
            c["interference.propagate_to_screen.kernel_bytes"] / rounds,
        "interference.propagations_per_job":
            _ratio(calls.get("interference.propagate_to_screen", 0), two_slit_jobs),
        "report.bytes_written": c["report.bytes_written"] / rounds,
        "trace.run_s": traced_run_s,
        "trace.overhead_s": overhead_s,
    })
    return values
