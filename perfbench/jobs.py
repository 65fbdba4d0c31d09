"""Run one CLI job in-process, time it, and check what it wrote.

A job fails when ``main`` raises, exits nonzero, or leaves outputs that do
not pass the checks below: the report must exist, hold every check the
job expects, pass each of them with a finite residual, and say
``all_pass``; a CSV must be finite, with the expected row count, and a
trajectory must stay on the unit sphere and end at ``t_end``.  Failures
are recorded, never raised, so one bad job does not stop the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .workloads import Job


@dataclass
class JobResult:
    argv: tuple[str, ...]
    wall_s: float
    exit_code: int | None
    problems: list[str] = field(default_factory=list)
    #: sha256 of each output file, by file name.
    digests: dict[str, str] = field(default_factory=dict)
    #: (check name, residual, tolerance) of every report entry.
    entries: list[tuple[str, float, float]] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_report(job: Job, path: str, result: JobResult) -> None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        entries = [(e["check_name"], float(e["residual"]), float(e["tolerance"]),
                    e.get("pass")) for e in doc["entries"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.problems.append(f"unreadable report: {exc!r}")
        return
    missing = sorted(job.checks - {name for name, *_ in entries})
    if missing:
        result.problems.append(f"report lacks checks {missing}")
    for name, res, tol, passed in entries:
        result.entries.append((name, res, tol))
        if not (math.isfinite(res) and res <= tol and passed is True):
            result.problems.append(f"check {name} failed: residual {res!r}, tolerance {tol!r}")
    if doc.get("all_pass") is not True:
        result.problems.append("report does not say all_pass")


def _check_csv(job: Job, path: str, result: JobResult) -> None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        result.problems.append(f"unreadable CSV: {exc}")
        return
    if data.shape[1] != len(header) or not np.all(np.isfinite(data)):
        result.problems.append("CSV has ragged or non-finite rows")
        return
    if job.csv_rows is not None and data.shape[0] != job.csv_rows:
        result.problems.append(f"CSV has {data.shape[0]} rows, expected {job.csv_rows}")
    if job.t_end is not None:
        if abs(data[-1, 0] - job.t_end) > 1e-9:
            result.problems.append(f"trajectory ends at {data[-1, 0]!r}, not {job.t_end!r}")
        psi = [i for i, name in enumerate(header) if name.startswith("psi")]
        drift = float(np.max(np.abs(np.sum(data[:, psi] ** 2, axis=1) - 1.0)))
        if drift > 1e-9:
            result.problems.append(f"trajectory leaves the unit sphere by {drift:.3e}")


def run_job(main, job: Job, outdir: str) -> JobResult:
    """Run ``main(argv + ["--out", outdir])``, timing only the call, then check."""
    os.makedirs(outdir, exist_ok=True)
    outputs = [job.report] + ([job.csv] if job.csv else [])
    for name in outputs:  # a stale file must not pass for this job's output
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(outdir, name))
    argv = [*job.argv, "--out", outdir]
    sink = io.StringIO()
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects usage this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is a failed job, not a stop
            code, error = None, traceback.format_exc(limit=3)
        wall = perf_counter() - t0
    result = JobResult(argv=tuple(job.argv), wall_s=wall, exit_code=code)
    if error is not None:
        result.problems.append(f"raised: {error.strip().splitlines()[-1]}")
    elif code != 0:
        result.problems.append(f"exit code {code}: {sink.getvalue().strip()[-300:]}")
    for name in outputs:
        path = os.path.join(outdir, name)
        if not os.path.exists(path):
            result.problems.append(f"missing output {name}")
            continue
        result.digests[name] = _sha256(path)
        if name == job.report:
            _check_report(job, path, result)
        else:
            _check_csv(job, path, result)
    return result


def headroom_decades(results) -> tuple[float, float]:
    """Accuracy headroom of the reports, in decades: ``(mean, worst)``.

    An entry's headroom is ``log10(tolerance / residual)``, over entries with
    tolerance > 0; the residual is floored at ``1e-16 * tolerance`` so exact
    zeros and one-sided negative residuals read 16 decades, not ~300.  Each
    check name contributes its worst entry; ``mean`` averages those over the
    check names and ``worst`` is the smallest.  The worst entry moves with
    the seed (one random Hamiltonian or slit geometry decides it), the mean
    over check names does not, and it still drops when any check loses
    accuracy on its worst input.
    """
    worst = {}
    for r in results:
        for name, res, tol in r.entries:
            if tol > 0.0:
                h = math.log10(tol / max(res, 1e-16 * tol))
                worst[name] = min(h, worst.get(name, h))
    if not worst:
        return float("nan"), float("nan")
    return sum(worst.values()) / len(worst), min(worst.values())
