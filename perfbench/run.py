#!/usr/bin/env python3
"""projqm benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload geodesic --seed 0 --seconds 40 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, and everything the run writes goes under ``.perfbench_out/``
there.  One process is one closed-loop client: it runs the workload's
rounds of ``projqm.cli.main(argv)`` jobs back to back until the next
round would overrun ``--seconds`` (at least ``MIN_ROUNDS`` rounds), and
checks every job's exit code, report and CSV.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs of each round and reports the per-layer metrics.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers as a table, with units, and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = ".perfbench_out"

if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, ROOT)

from perfbench import machine, workloads  # noqa: E402
from perfbench.jobs import headroom_decades, run_job  # noqa: E402
from perfbench.tracer import PER_LAYER, Tracer, layer_metrics  # noqa: E402

#: Fresh-interpreter imports timed for ``setup_s``; their median is used.
IMPORT_PROBES = 3
#: Untraced rounds every run makes; ``headroom_dec`` is taken over them, so
#: it does not depend on how many rounds fit in ``--seconds``.
MIN_ROUNDS = 3

#: (metric, unit, better) reported with ``--trace 0``.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("headroom_dec", "decades", "higher"),
]

_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
          "t = time.perf_counter(); import projqm.cli; "
          "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time ``import projqm.cli`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _PROBE, SRC], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def load_program():
    """Import ``projqm.cli`` from this checkout's ``src/``, or exit with an error."""
    sys.path.insert(0, SRC)
    try:
        import projqm.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import projqm from {SRC}: {exc}")
    if not os.path.abspath(projqm.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: projqm was imported from {projqm.cli.__file__}, not {SRC}")
    return projqm.cli


class Client:
    """Runs rounds of jobs and keeps every result, checking repeats agree."""

    def __init__(self, cli, rounds, workdir):
        self.cli = cli
        self.rounds = rounds
        self.workdir = workdir
        self.results = []          # (round index, traced, [JobResult])
        self._digests = {}

    def run_round(self, index: int, tracer=None, keep_entries: bool = True) -> float:
        """Run round ``index``; return the summed wall time of its ``main`` calls.

        Pass the installed ``tracer`` for a traced round.  ``keep_entries=False``
        drops the report entries once checked, so that peak RSS does not
        grow with the number of rounds run.
        """
        jobs = self.rounds[index % len(self.rounds)]
        out = []
        for j, job in enumerate(jobs):
            if tracer is not None:
                tracer.job_id = sum(len(r) for _, _, r in self.results) + j
            # looked up per job, so a traced round calls the wrapped main
            out.append(run_job(self.cli.main, job, os.path.join(self.workdir, "out", f"job{j}")))
        key = index % len(self.rounds)
        digests = [r.digests for r in out]
        first = self._digests.setdefault(key, digests)
        for r, want, got in zip(out, first, digests):
            if want != got:
                r.problems.append("outputs differ from an earlier run of the same argv")
        if not keep_entries:
            for r in out:
                r.entries.clear()
        self.results.append((index, tracer is not None, out))
        return sum(r.wall_s for r in out)

    @property
    def job_results(self):
        return [r for _, _, rs in self.results for r in rs]


def round_seconds(client) -> float:
    """Sum over a round's job positions of each position's median untraced time.

    Every round has the same shape, so job ``j`` of one round costs what job
    ``j`` of any other round costs, and the median of position ``j`` is taken
    over every untraced round of the run.  A job slowed by a passing burst
    of host load moves only its own position's median, and only when it is
    not outnumbered by the other rounds.
    """
    times: dict[int, list[float]] = {}
    for _, traced, rs in client.results:
        if not traced:
            for j, r in enumerate(rs):
                times.setdefault(j, []).append(r.wall_s)
    return sum(statistics.median(t) for t in times.values())


def measure(client, seconds: float) -> tuple[dict, list[float]]:
    """Untraced rounds until the next would overrun ``seconds``."""
    times = []
    t0 = perf_counter()
    while (len(times) < MIN_ROUNDS
           or perf_counter() - t0 + statistics.median(times) <= seconds):
        times.append(client.run_round(len(times), keep_entries=len(times) < MIN_ROUNDS))
    mean, worst = headroom_decades(client.job_results)  # first MIN_ROUNDS rounds
    return {
        "run_s": round_seconds(client),
        "median_round_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "headroom_dec": mean,
        "worst_headroom_dec": worst,
    }, times


def measure_traced(client, seconds: float, tracer) -> tuple[dict, list[float]]:
    """Pairs of untraced and traced runs of one round, until ``seconds``."""
    plain, traced = [], []
    t0 = perf_counter()
    while not plain or perf_counter() - t0 + statistics.median(
            a + b for a, b in zip(plain, traced)) <= seconds:
        k = len(plain)
        plain.append(client.run_round(k, keep_entries=False))
        tracer.install()
        try:
            traced.append(client.run_round(k, tracer=tracer, keep_entries=False))
        finally:
            tracer.uninstall()
    n = len(traced)
    slit_jobs = sum(1 for _, t, rs in client.results if t
                    for r in rs if r.argv[0] == "two-slit")
    overhead = statistics.median(b - a for a, b in zip(plain, traced))
    return layer_metrics(tracer, n, slit_jobs, sum(traced) / n, overhead), traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    os.chdir(ROOT)
    cli = load_program()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")

    # The work directory names the input files, which evolve reports record,
    # so it depends on workload and seed only: reruns give identical outputs.
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)

    probes = [] if args.trace else [import_seconds() for _ in range(IMPORT_PROBES)]
    t0 = perf_counter()
    rounds = workloads.generate(args.workload, args.seed, os.path.join(workdir, "inputs"))
    generate_s = perf_counter() - t0

    client = Client(cli, rounds, workdir)
    if args.trace:
        tracer = Tracer()
        values, round_times = measure_traced(client, args.seconds, tracer)
        spec = PER_LAYER
        tracer.write(os.path.join(OUT, f"{run_id}-spans.npz"))
    else:
        values, round_times = measure(client, args.seconds)
        values["setup_s"] = statistics.median(probes) + generate_s
        spec = END_TO_END

    results = client.job_results
    failed = sum(r.failed for r in results)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    # Shown with the metrics but not among them: fail_ratio is 0 when all is
    # well, and the worst single entry's headroom moves with the seed.
    extra = {"fail_ratio": {"value": failed / len(results), "unit": "ratio"}}
    if "worst_headroom_dec" in values:
        extra["worst_headroom_dec"] = {"value": values["worst_headroom_dec"],
                                       "unit": "decades"}
        extra["median_round_s"] = {"value": values["median_round_s"], "unit": "s"}
    facts = machine.facts()

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "why": workloads.WORKLOADS[args.workload].why,
        "machine": facts, "metrics": metrics, "extra": extra,
        "import_probes_s": probes, "generate_s": generate_s,
        "round_times_s": round_times,
        "jobs": [{"round": i, "traced": t, "argv": list(r.argv), "wall_s": r.wall_s,
                  "exit_code": r.exit_code, "digests": r.digests, "problems": r.problems}
                 for i, t, rs in client.results for r in rs],
    }
    with open(os.path.join(OUT, f"{run_id}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)

    for r in results:
        for problem in r.problems:
            print(f"FAILED {' '.join(r.argv)}: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(round_times)}  jobs {len(results)}  failed {failed}")
    for name, m in {**metrics, **extra}.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
