"""Tests of the benchmark itself: failure accounting, digests, determinism,
tracing and the output contract.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import projqm  # noqa: E402
import projqm.cli  # noqa: E402
from perfbench import machine, workloads  # noqa: E402
from perfbench.jobs import JobResult, run_job  # noqa: E402
from perfbench.run import END_TO_END, Client, round_seconds  # noqa: E402
from perfbench.tracer import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from perfbench.workloads import Job  # noqa: E402

RAISES = Job(argv=("demo-spin", "--dt", "0"), report="demo-spin.json",
             checks=frozenset())
CHECK_FAILS = Job(argv=("kahler-audit", "--dims", "2", "--trials", "2",
                        "--tolerance-scale", "0"),
                  report="kahler-audit.json", checks=frozenset())


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return "work"


def _snapshot(rounds, inputs_dir):
    files = {}
    for name in sorted(os.listdir(inputs_dir)):
        with open(os.path.join(inputs_dir, name), "rb") as fh:
            files[name] = fh.read()
    return [[job.argv for job in jobs] for jobs in rounds], files


# -- correctness accounting ------------------------------------------------

def test_exception_from_main_is_a_failed_job(workdir):
    result = run_job(projqm.cli.main, RAISES, workdir)
    assert result.failed and result.exit_code is None
    assert "ValueError" in result.problems[0]


def test_nonzero_exit_is_a_failed_job(workdir):
    result = run_job(projqm.cli.main, CHECK_FAILS, workdir)
    assert result.failed and result.exit_code == 1
    assert any("failed: residual" in p for p in result.problems)


def test_failures_do_not_stop_the_round(workdir):
    good = workloads.generate("audit", 0, "inputs", rounds=1)[0][0]
    client = Client(projqm.cli, [[RAISES, CHECK_FAILS, good]], workdir)
    client.run_round(0)
    assert [r.failed for r in client.job_results] == [True, True, False]


def test_stale_report_is_not_taken_for_output(workdir):
    good = workloads.generate("audit", 0, "inputs", rounds=1)[0][0]
    assert not run_job(projqm.cli.main, good, workdir).failed
    broken = Job(argv=("kahler-audit", "--dims", "9"), report=good.report,
                 checks=good.checks)
    result = run_job(projqm.cli.main, broken, workdir)
    assert result.exit_code == 2
    assert "missing output kahler-audit.json" in result.problems


# -- determinism -----------------------------------------------------------

@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_in_its_seed(workdir, name):
    first = _snapshot(workloads.generate(name, 3, "inputs"), "inputs")
    shutil.rmtree("inputs")
    again = _snapshot(workloads.generate(name, 3, "inputs"), "inputs")
    shutil.rmtree("inputs")
    other = _snapshot(workloads.generate(name, 4, "inputs"), "inputs")
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", ["audit", "flow-slit"])
def test_reruns_and_traced_runs_write_identical_outputs(workdir, name):
    rounds = workloads.generate(name, 1, "inputs", rounds=1)
    first = Client(projqm.cli, rounds, workdir)
    first.run_round(0)
    rerun = Client(projqm.cli, workloads.generate(name, 1, "inputs", rounds=1), workdir)
    rerun.run_round(0)
    tracer = Tracer()
    tracer.install()
    try:
        first.run_round(0, tracer=tracer)
    finally:
        tracer.uninstall()
    digests = [[r.digests for r in rs] for _, _, rs in first.results + rerun.results]
    assert digests[0] and all(d == digests[0] for d in digests)
    assert all(r.digests and not r.failed for r in first.job_results)


# -- tracing ---------------------------------------------------------------

def test_tracer_wraps_every_namespace_and_restores_them():
    original = projqm.projective.project
    integrate = projqm.geodesics.integrate_geodesic
    tracer = Tracer()
    tracer.install()
    try:
        bound = {m.project for m in (projqm, projqm.cli, projqm.dynamics,
                                     projqm.geodesics, projqm.kahler,
                                     projqm.projective)}
        assert len(bound) == 1 and original not in bound
        assert projqm.interference.poisson_bracket is projqm.kahler.poisson_bracket
        assert projqm.geodesics.integrate_geodesic is not integrate
        assert projqm.cli.main is not projqm.cli.cmd_two_slit
    finally:
        tracer.uninstall()
    assert projqm.cli.project is original and projqm.dynamics.project is original
    assert projqm.geodesics.integrate_geodesic is integrate


def test_self_times_add_up_to_the_traced_run(workdir):
    rounds = workloads.generate("audit", 2, "inputs", rounds=1)
    client = Client(projqm.cli, rounds, workdir)
    tracer = Tracer()
    tracer.install()
    try:
        run_s = client.run_round(0, tracer=tracer)
    finally:
        tracer.uninstall()
    values = layer_metrics(tracer, 1, 0, run_s, 0.0)
    layers = [f"{m}.self_s" for m in ("hilbert", "projective", "kahler", "dynamics",
                                      "geodesics", "interference", "report")]
    accounted = sum(values[k] for k in layers) + values["cli.main.self_s"]
    assert values["cli.main.calls"] == len(rounds[0])
    assert abs(accounted - run_s) <= 1e-3 * run_s
    assert set(values) == {name for name, _, _ in PER_LAYER}


def test_run_s_sums_each_positions_median_untraced_job():
    client = Client(None, [], "unused")

    def results(*walls):
        return [JobResult(argv=("x",), wall_s=w, exit_code=0) for w in walls]

    client.results = [(0, False, results(2.0, 5.0)), (1, False, results(3.0, 9.0)),
                      (2, False, results(7.0, 4.0)), (2, True, results(0.5, 0.5))]
    assert round_seconds(client) == 3.0 + 5.0


# -- contract --------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_machine_facts_are_recorded():
    facts = machine.facts()
    assert facts["nproc"] >= 1 and facts["numpy"] and facts["scipy"]
    assert facts["cpu_pinning"] == "none" and "RUSAGE_SELF" in facts["rss_scope"]


def _copy_benchmark(dest, with_program):
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_contract_line(tmp_path, trace):
    _copy_benchmark(tmp_path, with_program=True)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "5",
         "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    names = [n for n, _, _ in (PER_LAYER if trace == "1" else END_TO_END)]
    assert list(last["metrics"]) == names
    assert "fail_ratio" in done.stdout


def test_run_fails_without_the_program(tmp_path):
    _copy_benchmark(tmp_path, with_program=False)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
