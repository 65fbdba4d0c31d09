"""Benchmark workloads: each turns a seed into rounds of ``projqm`` CLI jobs.

A workload is a list of rounds.  Every round has the same shape - the same
commands, dimensions and grid sizes - so its cost does not depend on the
seed, while the seed draws the values: CLI seeds, Hamiltonians, start
states, tracked operators and slit geometries.  Input files are written
during set-up; the program sees only the argv and those files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: Distinct rounds generated per run.  Runs longer than this many rounds
#: repeat them in order, which doubles as a determinism check.
ROUNDS = 8


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``argv`` excludes ``--out``, which the runner adds."""

    argv: tuple[str, ...]
    report: str
    checks: frozenset[str]
    csv: str | None = None
    #: Expected number of CSV data rows, when the argv fixes it.
    csv_rows: int | None = None
    #: Expected last value of the CSV ``time`` column (trajectories).
    t_end: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_round: Callable[[np.random.Generator, str, str], list[Job]] = field(repr=False)


def _cli_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


def _complex_json(arr: np.ndarray) -> str:
    """``[re, im]`` pairs, the format ``projqm evolve`` reads."""
    pairs = np.stack([arr.real, arr.imag], axis=-1)
    return json.dumps(pairs.tolist(), separators=(",", ":")) + "\n"


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (m + m.conj().T) / 2.0
    return h / np.linalg.norm(h, 2)


# ---------------------------------------------------------------------------
# geodesic

GEODESIC_WHY = (
    "projqm.geodesics does ~95% of this work (finite-difference Christoffels "
    "per RK4 step): a seeded 64-pair batched sweep plus shooting certificates "
    "in dims 3-5."
)

_GEODESIC_CHECKS = frozenset({
    "closed_form_distance_vs_overlap", "integrated_distance_vs_overlap",
    "sphere_area_statistical_pi",
})
_CERTIFICATE_CHECKS = frozenset({
    "certificate_offslice_residual", "certificate_length_match",
    "certificate_arrival",
})


#: CLI seed of the certificate panel.  Fixed on purpose: one certificate
#: costs 1-5 s depending on its pair (shooting length and Brent
#: iterations), so a seeded panel would make run_s depend on the seed more
#: than on the code.  Of CLI seeds 0-25 this one gives the cheapest panel
#: (about 1.0, 1.7 and 1.7 s in dims 3, 4, 5), so more rounds fit in a run.
CERTIFICATE_PANEL_SEED = "12"


def _geodesic_round(rng, inputs_dir, tag):
    # Pair-heavy: a seeded batched sweep of 2-sphere geodesics.
    # Certificate-heavy: full-chart shooting in ambient dims 3..5, one job per
    # dim.
    return [
        Job(argv=("geodesic-verify", "--ambient-dims", "2", "--pairs", "64",
                  "--certificates", "0", "--seed", _cli_seed(rng)),
            report="geodesic-verify.json", checks=_GEODESIC_CHECKS),
    ] + [
        Job(argv=("geodesic-verify", "--ambient-dims", dim, "--pairs", "1",
                  "--certificates", "1", "--seed", CERTIFICATE_PANEL_SEED),
            report="geodesic-verify.json",
            checks=_GEODESIC_CHECKS | _CERTIFICATE_CHECKS)
        for dim in ("3", "4", "5")
    ]


# ---------------------------------------------------------------------------
# flow-slit: the flow jobs and the two-slit jobs of one round

FLOW_SLIT_WHY = (
    "projqm.dynamics/hilbert (per-step RK4 overhead at dims 2-5, matmuls at "
    "dim 8) and the Fresnel kernel of projqm.interference (16-256 MiB, 2-3 slits)."
)

#: (dim, t_end, dt, extra builtin tracked operators) of the evolve jobs.
_EVOLVE_SHAPES = ((2, 1.5, 1e-3, ("sigma_x", "sigma_y")), (3, 1.0, 2e-3, ()),
                  (5, 1.0, 2e-3, ()), (8, 1.0, 2e-3, ()))
_DEMO_SPIN_DT = 2e-3


def _flow_jobs(rng, inputs_dir, tag):
    jobs = [Job(argv=("demo-spin", "--dt", repr(_DEMO_SPIN_DT)),
                report="demo-spin.json", csv="demo-spin.csv",
                checks=frozenset({"precession_cosine", "period_return",
                                  "flow_vs_exact_deviation"}),
                t_end=2.0 * math.pi)]
    for k, (dim, t_end, dt, builtins) in enumerate(_EVOLVE_SHAPES):
        stem = os.path.join(inputs_dir, f"{tag}-evolve{k}")
        ham = _write(f"{stem}-hamiltonian.json", _complex_json(_hermitian(rng, dim)))
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        start = _write(f"{stem}-start.json", _complex_json(psi / np.linalg.norm(psi)))
        tracked = [_write(f"{stem}-track{i}.json", _complex_json(_hermitian(rng, dim)))
                   for i in range(2)]
        jobs.append(Job(argv=("evolve", "--hamiltonian", ham, "--start", start,
                              "--t-end", repr(t_end), "--dt", repr(dt),
                              "--track", ",".join([*builtins, *tracked])),
                        report="evolve.json", csv="trajectory.csv",
                        checks=frozenset({"flow_vs_exact_deviation",
                                          "ehrenfest_residual"}),
                        t_end=t_end))
    return jobs


#: (n_wall, n_screen, slits, input profile) of the jobs in one round.
#: Gaussian input goes with 3 slits only: with 2 slits the CLI's far-field
#: fringe check, which assumes even illumination, fails for most geometries.
_TWO_SLIT_SHAPES = ((1024, 1024, 2, "plane"), (2048, 2048, 3, "gaussian"),
                    (4096, 4096, 2, "plane"))


def _two_slit_jobs(rng, inputs_dir, tag):
    jobs = []
    for k, (n_wall, n_screen, slits, profile) in enumerate(_TWO_SLIT_SHAPES):
        sep = float(rng.uniform(8e-5, 1.2e-4))
        centers = [sep * (i - (slits - 1) / 2.0) for i in range(slits)]
        lines = {
            "wavelength": repr(float(rng.uniform(4.5e-7, 6.5e-7))),
            "distance": "1.0",
            "slit_centers": ",".join(repr(c) for c in centers),
            # narrow enough that the single-slit envelope's first zero,
            # wavelength / width, lies beyond the fringe-fit window
            "slit_width": repr(float(rng.uniform(1.2e-5, 1.6e-5))),
            "wall_halfwidth": "0.0002",
            "n_wall": str(n_wall),
            "screen_halfwidth": "0.025",
            "n_screen": str(n_screen),
            "input": profile,
            "waist": repr(float(rng.uniform(6e-5, 1.2e-4))),
        }
        path = _write(os.path.join(inputs_dir, f"{tag}-slit{k}.cfg"),
                      "".join(f"{key} = {val}\n" for key, val in lines.items()))
        checks = {"decomposition_identity", "intensity_identity",
                  "total_screen_probability_le_1", "phase_invariance",
                  "projector_poisson_disjoint",
                  "projector_poisson_mixing_control_nonzero"}
        if slits == 2:
            checks.add("fringe_spacing_vs_far_field")
        jobs.append(Job(argv=("two-slit", "--config", path), report="two-slit.json",
                        csv="pattern.csv", csv_rows=n_screen,
                        checks=frozenset(checks)))
    return jobs


def _flow_slit_round(rng, inputs_dir, tag):
    return _flow_jobs(rng, inputs_dir, tag) + _two_slit_jobs(rng, inputs_dir, tag)


# ---------------------------------------------------------------------------
# audit

AUDIT_WHY = (
    "Control for projqm.kahler and projqm.report (Report.add digests): many "
    "fresh operators, each validated once, so a flow-only gain must not cost it."
)

_AUDIT_CHECKS = frozenset({
    "observable_scale_factor_is_2", "poisson_vs_commutator", "poisson_antisymmetry",
    "metric_self_vs_variance", "identity_kernel", "uncertainty_slack_nonnegative",
    "killing_flow_transport",
})


def _audit_round(rng, inputs_dir, tag):
    jobs = []
    for dims in ("2,3,4,5", "6,7,8", "2,8"):
        seeds = ",".join(_cli_seed(rng) for _ in range(2))
        jobs.append(Job(argv=("kahler-audit", "--dims", dims, "--trials", "20",
                              "--seeds", seeds),
                        report="kahler-audit.json", checks=_AUDIT_CHECKS))
    return jobs


WORKLOADS = {w.name: w for w in (
    Workload("geodesic", GEODESIC_WHY, _geodesic_round),
    Workload("flow-slit", FLOW_SLIT_WHY, _flow_slit_round),
    Workload("audit", AUDIT_WHY, _audit_round),
)}


def generate(name: str, seed: int, inputs_dir: str, rounds: int = ROUNDS) -> list[list[Job]]:
    """The rounds of workload ``name`` for ``seed``; input files go to ``inputs_dir``.

    The same seed gives the same argv and the same file bytes.
    """
    workload = WORKLOADS[name]
    os.makedirs(inputs_dir, exist_ok=True)
    index = list(WORKLOADS).index(name)
    out = []
    for r in range(rounds):
        rng = np.random.default_rng([seed, index, r])
        out.append(workload.make_round(rng, inputs_dir, f"r{r}"))
    return out
