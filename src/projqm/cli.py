"""Command-line entry point: verification suites and demo experiments.

Subcommands
-----------
kahler-audit
    Random sweeps over the bracket/metric/uncertainty invariants.
geodesic-verify
    Distance consistency, sphere areas, and totally-geodesic certificates.
    ``--dt`` (default 0.05) is the one step of the eighth-order geodesic
    engine, for the pair sweep and the certificates alike; every step is
    graded at the same tolerances, so a coarse one fails its checks, and a
    step so fine that one geodesic needs more than 10**6 steps exits 2.
two-slit
    Runs the interference demo, writes the pattern CSV and a report.
evolve
    Integrates the projective Schrodinger flow for a given Hamiltonian and
    start state; writes the trajectory CSV plus accuracy checks.
demo-spin
    Canned spin-precession run with tracked expectations.

Every command writes ``<command>.json`` (and CSV artifacts) into ``--out``
and returns exit code 0 when all checks pass, 1 when any check fails, and
2 for usage, configuration, or I/O errors.  Outputs are byte-identical for
fixed flags and seed (one seeded generator, no timestamps) on one Python,
one numpy build, one BLAS core type and one SIMD dispatch: numpy picks its
SIMD kernels at run time, and under ``NPY_DISABLE_CPU_FEATURES`` every
command's output changed although every check passed.

Nothing is written until every check has run, so exit 2 always means an
``error:`` line on stderr (after the usage text, for a parse-time error),
no traceback and no output at all, not even the ``--out`` directory.
Numbers are checked at parse time: ``--dt`` must be finite and positive
(at most 1 for ``geodesic-verify``; ``demo-spin`` admits 0, see below),
``--t-end`` and ``--tolerance-scale`` finite and nonnegative (a zero scale
demands exact residuals, so checks fail with exit 1), ``--trials``,
``--pairs``, ``--certificates``, ``--seed`` and every ``--seeds`` entry
nonnegative integers, every float of a two-slit config finite, and every
comma list of dimensions or seeds nonempty.  A ``ValueError`` that the
library raises on the user's input - a zero or mis-sized state, a
non-Hermitian or mis-sized operator of ``evolve``, a two-slit geometry it
cannot build or measure fringes on - exits 2, and so does the flow
integrator's ``RuntimeError``: a norm drift, which means ``--dt`` is too
large for the Hamiltonian, or an overflow, which means the Hamiltonian's
scale is too large for floating point.  Any other exception is a defect
and propagates with its traceback; that includes ``demo-spin --dt 0``,
whose ``ValueError`` from :func:`~projqm.dynamics.flow_integrate` the
benchmark's own tests use as their example of a job that raises.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .dynamics import (expectation_rate, flow_integrate, flow_vs_exact_deviation,
                       trajectory_rows)
from .geodesics import integrated_pair_distances, total_geodesy_certificate
from .hilbert import (as_hermitian, commutator_expectation, expectation, gram_schmidt,
                      sigma_x, sigma_y, sigma_z)
from .interference import (TwoSlitConfig, fringe_spacing, noncommuting_control,
                           pattern_rows, phase_invariance_check, projector_poisson_check,
                           propagate_to_screen, slit_states)
from .kahler import (derive_observable_scale_factor, hamiltonian_vector_field,
                     killing_residual, poisson_bracket, riemannian_product,
                     uncertainty_audit)
from .projective import SpannedSphere, fs_distance, project, sphere_area
from .report import Report, write_csv

#: Exit codes of the CLI contract.
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Usage/configuration/I-O error: message printed, exit code 2."""


def _number_type(ok, what: str, kind=float):
    """argparse ``type`` for a ``kind`` (float or int) that must satisfy ``ok``."""
    noun = "an integer" if kind is int else "a number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


_positive = _number_type(lambda v: 0.0 < v < math.inf, "finite and positive")
_nonnegative = _number_type(lambda v: 0.0 <= v < math.inf, "finite and nonnegative")
_integer = _number_type(lambda v: True, "an integer", kind=int)
_count = _number_type(lambda v: v >= 0, "nonnegative", kind=int)


def _list_type(item):
    """argparse ``type`` for a nonempty comma list of ``item``s; empty tokens
    are skipped."""
    def parse(text: str) -> list:
        values = [item(tok) for tok in text.split(",") if tok.strip() != ""]
        if not values:
            raise argparse.ArgumentTypeError(f"expected at least one integer, got {text!r}")
        return values
    return parse


@contextlib.contextmanager
def _input_errors(*kinds):
    """Turn an exception of ``kinds`` that the library raises on user input
    into a usage error (exit 2); wrap only the calls that take that input."""
    try:
        yield
    except kinds as exc:
        raise CliError(str(exc)) from exc


def _finish(report: Report, out: str, csv=None) -> int:
    """Every command's one way out, once all its checks have run: create
    ``out``, write the CSV ``(name, header, rows)`` if given and then
    ``<command>.json``, print one summary line, then one line per failing
    check, and return the exit code."""
    os.makedirs(out, exist_ok=True)
    paths = []
    if csv is not None:
        name, header, rows = csv
        paths.append(write_csv(os.path.join(out, name), header, rows))
    paths.append(report.write(os.path.join(out, f"{report.command}.json")))
    print(f"wrote {' and '.join(paths)}: {len(report.entries)} checks, "
          f"{'all pass' if report.all_passed else 'FAILURES'}")
    for e in report.entries:
        if not e.passed:
            failure = "" if e.failure is None else f", {e.failure}"
            print(f"  failed {e.check_name}: residual {e.residual!r}, tolerance "
                  f"{e.tolerance!r}{failure}, inputs {e.inputs_digest}")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (m + m.conj().T) / 2.0
    return h / max(float(np.linalg.norm(h, 2)), 1e-12)


# ---------------------------------------------------------------------------
# kahler-audit

def cmd_kahler_audit(args) -> int:
    dims = args.dims
    if any(d < 2 or d > 8 for d in dims):
        raise CliError("dims must lie in 2..8")
    seeds = args.seeds or [args.seed]
    scale = args.tolerance_scale

    report = Report(command="kahler-audit", metadata={
        "version": __version__, "dims": dims, "seeds": seeds,
        "trials": args.trials, "tolerance_scale": scale,
    })

    if args.trials > 0:
        factor = derive_observable_scale_factor()
        report.add("observable_scale_factor_is_2", abs(factor - 2.0),
                   1e-12 * scale, oracle="spin_half_plus_y")

    for seed in seeds:
        rng = np.random.default_rng(seed)
        for dim in dims:
            for trial in range(args.trials):
                op_f = _random_hermitian(rng, dim)
                op_g = _random_hermitian(rng, dim)
                psi = _random_state(rng, dim)
                ray = project(psi)
                ins = dict(seed=seed, dim=dim, trial=trial,
                           op_f=op_f, op_g=op_g, state=psi)

                pb = poisson_bracket(op_f, op_g, ray)
                comm = op_f @ op_g - op_g @ op_f
                oracle = expectation(-1j * comm, ray.rep)
                report.add("poisson_vs_commutator", abs(pb - oracle),
                           1e-12 * scale, **ins)
                report.add("poisson_antisymmetry",
                           abs(pb + poisson_bracket(op_g, op_f, ray)),
                           0.0, **ins)

                var = expectation(op_f @ op_f, ray.rep) - expectation(op_f, ray.rep) ** 2
                rr = riemannian_product(op_f, op_f, ray)
                report.add("metric_self_vs_variance", abs(rr - 2.0 * var),
                           1e-12 * scale, **ins)

                alpha = float(rng.standard_normal())
                shifted = op_f + alpha * np.eye(dim)
                xv = hamiltonian_vector_field(op_f, ray).vec
                xs = hamiltonian_vector_field(shifted, ray).vec
                report.add("identity_kernel",
                           float(np.linalg.norm(xs - xv)),
                           1e-12 * (1.0 + abs(alpha)) * scale, alpha=alpha, **ins)

                audit = uncertainty_audit(op_f, op_g, ray)
                report.add("uncertainty_slack_nonnegative",
                           -min(audit.slack, 0.0), 1e-12 * scale, **ins)

            if args.trials > 0:
                op = _random_hermitian(rng, dim)
                ray = project(_random_state(rng, dim))
                report.add("killing_flow_transport",
                           killing_residual(op, ray, rng=np.random.default_rng(seed + dim)),
                           1e-10 * scale, seed=seed, dim=dim, op=op, state=ray.rep)

    return _finish(report, args.out)


# ---------------------------------------------------------------------------
# geodesic-verify

def cmd_geodesic_verify(args) -> int:
    dims = args.ambient_dims
    if any(d < 2 for d in dims):
        raise CliError("ambient dims must be at least 2")
    scale = args.tolerance_scale

    report = Report(command="geodesic-verify", metadata={
        "version": __version__, "ambient_dims": dims, "pairs": args.pairs,
        "dt": args.dt, "seed": args.seed, "tolerance_scale": scale,
    })

    if args.pairs > 0:
        rng = np.random.default_rng(args.seed)
        draws = []  # (dim, pairs, sphere basis) per dim, in the generator's order
        for dim in dims:
            pairs = []
            while len(pairs) < args.pairs:
                a = project(_random_state(rng, dim))
                b = project(_random_state(rng, dim))
                c = abs(a.overlap_with(b))
                if 1e-3 < c < 0.999:
                    pairs.append((a, b))
            u = _random_state(rng, dim)
            w = _random_state(rng, dim)
            draws.append((dim, pairs, gram_schmidt([u, w])))
        # one great circle serves every pair of every dim
        with _input_errors(ValueError):  # a dt that needs too many steps
            integrated = integrated_pair_distances(
                [pair for _, pairs, _ in draws for pair in pairs], dt=args.dt)
        for i, (dim, pairs, basis) in enumerate(draws):
            integ = integrated[i * args.pairs:(i + 1) * args.pairs]
            overlaps = np.array([abs(a.overlap_with(b)) for a, b in pairs])
            closed = np.array([fs_distance(a, b) for a, b in pairs])
            report.add("closed_form_distance_vs_overlap",
                       float(np.max(np.abs(np.cos(closed) ** 2 - overlaps**2))),
                       1e-12 * scale, dim=dim, seed=args.seed,
                       overlaps=overlaps)
            report.add("integrated_distance_vs_overlap",
                       float(np.max(np.abs(np.cos(integ) ** 2 - overlaps**2))),
                       1e-8 * scale, dim=dim, seed=args.seed,
                       overlaps=overlaps)

            area = sphere_area(SpannedSphere(rep0=basis[0], rep1=basis[1]))
            report.add("sphere_area_statistical_pi", abs(area - math.pi),
                       1e-6 * scale, dim=dim, seed=args.seed, rep0=basis[0],
                       rep1=basis[1])

            if dim >= 3:
                for k in range(min(args.pairs, args.certificates)):
                    a, b = pairs[k]
                    with _input_errors(ValueError):
                        cert = total_geodesy_certificate(a, b, dt=args.dt)
                    ins = dict(dim=dim, seed=args.seed, pair=k,
                               a=a.rep, b=b.rep)
                    report.add("certificate_offslice_residual",
                               cert.max_offslice_residual, 1e-6 * scale, **ins)
                    report.add("certificate_length_match",
                               cert.length_match, 1e-6 * scale, **ins)
                    failure = None if cert.converged else "shooting did not converge"
                    report.add("certificate_arrival", cert.arrival_miss, 1e-8 * scale,
                               failure=failure, **ins)

    return _finish(report, args.out)


# ---------------------------------------------------------------------------
# two-slit

def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


#: The parser of each annotation of a ``TwoSlitConfig`` field (a string, as
#: ``interference`` postpones its annotations).
_ANNOTATION_PARSERS = {
    "float": _finite,
    "int": int,
    "str": str,
    "tuple[float, ...]": lambda s: tuple(_finite(tok) for tok in s.split(",")),
}
#: Config key -> (``TwoSlitConfig`` field, parser); the key ``input`` sets
#: ``input_profile``.
_CONFIG_FIELDS = {"input" if f.name == "input_profile" else f.name:
                  (f.name, _ANNOTATION_PARSERS[f.type])
                  for f in dataclasses.fields(TwoSlitConfig)}


def parse_two_slit_config(path: str) -> TwoSlitConfig:
    """Flat ``key = value`` config; '#' comments and blank lines allowed.

    Errors carry the one-based line number of the offending line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config {path!r}: {exc}") from exc
    fields = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_FIELDS:
            known = ", ".join(sorted(_CONFIG_FIELDS))
            raise CliError(f"{path}:{lineno}: unknown key {key!r} (known: {known})")
        name, parse = _CONFIG_FIELDS[key]
        try:
            fields[name] = parse(value)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: bad value for {key!r}: {value!r} "
                           f"({exc})") from exc
    try:
        return TwoSlitConfig(**fields)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def cmd_two_slit(args) -> int:
    config = parse_two_slit_config(args.config) if args.config else TwoSlitConfig()
    scale = args.tolerance_scale
    with _input_errors(ValueError):  # a geometry or profile the library cannot build
        wall = config.make_wall()
        pattern = propagate_to_screen(wall, config.make_input(wall), config.wavelength,
                                      config.distance, config.screen_halfwidth,
                                      config.n_screen)

    report = Report(command="two-slit", metadata={
        "version": __version__, "tolerance_scale": scale,
        "config": dataclasses.asdict(config),
        "paraxial_ok": pattern.paraxial_ok,
        "pattern_csv": "pattern.csv",
    })
    cfg_ins = dict(config=str(config))

    report.add("decomposition_identity", pattern.decomposition_residual,
               1e-12 * scale, **cfg_ins)
    report.add("intensity_identity", pattern.intensity_identity_residual(),
               1e-12 * scale, **cfg_ins)
    report.add("total_screen_probability_le_1",
               pattern.total_screen_probability - 1.0, 1e-12 * scale, **cfg_ins)

    report.add("phase_invariance",
               phase_invariance_check(pattern, math.pi / 3.0),
               1e-12 * scale, lambda_phase=math.pi / 3.0, **cfg_ins)

    if len(config.slit_centers) >= 2:
        s = slit_states(wall)
        at = project(s[0] + s[1])  # the equal which-slit superposition
        report.add("projector_poisson_disjoint",
                   projector_poisson_check(wall, at), 1e-12 * scale, **cfg_ins)
        control = noncommuting_control(wall, at)
        # pass iff the control bracket is genuinely nonzero (>= 0.05)
        report.add("projector_poisson_mixing_control_nonzero",
                   0.05 - control, 0.0, **cfg_ins)

    if len(config.slit_centers) == 2:
        with _input_errors(ValueError):  # a screen too narrow for four fringe zeros
            measured = fringe_spacing(pattern)
        report.add("fringe_spacing_vs_far_field",
                   abs(measured - config.expected_fringe_spacing),
                   pattern.dx * scale, **cfg_ins)

    return _finish(report, args.out, ("pattern.csv", *pattern_rows(pattern)))


# ---------------------------------------------------------------------------
# evolve

_BUILTIN_OPERATORS = {
    "sigma_x": sigma_x,
    "sigma_y": sigma_y,
    "sigma_z": sigma_z,
}

_BUILTIN_STATES = {
    "plus": lambda: np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2),
    "minus": lambda: np.array([1.0, -1.0], dtype=np.complex128) / math.sqrt(2),
    "plus_i": lambda: np.array([1.0, 1.0j], dtype=np.complex128) / math.sqrt(2),
    "up": lambda: np.array([1.0, 0.0], dtype=np.complex128),
    "down": lambda: np.array([0.0, 1.0], dtype=np.complex128),
}


def _load_complex_json(path: str, expect_matrix: bool) -> np.ndarray:
    """Read a vector or matrix of [re, im] pairs from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path!r}: {exc}") from exc
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: expected nested lists of numbers: {exc}") from exc
    if expect_matrix:
        if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
            raise CliError(f"{path}: expected a square matrix of [re, im] pairs")
    else:
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise CliError(f"{path}: expected a vector of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _resolve(source: str, builtins: dict, what: str) -> np.ndarray:
    """A builtin ``what`` ("operator" or "state") by name, or a .json file."""
    if source in builtins:
        return builtins[source]()
    if source.endswith(".json"):
        return _load_complex_json(source, expect_matrix=what == "operator")
    known = ", ".join(sorted(builtins))
    raise CliError(f"unknown {what} {source!r} (builtins: {known}; "
                   "or a .json file of [re, im] pairs)")


def _add_flow_deviation(report: Report, H, traj, scale: float, ins: dict) -> None:
    """RK4 flow against the exact one; the bound grows as dt**4 and with t_end.

    It has no ``||H||`` in it, so a large Hamiltonian needs a smaller ``dt``:
    at ``||H|| = 20``, ``dt = 1e-3`` and ``t_end = 1.5`` the true RK4 error
    (4.0e-8) fails it with exit 1.  A ``dt`` too large for RK4 altogether
    trips the flow's norm-drift abort instead, which exits 2.
    """
    dt, t_end = ins["dt"], ins["t_end"]
    report.add("flow_vs_exact_deviation", flow_vs_exact_deviation(H, traj),
               1e-8 * scale * max(1.0, (dt / 1e-3) ** 4) * max(1.0, t_end), **ins)


def cmd_evolve(args) -> int:
    H = _resolve(args.hamiltonian, _BUILTIN_OPERATORS, "operator")
    psi = _resolve(args.start, _BUILTIN_STATES, "state")
    if H.shape[0] != psi.shape[0]:
        raise CliError(f"hamiltonian dim {H.shape[0]} != start dim {psi.shape[0]}")
    track = None
    if args.track:
        track = [(name, _resolve(name, _BUILTIN_OPERATORS, "operator"))
                 for name in args.track.split(",")]
    t_end, dt, scale = args.t_end, args.dt, args.tolerance_scale
    # the user's operators and start state, and a norm drift or overflow
    with _input_errors(ValueError, RuntimeError):
        H = as_hermitian(H, name="hamiltonian")
        traj = flow_integrate(H, psi, t_end, dt, track=track)

    report = Report(command="evolve", metadata={
        "version": __version__, "t_end": t_end, "dt": dt,
        "tolerance_scale": scale, "trajectory_csv": "trajectory.csv",
        "hamiltonian": args.hamiltonian, "start": args.start,
    })
    ins = dict(hamiltonian=H, start=psi, t_end=t_end, dt=dt)
    if t_end > 0:
        _add_flow_deviation(report, H, traj, scale, ins)
    # Probe observable: a fixed Hermitian that generically fails to commute
    # with the Hamiltonian, so the bracket side of the identity is nonzero.
    # The law is tested at the start ray only, with the exact propagator:
    # this check never sees the RK4 trajectory; flow_vs_exact_deviation does.
    probe = _random_hermitian(np.random.default_rng(20260814), H.shape[0])
    psi0 = traj.reps[0]
    report.add("ehrenfest_residual",
               abs(expectation_rate(probe, H, psi0) - commutator_expectation(probe, H, psi0)),
               2e-8 * scale, **ins, probe=probe)
    return _finish(report, args.out, ("trajectory.csv", *trajectory_rows(traj)))


def cmd_demo_spin(args) -> int:
    """Spin precession: H = sigma_z from the +x ray, one full vector period."""
    H = sigma_z()
    psi = _BUILTIN_STATES["plus"]()
    track = [("sigma_x", sigma_x()), ("sigma_y", sigma_y()), ("sigma_z", sigma_z())]
    t_end, dt, scale = 2.0 * math.pi, args.dt, args.tolerance_scale
    with _input_errors(RuntimeError):  # a norm drift; dt = 0 raises, see the docstring
        traj = flow_integrate(H, psi, t_end, dt, track=track)

    report = Report(command="demo-spin", metadata={
        "version": __version__, "t_end": t_end, "dt": dt,
        "tolerance_scale": scale, "trajectory_csv": "demo-spin.csv",
    })
    ins = dict(hamiltonian=H, start=psi, t_end=t_end, dt=dt)

    # tracked <sigma_x>(t) precesses as cos(2t); the ray period is pi
    labels = dict(traj.observables_tracked)
    residual = float(np.max(np.abs(labels["sigma_x"] - np.cos(2.0 * traj.times))))
    report.add("precession_cosine", residual, 1e-8 * scale * 10.0, **ins)
    report.add("period_return", fs_distance(traj.final, project(psi)),
               1e-8 * scale * 10.0, **ins)
    _add_flow_deviation(report, H, traj, scale, ins)
    return _finish(report, args.out, ("demo-spin.csv", *trajectory_rows(traj)))


# ---------------------------------------------------------------------------
# parser plumbing

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=_count, default=0, help="base RNG seed")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--tolerance-scale", type=_nonnegative, default=1.0,
                   help="multiply every tolerance (>= 1 loosens)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="projqm",
        description="Geometric quantum-state toolkit: verification suites and demos.",
    )
    parser.add_argument("--version", action="version", version=f"projqm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kahler-audit", help="bracket/metric/uncertainty sweeps")
    _add_common(p)
    p.add_argument("--dims", type=_list_type(_integer), default="2,3,4",
                   help="comma list of dimensions (2..8)")
    p.add_argument("--trials", type=_count, default=25, help="trials per dimension")
    p.add_argument("--seeds", type=_list_type(_count),
                   help="comma list of seeds (overrides --seed)")
    p.set_defaults(func=cmd_kahler_audit)

    p = sub.add_parser("geodesic-verify", help="distances, areas, certificates")
    _add_common(p)
    p.add_argument("--ambient-dims", type=_list_type(_integer), default="2,3,4",
                   help="comma list of dimensions")
    p.add_argument("--pairs", type=_count, default=20, help="ray pairs per dimension")
    p.add_argument("--dt", type=_number_type(lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
                   default=0.05,
                   help="geodesic step, for the pair sweep and the certificates")
    p.add_argument("--certificates", type=_count, default=2,
                   help="shooting certificates per dimension (dims >= 3)")
    p.set_defaults(func=cmd_geodesic_verify)

    p = sub.add_parser("two-slit", help="interference demo and checks")
    _add_common(p)
    p.add_argument("--config", default="", help="flat key = value config file")
    p.set_defaults(func=cmd_two_slit)

    p = sub.add_parser("evolve", help="projective Schrodinger flow")
    _add_common(p)
    p.add_argument("--hamiltonian", required=True,
                   help="builtin name or .json matrix of [re, im] pairs")
    p.add_argument("--start", required=True,
                   help="builtin name or .json vector of [re, im] pairs")
    p.add_argument("--t-end", type=_nonnegative, default=1.0)
    p.add_argument("--dt", type=_positive, default=1e-3)
    p.add_argument("--track", default="", help="comma list of builtin operators")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("demo-spin", help="spin precession demo")
    _add_common(p)
    # 0 passes here and raises out of main (see the module docstring)
    p.add_argument("--dt", type=_nonnegative, default=1e-3)
    p.set_defaults(func=cmd_demo_spin)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
