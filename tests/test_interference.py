"""Unit tests for slit walls, Fresnel propagation, and pattern decomposition."""

import dataclasses
import inspect
import itertools
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import projqm
from projqm.cli import main
from projqm.interference import (InterferencePattern, SlitWall, TwoSlitConfig, _ChirpZ,
                                 build_wall, fringe_spacing, gaussian_input, noncommuting_control,
                                 pattern_rows, phase_invariance_check, plane_wave_input,
                                 propagate_to_screen, projector_poisson_check, slit_states)
from projqm.kahler import poisson_bracket
from projqm.projective import _row_norms, _unit, project


def small_wall(n_slits=2, n=256):
    centers = (-5e-5, 5e-5) if n_slits == 2 else (-8e-5, 0.0, 8e-5)
    return build_wall((2e-4, n), centers, 2e-5)


def support_mask(wall, i):
    """The cells of slit ``i``, read from the wall's supports."""
    a, b = wall.slit_supports[i]
    mask = np.zeros(wall.dim, dtype=bool)
    mask[a:b] = True
    return mask


def union_mask(wall):
    """The cells of every slit: the wall's projector as a mask."""
    return np.logical_or.reduce([support_mask(wall, i) for i in range(wall.n_slits)])


def span_segments(wall, psi):
    """Each ``P_i psi`` (``apply_slit``) cut to the span from the first slit
    cell to the last, one row per slit: what a pattern propagates."""
    cells = np.flatnonzero(union_mask(wall))
    return np.array([wall.apply_slit(i, psi)[cells[0]:cells[-1] + 1]
                     for i in range(wall.n_slits)])


def dense_projector(mask):
    """Diagonal projector matrix onto the cells of ``mask``: the dense oracle
    form of a slit."""
    return np.diag(mask.astype(np.complex128))


def dense_mixing_projector(wall):
    """Dense rank-one projector ``|w><w|`` onto ``w = (s_1 + i s_2) /
    |s_1 + i s_2|``: the oracle form of the mixing projector that
    :func:`noncommuting_control` applies as a vector."""
    s = slit_states(wall)
    v = s[0] + 1j * s[1]
    w = v / np.linalg.norm(v)
    return np.outer(w, w.conj())


def random_ray(n, seed):
    rng = np.random.default_rng(seed)
    return project(rng.standard_normal(n) + 1j * rng.standard_normal(n))


class TestBuildWall:
    def test_two_slits(self):
        wall = small_wall()
        assert wall.n_slits == 2
        assert wall.dim == 256
        m0, m1 = support_mask(wall, 0), support_mask(wall, 1)
        assert not np.any(m0 & m1)

    def test_overlapping_slits_rejected(self):
        with pytest.raises(ValueError):
            build_wall((2e-4, 256), (-1e-5, 1e-5), 5e-5)

    def test_empty_slit_rejected(self):
        # slit far outside the grid covers no cells
        with pytest.raises(ValueError):
            build_wall((2e-4, 256), (0.0, 1.0), 2e-5)

    def test_projectors_idempotent_and_disjoint(self):
        wall = small_wall(n=128)
        p0, p1, pw = (dense_projector(m) for m in
                      (support_mask(wall, 0), support_mask(wall, 1), union_mask(wall)))
        assert np.max(np.abs(p0 @ p0 - p0)) < 1e-12
        assert np.max(np.abs(p0 @ p1)) == 0.0
        assert np.max(np.abs(pw - p0 - p1)) < 1e-12
        assert np.max(np.abs(pw @ pw - pw)) < 1e-10

    def test_apply_slit_matches_projector(self):
        wall = small_wall(n=128)
        psi = plane_wave_input(wall)
        direct = wall.apply_slit(1, psi)
        via_matrix = dense_projector(support_mask(wall, 1)) @ psi
        assert np.max(np.abs(direct - via_matrix)) < 1e-14


class TestInputs:
    def test_plane_wave_normalized(self):
        wall = small_wall()
        psi = plane_wave_input(wall)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_gaussian_normalized_and_centered(self):
        wall = small_wall()
        psi = gaussian_input(wall, waist=5e-5)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert np.argmax(np.abs(psi)) in (127, 128)

    def test_slit_states_orthonormal(self):
        wall = small_wall()
        states = slit_states(wall)
        assert len(states) == 2
        gram = np.array([[np.vdot(u, v) for v in states] for u in states])
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12

    def test_slit_states_equal_the_normalized_stack_bit_for_bit(self):
        """Each closed-form top hat is the row of ones on its slit over that
        row's norm, the stack route ``_unit(stack, _row_norms)`` it replaced,
        bit for bit: on random walls of 8 to 70,000 cells with 1 to 5 slits,
        and on one slit covering a whole wall."""
        rng = np.random.default_rng(30)
        walls = [SlitWall(grid=np.arange(8.0), dy=1.0, slit_supports=((0, 8),))]
        for _ in range(40):
            n, k = int(rng.integers(8, 70001)), int(rng.integers(1, 6))
            edges = np.sort(rng.choice(n + 1, size=2 * k, replace=False))
            walls.append(SlitWall(grid=np.arange(float(n)), dy=1.0,
                                  slit_supports=tuple(zip(edges[0::2], edges[1::2]))))
        for wall in walls:
            ones = np.ones(wall.dim, dtype=np.complex128)
            stack = np.array([wall.apply_slit(i, ones) for i in range(wall.n_slits)])
            old = _unit(stack, _row_norms)
            new = slit_states(wall)
            assert len(new) == wall.n_slits
            assert all(o.tobytes() == s.tobytes() for o, s in zip(old, new))


@pytest.fixture(scope="module")
def pattern():
    return TwoSlitConfig().run()


class TestPropagation:
    def test_decomposition_identity(self, pattern):
        assert pattern.decomposition_residual < 1e-12

    def test_intensity_identity(self, pattern):
        assert pattern.intensity_identity_residual < 1e-12

    def test_probability_bounded_by_wall_transmission(self, pattern):
        cfg = TwoSlitConfig()
        wall = cfg.make_wall()
        psi = cfg.make_input(wall)
        transmitted = float(np.linalg.norm(
            sum(wall.apply_slit(i, psi) for i in range(wall.n_slits))) ** 2)
        assert pattern.total_screen_probability <= transmitted + 1e-12
        assert transmitted <= 1.0 + 1e-12

    def test_pattern_is_even_and_peaks_at_center(self, pattern):
        total = pattern.total_intensity
        assert np.max(np.abs(total - total[::-1])) < 1e-12 * np.max(total)
        mid = len(total) // 2
        assert abs(np.argmax(total) - mid) <= 1

    def test_intensity_over_screen_probability_is_scale_free(self):
        cfg = TwoSlitConfig()
        wall = cfg.make_wall()
        psi = cfg.make_input(wall)
        screen = (cfg.screen_halfwidth, cfg.n_screen)
        p1 = propagate_to_screen(wall, psi, cfg.wavelength, cfg.distance, *screen)
        p2 = propagate_to_screen(wall, 2.0 * psi, cfg.wavelength, cfg.distance, *screen)
        scaled = [p.total_intensity / p.total_screen_probability for p in (p1, p2)]
        assert np.max(np.abs(scaled[0] - scaled[1])) < 1e-12

    def test_a_nan_amplitude_fails_the_linearity_guard(self):
        """NaN compares false with everything, so the guard asks that the
        residual be at most its tolerance, and a NaN residual fails it."""
        wall = small_wall(n=64)
        with pytest.raises(RuntimeError, match="decomposition identity violated"):
            propagate_to_screen(wall, np.full(wall.dim, np.nan, dtype=np.complex128),
                                5e-7, 1.0, 2.5e-2, 64)

    @pytest.mark.parametrize("wavelength, distance, halfwidth, match", [
        (5e-7, 1.0, 1e160, "screen of halfwidth 1e[+]160"),
        (5e-7, 1.0, 1e308, "screen of halfwidth 1e[+]308"),
        (1e-200, 1e-200, 2.5e-2, "finite nonzero product"),  # lam L underflows
        (1e200, 1e200, 2.5e-2, "finite nonzero product"),  # lam L overflows
    ])
    def test_phases_that_overflow_are_refused_before_the_screen_is_built(
            self, monkeypatch, wavelength, distance, halfwidth, match):
        """A screen or ``lam L`` whose Fresnel phases overflow gave a NaN
        pattern; it is refused with ``ValueError`` before ``np.linspace``
        builds the screen."""
        def forbidden(*args, **kwargs):
            raise AssertionError("the screen was built")
        monkeypatch.setattr(np, "linspace", forbidden)
        wall = small_wall(n=64)
        with pytest.raises(ValueError, match=match):
            propagate_to_screen(wall, plane_wave_input(wall), wavelength, distance,
                                halfwidth, 64)

    def test_paraxial_flag(self):
        cfg = TwoSlitConfig()
        wall = cfg.make_wall()
        psi = cfg.make_input(wall)
        screen = (cfg.screen_halfwidth, cfg.n_screen)
        near = propagate_to_screen(wall, psi, cfg.wavelength, 1e-4, *screen)
        far = propagate_to_screen(wall, psi, cfg.wavelength, 1.0, *screen)
        assert far.paraxial_ok
        assert not near.paraxial_ok


class TestFringeSpacing:
    def test_matches_far_field_formula(self):
        cfg = TwoSlitConfig()
        pattern = cfg.run()
        measured = fringe_spacing(pattern)
        assert abs(measured - cfg.expected_fringe_spacing) < pattern.dx

    def test_single_slit_has_no_cross_term(self):
        cfg = TwoSlitConfig(slit_centers=(0.0,))
        wall = cfg.make_wall()
        pattern = propagate_to_screen(wall, plane_wave_input(wall), cfg.wavelength,
                                      cfg.distance, cfg.screen_halfwidth, cfg.n_screen)
        assert np.max(np.abs(pattern.cross_term)) == 0.0
        with pytest.raises(ValueError):
            fringe_spacing(pattern)


class TestChecks:
    def test_phase_invariance(self):
        res = phase_invariance_check(TwoSlitConfig().run(), lambda_phase=np.pi / 3.0)
        assert res < 1e-12

    def test_the_pattern_keeps_a_read_only_projected_row(self):
        """The kept row is the wall-projected state on the slit span, the sum
        of the ``apply_slit(i, psi)`` rows, and it is read-only.  Changing the
        caller's array after the run changes neither the pattern nor the
        check's result."""
        cfg = TwoSlitConfig(n_wall=256, n_screen=256, input_profile="gaussian")
        wall = cfg.make_wall()
        psi = cfg.make_input(wall)
        pattern = propagate_to_screen(wall, psi, cfg.wavelength, cfg.distance,
                                      cfg.screen_halfwidth, cfg.n_screen)
        before = phase_invariance_check(pattern, 0.5)
        intensity = pattern.total_intensity
        kept = pattern._projected
        assert kept.dtype == np.complex128 and not kept.flags.writeable
        row = span_segments(wall, psi).sum(axis=0)
        assert np.array_equal(kept, row)
        psi[:] = psi[::-1] * 1j
        assert not np.array_equal(kept, span_segments(wall, psi).sum(axis=0))
        assert np.array_equal(kept, row)
        assert np.array_equal(pattern.total_intensity, intensity)
        assert phase_invariance_check(pattern, 0.5) == before

    def test_phase_invariance_reuses_the_base_kernel(self, monkeypatch):
        """The kept row and its rotation go through the operator ``base``
        keeps, as one two-row transform: no second propagation and no second
        operator.  The residual stays within the rounding bound, as does
        that of the per-slit route it replaced."""
        cfg = TwoSlitConfig(n_wall=512, n_screen=512, input_profile="gaussian")
        wall = cfg.make_wall()
        psi = cfg.make_input(wall)
        args = (cfg.wavelength, cfg.distance, cfg.screen_halfwidth, cfg.n_screen)
        base = propagate_to_screen(wall, psi, *args)
        oracle, oracle_bound = per_slit_phase_residual(wall, psi, args, 0.5)
        assert oracle <= oracle_bound
        shapes = []
        call = _ChirpZ.__call__

        def forbidden(*args, **kwargs):
            raise AssertionError("a second propagation or operator")
        monkeypatch.setattr("projqm.interference.propagate_to_screen", forbidden)
        monkeypatch.setattr(_ChirpZ, "build", forbidden)
        monkeypatch.setattr(_ChirpZ, "__call__",
                            lambda op, rows: shapes.append(rows.shape) or call(op, rows))
        residual = phase_invariance_check(base, 0.5)
        assert shapes == [(2, base._projected.size)]
        assert residual <= phase_check_bound(wall, [span_segments(wall, psi).sum(axis=0)], args)

    @pytest.mark.parametrize("other", ["cells", "slits", "offset"])
    def test_phase_invariance_reads_the_patterns_own_wall(self, other, monkeypatch):
        """A pattern on another cell count, other slits, or the same cells
        and slits shifted by one cell: the check propagates the kept row of
        that pattern's own wall with an operator built for that wall, and
        gives the residual a fresh operator on it gives, bit for bit, within
        the rounding bound of the per-slit route."""
        cfg = TwoSlitConfig(n_wall=256, n_screen=256)
        same = cfg.make_wall()
        wall = {"cells": lambda: dataclasses.replace(cfg, n_wall=512).make_wall(),
                "slits": lambda: dataclasses.replace(cfg, slit_centers=(-6e-5, 6e-5)).make_wall(),
                "offset": lambda: dataclasses.replace(same, grid=same.grid + same.dy)}[other]()
        psi = plane_wave_input(wall)
        args = (cfg.wavelength, cfg.distance, cfg.screen_halfwidth, cfg.n_screen)
        base, fresh = (propagate_to_screen(wall, psi, *args) for _ in range(2))
        v = span_segments(wall, psi).sum(axis=0)
        assert np.array_equal(base._projected, v)
        b, r = fresh._operator(np.array((v, np.exp(0.5j) * v)))
        expected = float(np.max(np.abs(np.abs(r) ** 2 - np.abs(b) ** 2)))
        oracle, oracle_bound = per_slit_phase_residual(wall, psi, args, 0.5)
        assert oracle <= oracle_bound

        def forbidden(*args, **kwargs):
            raise AssertionError("propagate_to_screen called again")
        monkeypatch.setattr("projqm.interference.propagate_to_screen", forbidden)
        assert phase_invariance_check(base, 0.5) == expected
        assert expected <= phase_check_bound(wall, [v], args)

    @pytest.mark.parametrize("n_slits, n", [(2, 128), (3, 2048), (2, 65536)])
    def test_disjoint_projectors_commute_everywhere(self, n_slits, n):
        wall = small_wall(n_slits, n)
        states = slit_states(wall)
        assert projector_poisson_check(wall, project(states[0] + states[1])) == 0.0
        for seed in range(4):
            assert projector_poisson_check(wall, random_ray(n, seed)) < 1e-12

    @pytest.mark.parametrize("n", [128, 2048, 65536])
    def test_mixing_control_is_nonzero(self, n):
        """At the equal which-slit superposition the bracket is exactly
        ``2 Im <P_1 psi|v><v|psi> = -1/2``."""
        wall = small_wall(n=n)
        states = slit_states(wall)
        at = project(states[0] + states[1])
        assert noncommuting_control(wall, at) > 1e-2
        assert abs(noncommuting_control(wall, at) - 0.5) < 1e-12

    def test_checks_reject_a_ray_of_another_dimension(self):
        wall = small_wall(n=128)
        for check in (projector_poisson_check, noncommuting_control):
            with pytest.raises(ValueError, match="does not match wall"):
                check(wall, random_ray(64, 0))


def test_two_slit_forms_no_dense_projector(tmp_path, monkeypatch):
    """``two-slit`` builds one wall and checks its brackets with no
    ``np.diag`` matrix and no operator product."""
    def forbidden(*args, **kwargs):
        raise AssertionError("dense route called")
    for owner, name in ((np, "diag"), (dataclasses, "replace"),
                        (projqm.kahler, "hamiltonian_vector_field")):
        monkeypatch.setattr(owner, name, forbidden)
    builds = []
    make_wall = TwoSlitConfig.make_wall
    monkeypatch.setattr(TwoSlitConfig, "make_wall",
                        lambda cfg: builds.append(cfg) or make_wall(cfg))
    assert main(["two-slit", "--out", str(tmp_path)]) == 0
    assert builds == [TwoSlitConfig()]


def test_every_slit_projection_is_an_apply_slit_call(monkeypatch):
    """``slit_states`` and ``propagate_to_screen`` apply each slit projector
    once, through ``SlitWall.apply_slit``; the phase check applies none."""
    calls = []
    apply_slit = SlitWall.apply_slit
    monkeypatch.setattr(SlitWall, "apply_slit",
                        lambda wall, i, psi: calls.append(i) or apply_slit(wall, i, psi))
    wall = small_wall(n_slits=3)
    slit_states(wall)
    pattern = propagate_to_screen(wall, plane_wave_input(wall), 5e-7, 1.0, 2.5e-2, 64)
    phase_invariance_check(pattern, 0.5)
    assert calls == [0, 1, 2] * 2


def bracket_rounding_bound(n):
    """Largest gap between the dense and the applied route to one bracket of
    two projectors at a unit ray of dimension ``n``, that rounding explains.

    Write ``u = eps / 2``, ``g2 = sqrt(2) gamma_2`` for a complex product and
    ``e = sqrt(2) gamma_(2n+2)`` (``gamma_k = k u / (1 - k u)``, Higham,
    *Accuracy and Stability of Numerical Algorithms*, sec. 3.6) for an inner
    product or a norm of length up to ``2n``.  Both applied vectors ``g = P
    rep`` have norm at most 1, and the exact field is ``-i Q g`` with ``Q``
    the horizontal projector, so the bracket is ``2 Im <g_F|Q|g_G>``.

    One route, given its ``g``.  The lift rounds ``<F>`` (``e``), the
    difference (``4u``), the vertical coefficient (``2e``: ``|vec| <= 2|g|``)
    and its removal (``4 (g2 + u)``), so each field errs by at most ``3e +
    4 g2 + 8u``; the pairing adds ``e``.  The bracket then errs by at most
    ``2 (7e + 8 g2 + 16u)`` on each route.

    The two ``g``.  A slit is a 0/1 diagonal: ``np.diag(mask) @ rep`` and
    the mask copy agree bit for bit.  The mixing vector ``w = (s_1 + i
    s_2) / sqrt(2)`` is formed on each route to ``a = e + 4u`` per entry
    (a norm, a square root, two quotients); the dense route rounds each
    ``w_j conj(w_k)`` (``g2``; ``np.outer`` gives a matrix Hermitian bit
    for bit, so the ``u`` of a symmetrizing pass is spare) and sums (``e``), the
    applied one sums (``e``) and scales (``g2``), both against ``sum_k |w_k|
    |rep_k| <= 1``.  They differ by at most ``4a + 2e + 2 g2 + u`` in norm,
    which moves the bracket by twice that.

    In all, ``40 e + 36 g2 + 98 u`` to first order in ``u``.
    """
    u = np.finfo(np.float64).eps / 2.0

    def gamma(k):
        return k * u / (1.0 - k * u)

    e, g2 = np.sqrt(2.0) * gamma(2 * n + 2), np.sqrt(2.0) * gamma(2)
    return 40.0 * e + 36.0 * g2 + 98.0 * u


@pytest.mark.parametrize("n_slits", [2, 3])
def test_dense_mixing_oracle_is_a_rank_one_projector(n_slits):
    """The oracle is Hermitian bit for bit, as :func:`bracket_rounding_bound`
    assumes, idempotent to rounding, and of trace 1."""
    p = dense_mixing_projector(small_wall(n_slits, 128))
    assert np.array_equal(p, p.conj().T)
    assert np.max(np.abs(p @ p - p)) < 1e-12
    assert abs(np.trace(p) - 1.0) < 1e-14


@pytest.mark.parametrize("n_slits", [2, 3])
def test_applied_brackets_match_dense_projectors(n_slits):
    """The applied-vector checks against ``poisson_bracket`` on dense
    ``np.diag(mask)`` slit projectors and the dense mixing projector
    ``np.outer(w, conj(w))``, on a 128-cell wall, at seeded random rays and
    at the equal which-slit superposition."""
    wall = small_wall(n_slits, 128)
    masks = [dense_projector(support_mask(wall, i)) for i in range(n_slits)]
    s = slit_states(wall)
    mixing = dense_mixing_projector(wall)
    bound = bracket_rounding_bound(wall.dim)
    rays = [project(s[0] + s[1])] + [random_ray(wall.dim, seed) for seed in range(8)]
    for at in rays:
        dense = max(abs(poisson_bracket(masks[i], masks[j], at))
                    for i in range(n_slits) for j in range(i + 1, n_slits))
        assert abs(projector_poisson_check(wall, at) - dense) <= bound
        control = abs(poisson_bracket(masks[0], mixing, at))
        assert abs(noncommuting_control(wall, at) - control) <= bound


class TestPatternRows:
    @pytest.mark.parametrize("centers", [(0.0,), (-5e-5, 5e-5), (-1e-4, 0.0, 1e-4)])
    def test_layout(self, centers):
        """One row per screen point; the columns stack the pattern's own fields."""
        pattern = TwoSlitConfig(slit_centers=centers, n_screen=64).run()
        header, rows = pattern_rows(pattern)
        slits = [f"intensity_slit_{i + 1}" for i in range(len(centers))]
        assert header == ["x", "intensity_total", *slits, "cross_term"]
        assert rows.shape == (64, len(header))
        columns = [pattern.screen_positions, pattern.total_intensity,
                   *pattern.slit_intensities, pattern.cross_term]
        assert all(np.array_equal(rows[:, k], col) for k, col in enumerate(columns))


def old_pattern_properties(pattern):
    """The five properties that recomputed the decomposition on every read,
    before :func:`propagate_to_screen` stored it on the pattern: the oracle
    for its fields, expression for expression."""
    total_amplitude = np.sum(pattern.per_slit_amplitudes, axis=0)
    total_intensity = np.abs(total_amplitude) ** 2
    slit_intensities = [np.abs(a) ** 2 for a in pattern.per_slit_amplitudes]
    cross_term = np.zeros(pattern.screen_positions.size)
    for a, b in itertools.combinations(pattern.per_slit_amplitudes, 2):
        cross_term += (a * np.conj(b)).real
    incoherent_intensity = np.sum(slit_intensities, axis=0)
    return total_amplitude, total_intensity, slit_intensities, cross_term, incoherent_intensity


class TestPatternRecord:
    @pytest.mark.parametrize("profile", ["plane", "gaussian"])
    @pytest.mark.parametrize("centers", [(0.0,), (-5e-5, 5e-5), (-1e-4, 0.0, 1e-4)])
    def test_fields_equal_the_old_properties_bit_for_bit(self, centers, profile):
        pattern = TwoSlitConfig(slit_centers=centers, n_wall=512, n_screen=384,
                                input_profile=profile, waist=8e-5).run()
        _, total, slits, cross, incoherent = old_pattern_properties(pattern)
        assert np.array_equal(pattern.total_intensity, total)
        assert len(pattern.slit_intensities) == len(slits) == len(centers)
        assert all(np.array_equal(a, b) for a, b in zip(pattern.slit_intensities, slits))
        assert np.array_equal(pattern.cross_term, cross)
        assert pattern.intensity_identity_residual == float(
            np.max(np.abs(total - (incoherent + 2.0 * cross))))
        assert pattern.total_screen_probability == float(np.sum(total))

    def test_every_array_field_is_read_only(self):
        pattern = TwoSlitConfig(slit_centers=(-1e-4, 0.0, 1e-4), n_wall=256,
                                n_screen=128).run()
        arrays = {}
        for f in dataclasses.fields(pattern):
            value = getattr(pattern, f.name)
            if isinstance(value, tuple):
                arrays.update((f"{f.name}[{i}]", a) for i, a in enumerate(value))
            elif isinstance(value, np.ndarray):
                arrays[f.name] = value
        assert {name.split("[")[0] for name in arrays} == {
            "screen_positions", "per_slit_amplitudes", "total_intensity",
            "slit_intensities", "cross_term", "_projected"}
        assert [name for name, a in arrays.items() if a.flags.writeable] == []

    def test_the_only_property_is_n_slits(self):
        """Every derived quantity is a field, computed once; none is recomputed
        on read."""
        members = {name for name, v in vars(InterferencePattern).items()
                   if not name.startswith("__")
                   and (isinstance(v, property) or inspect.isfunction(v))}
        assert members == {"n_slits"}


class TestTwoSlitConfig:
    def test_expected_spacing_formula(self):
        cfg = TwoSlitConfig()
        d = abs(cfg.slit_centers[1] - cfg.slit_centers[0])
        assert abs(cfg.expected_fringe_spacing
                   - cfg.wavelength * cfg.distance / d) < 1e-15

    def test_three_slit_config_has_no_single_spacing(self):
        cfg = TwoSlitConfig(slit_centers=(-8e-5, 0.0, 8e-5))
        with pytest.raises(ValueError):
            cfg.expected_fringe_spacing

    def test_gaussian_profile_runs(self):
        cfg = TwoSlitConfig(input_profile="gaussian")
        pattern = cfg.run()
        assert pattern.decomposition_residual < 1e-12
        assert pattern.total_screen_probability < 1.0

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            TwoSlitConfig(input_profile="bessel").run()


def dense_slit_amplitudes(wall, psi, wavelength, distance, screen_halfwidth, n_screen):
    """Per-slit screen amplitudes through the full ``n_screen x n_wall``
    Fresnel kernel, as an oracle for the chirp-z operator."""
    lamL = wavelength * distance
    x = np.linspace(-screen_halfwidth, screen_halfwidth, n_screen)
    kernel = np.exp(1j * np.pi * (x[:, None] - wall.grid[None, :]) ** 2 / lamL)
    pref = np.sqrt(wall.dy * (x[1] - x[0]) / (1j * lamL))
    return [pref * (kernel @ wall.apply_slit(i, psi)) for i in range(wall.n_slits)]


def rounding_bound(wall, w, wavelength, distance, screen_halfwidth, n_screen):
    """Largest chirp-z against dense amplitude gap that rounding explains for
    one wall state ``w`` (zero off the slits), entry by entry.

    Phases, in roundings of unit ``eps / 2`` of a term no larger than ``Phi``,
    the largest phase either route forms.  The dense route's
    ``pi (x - y)^2 / (lam L)`` takes 7 (the difference twice, as it is
    squared, then square, pi, product, quotient and ``lam L``).  The chirp
    route's row phase takes 10, its chirp 6 and its column phase 11, each
    counting the 4 of ``c = pi / (lam L)`` and its product; and it takes both
    grids as exact progressions, which ``linspace`` (2 roundings of each x)
    and the cell centres (2 of each y) miss, 2 each in the phase: 8.  That
    is 42, or ``21 eps Phi`` per kernel entry.  The four complex
    exponentials and the operator's three products add ``4 eps``, so the
    amplitudes differ by at most ``(21 Phi + 4) eps |pref| ||w||_1``.

    Sums.  The dense product adds ``m eps/2 |pref| ||w||_1`` over the ``m``
    span cells.  Each of the three transforms of the convolution errs by at
    most ``6.7 (eps/2) log2 L`` in 2-norm (Higham, *Accuracy and Stability
    of Numerical Algorithms*, Thm 24.2) of vectors whose norms the chirp's
    transform bounds by ``n + m - 1`` times ``||w||_2``: ``10 eps log2 L
    (n + m - 1) |pref| ||w||_2`` in all.
    """
    eps = np.finfo(np.float64).eps
    lamL = wavelength * distance
    x, a = np.linspace(-screen_halfwidth, screen_halfwidth, n_screen, retstep=True)
    cells = np.flatnonzero(union_mask(wall))
    lo, hi = int(cells[0]), int(cells[-1]) + 1
    n, m, b, c = n_screen, hi - lo, wall.dy, np.pi / lamL
    u0 = x[0] - wall.grid[lo]
    phi = c * max(np.max((x[:, None] - wall.grid[None, lo:hi]) ** 2),
                  a * b * max(n - 1, m - 1) ** 2,
                  (m - 1) ** 2 * b * abs(b - a) + 2 * abs(u0) * (m - 1) * b)
    size = 1 << (n + m - 2).bit_length()
    pref = np.sqrt(b * (x[1] - x[0]) / lamL)
    norm1, norm2 = np.sum(np.abs(w)), np.linalg.norm(w)
    return pref * eps * ((21 * phi + 4 + m / 2) * norm1
                         + 10 * np.log2(size) * (n + m - 1) * norm2)


def phase_check_bound(wall, rows, args):
    """Largest phase-check residual that rounding explains when each of the
    two intensities comes from the screen amplitudes of ``rows`` (states on
    the slit span; only their norms enter), summed on the screen.

    Both intensities come from operators with the same kernel arrays, so
    the phase roundings of :func:`rounding_bound` are common to both and
    leave the moduli alone.  What is left is that count's operator part for
    each row: the products (``4 eps |pref| ||w||_1``, the exponentials'
    share kept) and the three transforms (``10 eps log2 L (n + m - 1) |pref|
    ||w||_2``); and the rotation (``sqrt(2) gamma_2`` per entry, below ``2
    eps``) and the sum of the rows' amplitudes (``len(rows) eps / 2``), both
    through kernel entries of modulus ``|pref|``.  So each amplitude errs by
    at most ``d``, and two computed moduli within ``d`` of one exact modulus
    ``r <= |pref| ||w||_1`` have squares at most ``4 d (r + d)`` apart.
    """
    eps = np.finfo(np.float64).eps
    wavelength, distance, screen_halfwidth, n_screen = args
    x = np.linspace(-screen_halfwidth, screen_halfwidth, n_screen)
    cells = np.flatnonzero(union_mask(wall))
    n, m = n_screen, int(cells[-1]) + 1 - int(cells[0])
    size = 1 << (n + m - 2).bit_length()
    pref = np.sqrt(wall.dy * (x[1] - x[0]) / (wavelength * distance))
    norm1 = [np.sum(np.abs(w)) for w in rows]
    d = pref * eps * sum((6 + len(rows) / 2) * n1 + 10 * np.log2(size) * (n + m - 1)
                         * np.linalg.norm(w) for w, n1 in zip(rows, norm1))
    r = pref * sum(norm1)
    return 4.0 * d * (r + d)


def per_slit_phase_residual(wall, psi, args, lambda_phase):
    """The per-slit route of the phase check, as the oracle: ``e^{i lambda}
    psi`` propagated slit by slit in a second run, its total intensity
    against the first run's; and :func:`phase_check_bound` on its slit rows."""
    base, rot = (propagate_to_screen(wall, p, *args)
                 for p in (psi, np.exp(1j * lambda_phase) * psi))
    residual = float(np.max(np.abs(rot.total_intensity - base.total_intensity)))
    return residual, phase_check_bound(wall, list(span_segments(wall, psi)), args)


@pytest.mark.parametrize("centers, n_wall, n_screen, distance", [
    ((1e-5,), 1024, 1536, 0.8),
    ((-5e-5, 5e-5), 1024, 1536, 0.8),
    ((-8e-5, 0.0, 9e-5), 1024, 1536, 0.8),
    ((1.2e-4,), 1024, 1536, 0.8),
    ((-5e-5, 5e-5), 1024, 1537, 0.8),
    ((-7.5e-5, 7.5e-5), 8, 1536, 0.8),
    ((-1.9e-4, 1.9e-4), 1024, 1536, 0.8),
    ((-5e-5, 5e-5), 1024, 1536, 0.01),
], ids=["one-slit", "two-slits", "three-slits", "off-centre", "odd-screen",
        "eight-cells", "grid-edges", "non-paraxial"])
def test_chirp_z_matches_dense_kernel(centers, n_wall, n_screen, distance):
    wall = build_wall((2e-4, n_wall), centers, 2e-5)
    psi = np.exp(-((wall.grid - 2e-5) / 1e-4) ** 2).astype(np.complex128)
    psi /= np.linalg.norm(psi)  # a beam off the centre, uneven over the slits
    args = (5.5e-7, distance, 2e-2, n_screen)
    pattern = propagate_to_screen(wall, psi, *args)
    dense = dense_slit_amplitudes(wall, psi, *args)
    bounds = [rounding_bound(wall, wall.apply_slit(i, psi), *args)
              for i in range(wall.n_slits)]
    assert pattern.paraxial_ok == (distance == 0.8)
    assert len(pattern.per_slit_amplitudes) == len(centers)
    for amp, ref, bound in zip(pattern.per_slit_amplitudes, dense, bounds):
        assert np.max(np.abs(amp - ref)) <= bound
    coherent = np.sum(pattern.per_slit_amplitudes, axis=0)
    assert np.max(np.abs(coherent - np.sum(dense, axis=0))) <= sum(bounds)


def test_import_leaves_numpy_fft_unloaded():
    """``numpy.fft`` loads at the first propagation, not when ``projqm.cli``
    is imported."""
    script = textwrap.dedent("""
        import sys
        import projqm.cli
        from projqm.interference import TwoSlitConfig
        assert "numpy.fft" not in sys.modules
        TwoSlitConfig(n_wall=64, n_screen=64).run()
        assert "numpy.fft" in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(projqm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", script], env=env, timeout=120, check=True)
