"""Unit tests for slit walls, Fresnel propagation, and pattern decomposition."""

import numpy as np
import pytest

from projqm.interference import (TwoSlitConfig, build_wall, fringe_spacing,
                                 gaussian_input, noncommuting_control, pattern_rows,
                                 phase_invariance_check, plane_wave_input,
                                 propagate_to_screen, projector_poisson_check,
                                 slit_states)
from projqm.projective import project


def small_wall(n_slits=2, n=256):
    centers = (-5e-5, 5e-5) if n_slits == 2 else (-8e-5, 0.0, 8e-5)
    return build_wall((2e-4, n), centers, 2e-5)


class TestBuildWall:
    def test_two_slits(self):
        wall = small_wall()
        assert wall.n_slits == 2
        assert wall.dim == 256
        m0, m1 = wall.support_mask(0), wall.support_mask(1)
        assert not np.any(m0 & m1)
        assert np.array_equal(wall.wall_mask(), m0 | m1)

    def test_overlapping_slits_rejected(self):
        with pytest.raises(ValueError):
            build_wall((2e-4, 256), (-1e-5, 1e-5), 5e-5)

    def test_empty_slit_rejected(self):
        # slit far outside the grid covers no cells
        with pytest.raises(ValueError):
            build_wall((2e-4, 256), (0.0, 1.0), 2e-5)

    def test_projectors_idempotent_and_disjoint(self):
        wall = small_wall(n=128)
        p0 = wall.slit_projector(0).matrix
        p1 = wall.slit_projector(1).matrix
        pw = wall.wall_projector().matrix
        assert np.max(np.abs(p0 @ p0 - p0)) < 1e-12
        assert np.max(np.abs(p0 @ p1)) == 0.0
        assert np.max(np.abs(pw - p0 - p1)) < 1e-12
        assert np.max(np.abs(pw @ pw - pw)) < 1e-10

    def test_apply_slit_matches_projector(self):
        wall = small_wall(n=128)
        psi = plane_wave_input(wall)
        direct = wall.apply_slit(1, psi)
        via_matrix = wall.slit_projector(1).matrix @ psi
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


@pytest.fixture(scope="module")
def pattern():
    return TwoSlitConfig().run()


class TestPropagation:
    def test_decomposition_identity(self, pattern):
        assert pattern.decomposition_residual < 1e-12

    def test_intensity_identity(self, pattern):
        assert pattern.intensity_identity_residual() < 1e-12

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

    def test_normalized_intensity_scale_free(self):
        cfg = TwoSlitConfig()
        wall = cfg.make_wall()
        psi = cfg.make_input(wall)
        p1 = propagate_to_screen(wall, psi, cfg.wavelength, cfg.distance)
        p2 = propagate_to_screen(wall, 2.0 * psi, cfg.wavelength, cfg.distance)
        assert np.max(np.abs(p1.normalized_intensity
                             - p2.normalized_intensity)) < 1e-12

    def test_paraxial_flag(self):
        cfg = TwoSlitConfig()
        wall = cfg.make_wall()
        psi = cfg.make_input(wall)
        near = propagate_to_screen(wall, psi, cfg.wavelength, 1e-4)
        far = propagate_to_screen(wall, psi, cfg.wavelength, 1.0)
        assert far.paraxial_ok
        assert not near.paraxial_ok


class TestFringeSpacing:
    def test_matches_far_field_formula(self):
        cfg = TwoSlitConfig()
        pattern = cfg.run()
        measured = fringe_spacing(pattern)
        assert abs(measured - cfg.expected_fringe_spacing) < pattern.dx

    def test_single_slit_has_no_cross_term(self):
        wall = build_wall((2e-4, 2048), (0.0,), 2e-5)
        pattern = propagate_to_screen(wall, plane_wave_input(wall), 5e-7, 1.0)
        assert np.max(np.abs(pattern.cross_term)) == 0.0
        with pytest.raises(ValueError):
            fringe_spacing(pattern)


class TestChecks:
    def test_phase_invariance(self):
        cfg = TwoSlitConfig()
        wall = cfg.make_wall()
        psi = cfg.make_input(wall)
        res = phase_invariance_check(cfg.run(), wall, psi, lambda_phase=np.pi / 3.0)
        assert res < 1e-12

    def test_phase_invariance_rejects_a_base_from_another_wall(self):
        base = TwoSlitConfig(n_wall=256, n_screen=256).run()
        one_slit = TwoSlitConfig(slit_centers=(0.0,), n_wall=256).make_wall()
        with pytest.raises(ValueError, match="slits"):
            phase_invariance_check(base, one_slit, plane_wave_input(one_slit), 0.5)

    def test_disjoint_projectors_commute_everywhere(self):
        wall = small_wall(n=128)
        states = slit_states(wall)
        at = project(states[0] + states[1])
        assert projector_poisson_check(wall, at) < 1e-12

    def test_mixing_control_is_nonzero(self):
        wall = small_wall(n=128)
        states = slit_states(wall)
        at = project(states[0] + states[1])
        assert noncommuting_control(wall, at) > 1e-2


class TestPatternRows:
    def test_layout(self):
        cfg = TwoSlitConfig(n_screen=64)
        pattern = cfg.run()
        header, rows = pattern_rows(pattern)
        assert header[0] == "x"
        assert "intensity_total" in header
        assert "cross_term" in header
        assert len(rows) == 64
        assert all(len(row) == len(header) for row in rows)


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
    Fresnel kernel, as an oracle for the slit-column kernel."""
    lamL = wavelength * distance
    x = np.linspace(-screen_halfwidth, screen_halfwidth, n_screen)
    kernel = np.exp(1j * np.pi * (x[:, None] - wall.grid[None, :]) ** 2 / lamL)
    pref = np.sqrt(wall.dy * (x[1] - x[0]) / (1j * lamL))
    return [pref * (kernel @ wall.apply_slit(i, psi)) for i in range(wall.n_slits)]


@pytest.mark.parametrize("centers", [(1e-5,), (-5e-5, 5e-5), (-8e-5, 0.0, 9e-5)])
def test_slit_column_kernel_matches_dense_kernel(centers):
    wall = build_wall((2e-4, 1024), centers, 2e-5)
    psi = gaussian_input(wall, 1e-4, center=2e-5)  # uneven over the slits
    pattern = propagate_to_screen(wall, psi, 5.5e-7, 0.8, 2e-2, 1536)
    dense = dense_slit_amplitudes(wall, psi, 5.5e-7, 0.8, 2e-2, 1536)
    peak = max(float(np.max(np.abs(a))) for a in dense)
    assert len(pattern.per_slit_amplitudes) == len(centers)
    for amp, ref in zip(pattern.per_slit_amplitudes, dense):
        assert np.max(np.abs(amp - ref)) <= 1e-15 * peak
    assert np.max(np.abs(pattern.total_amplitude - np.sum(dense, axis=0))) <= 1e-15 * peak
