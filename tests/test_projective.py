"""Unit tests for rays, superposition spheres, and the projective distance."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projqm
import projqm.projective as projective
from projqm.hilbert import gram_schmidt
from projqm.projective import (GAUGE_TOL, Ray, RiemannCoordinate, SpannedSphere,
                               _area_element, _fs_sin_cos, _gauge_fix, _row_norms, _unit,
                               fs_distance, nonlinear_superpose, project, rays_close,
                               riemann_coordinate, sphere_area, sphere_membership,
                               transition_probability)
from tests.conftest import random_unit, state_pairs, unit_vectors


def loop_project(psi) -> np.ndarray:
    """The gauge-fixed representative by ``project``'s arithmetic, written
    with Python loops over the components; the reference that the
    loop-free ``_gauge_fix`` must match bit for bit."""
    v = np.asarray(psi, dtype=np.complex128)
    v = v / float(np.linalg.norm(v))
    for comp in v:
        if abs(comp) > GAUGE_TOL:
            v = v * (comp.conjugate() / abs(comp))
            break
    v = v / float(np.linalg.norm(v))
    for k in range(v.shape[0]):
        if abs(v[k]) > GAUGE_TOL:
            v[k] = complex(abs(v[k]), 0.0)
            break
    return v


def _awkward_vectors(rng, count, dim=None):
    """Random vectors over eight decades of scale, some with leading zeros or
    a leading component at the gauge threshold; of random dims 2-8 unless
    ``dim`` is given."""
    out = []
    for k in range(count):
        n = int(rng.integers(2, 9)) if dim is None else dim
        v = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.exp(rng.uniform(-9, 9))
        if k % 3 == 1:
            v[: rng.integers(1, n)] = 0.0
        if k % 7 == 2:
            v[0] = GAUGE_TOL * float(np.linalg.norm(v)) * (1.0 + 1e-3j)
        out.append(v)
    return out


class TestGaugeFix:
    def test_project_matches_loop_reference_bit_for_bit(self):
        for v in _awkward_vectors(np.random.default_rng(20261018), 3000):
            assert np.array_equal(project(v).rep, loop_project(v))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_row_norms_and_their_gauge_fix_match_one_vector_bit_for_bit(self, n):
        """``_row_norms`` is the norm of one vector, and the stack gauge fix
        on it is ``project``'s, on every row."""
        z = np.array(_awkward_vectors(np.random.default_rng(40 + n), 2000, dim=n))
        assert _row_norms(z).tobytes() == np.array(
            [float(np.linalg.norm(row)) for row in z]).tobytes()
        assert _gauge_fix(z, _row_norms).tobytes() == np.array(
            [loop_project(row) for row in z]).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_rows_of_a_stack_match_project(self, n):
        rng = np.random.default_rng(n)
        z = rng.standard_normal((200, n)) + 1j * rng.standard_normal((200, n))
        z[::4, 0] = 0.0
        rows = _gauge_fix(z)
        for row, v in zip(rows, z):
            assert np.max(np.abs(row - project(v).rep)) <= 1e-15
            Ray(rep=row)  # validates norm and gauge

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_row_distances_match_fs_distance(self, n):
        rng = np.random.default_rng(10 + n)
        a = [project(v).rep for v in rng.standard_normal((100, n)) + 1j * rng.standard_normal((100, n))]
        b = [project(v).rep for v in rng.standard_normal((100, n)) + 1j * rng.standard_normal((100, n))]
        b[::5] = a[::5]  # coincident rays: the small-angle end
        s, c = _fs_sin_cos(np.array(a), np.array(b))
        rows = np.arctan2(s, np.minimum(c, 1.0))
        for d, ra, rb in zip(rows, a, b):
            assert abs(d - fs_distance(Ray(rep=ra), Ray(rep=rb))) <= 1e-15


class TestRay:
    def test_rep_is_normalized(self):
        r = project([3.0, 4.0j])
        assert abs(np.linalg.norm(r.rep) - 1.0) < 1e-15

    @given(unit_vectors(), st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_and_phase_invariance(self, psi, phase, mag):
        scaled = mag * np.exp(1j * phase) * psi
        assert rays_close(project(psi), project(scaled))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            project([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("rep", [[np.nan, 0j], [1.0, np.nan], [np.nan + 1j, 0j]])
    def test_constructor_rejects_nan_representative(self, rep):
        with pytest.raises(ValueError, match="unit norm"):
            Ray(rep=np.array(rep, dtype=np.complex128))

    @pytest.mark.parametrize("rep", [
        [-0.6, 0.8],  # a negative real leading component
        [0.6 * np.exp(2e-12j), 0.8],  # imaginary part 2e-12 of its modulus
        [-2e-12, 0.6, 0.8],  # just above GAUGE_TOL, so it leads
        [1e-12, -5e-13j, -0.6, 0.8],  # entries at or below GAUGE_TOL are skipped
        [-1e-12, 0.6j, 0.8],
    ])
    def test_constructor_rejects_a_rep_that_is_not_gauge_fixed(self, rep):
        with pytest.raises(ValueError, match="not gauge fixed"):
            Ray(rep=np.array(rep, dtype=np.complex128))

    @pytest.mark.parametrize("rep", [
        [0.6 * np.exp(0.5e-12j), 0.8],  # imaginary part 0.5e-12 of its modulus
        [-1e-12, 0.6, -0.8j],
        [1e-12j, -5e-13, 0.6, 0.8],
    ])
    def test_constructor_accepts_a_gauge_fixed_rep(self, rep):
        assert Ray(rep=np.array(rep, dtype=np.complex128)).dim == len(rep)

    def test_overlap_magnitude_well_defined(self, rng):
        a = random_unit(rng, 4)
        b = random_unit(rng, 4)
        m1 = abs(project(a).overlap_with(project(b)))
        m2 = abs(project(1j * a).overlap_with(project(-b)))
        assert abs(m1 - m2) < 1e-14


class TestFsDistance:
    def test_known_value(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(fs_distance(a, b) - np.pi / 4.0) < 1e-15

    def test_orthogonal_pair_is_maximal(self):
        assert abs(fs_distance([1.0, 0.0], [0.0, 1.0]) - np.pi / 2.0) < 1e-15

    def test_same_ray_is_zero(self):
        psi = np.array([1.0, 2.0j, -0.5]) / np.sqrt(5.25)
        assert fs_distance(psi, np.exp(0.7j) * psi) < 1e-7

    @given(state_pairs())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_range(self, pair):
        a, b = pair
        d_ab = fs_distance(a, b)
        d_ba = fs_distance(b, a)
        assert abs(d_ab - d_ba) < 1e-14
        assert 0.0 <= d_ab <= np.pi / 2.0 + 1e-15

    @given(state_pairs())
    @settings(max_examples=60, deadline=None)
    def test_cosine_squared_is_transition_probability(self, pair):
        a, b = pair
        d = fs_distance(a, b)
        p = transition_probability(a, b)
        assert abs(np.cos(d) ** 2 - p) < 1e-12
        assert -1e-15 <= p <= 1.0 + 1e-15

    def test_triangle_inequality(self, rng):
        for _ in range(200):
            a, b, c = (random_unit(rng, 3) for _ in range(3))
            assert fs_distance(a, c) <= fs_distance(a, b) + fs_distance(b, c) + 1e-12


class TestRiemannCoordinate:
    def test_from_pair_ratio(self):
        coord = RiemannCoordinate.from_pair(2.0, 1.0 + 1.0j)
        assert abs(coord.z - (0.5 + 0.5j)) < 1e-15
        assert not coord.is_infinity

    def test_infinity(self):
        coord = RiemannCoordinate.from_pair(0.0, 1.0)
        assert coord.is_infinity

    def test_z_accessor_raises_at_infinity(self):
        with pytest.raises(ZeroDivisionError):
            RiemannCoordinate.from_pair(0.0, 1.0).z


class TestSpannedSphere:
    def _sphere(self, rng, dim=3):
        u, v = gram_schmidt([random_unit(rng, dim), random_unit(rng, dim)])
        return SpannedSphere.from_rays(project(u), project(v))

    def test_nonorthogonal_basis_rejected(self, rng):
        a = random_unit(rng, 3)
        b = 0.8 * a + 0.6 * gram_schmidt([a, random_unit(rng, 3)])[1]
        with pytest.raises(ValueError, match="orthogonal"):
            SpannedSphere.from_rays(project(a), project(b))

    def test_basis_is_orthonormal(self, rng):
        sph = self._sphere(rng)
        b0 = project(sph.rep0).rep
        b1 = project(sph.rep1).rep
        assert abs(np.vdot(b0, b0) - 1.0) < 1e-12
        assert abs(np.vdot(b1, b1) - 1.0) < 1e-12
        assert abs(np.vdot(b0, b1)) < 1e-12

    def test_point_membership(self, rng):
        sph = self._sphere(rng, dim=4)
        for z in (0.0, 1.0, -2.0 + 0.5j, 1e3j):
            pt = sph.point(RiemannCoordinate.from_z(z))
            assert sphere_membership(pt, sph) < 1e-12
        inf_pt = sph.point(RiemannCoordinate.from_pair(0.0, 1.0))
        assert rays_close(inf_pt, project(sph.rep1))
        assert rays_close(sph.point(RiemannCoordinate.from_z(0.0)), project(sph.rep0))

    def test_membership_detects_off_sphere(self, rng):
        sph = self._sphere(rng, dim=4)
        outside = np.zeros(4, dtype=np.complex128)
        # build a direction orthogonal to the spanned plane
        basis = np.stack([sph.rep0, sph.rep1])
        v = random_unit(rng, 4)
        v = v - basis.conj() @ v @ basis
        outside = v / np.linalg.norm(v)
        assert sphere_membership(outside, sph) > 0.9

    def _tilted_rows(self, rng, sph):
        """Rows at angles ``t`` in ``[0, pi/2]`` from the spanned plane, each
        rescaled and rephased at random; returns ``(rows, t)``."""
        basis = np.stack([sph.rep0, sph.rep1])
        inside = basis.T @ (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        inside /= np.linalg.norm(inside)
        perp = random_unit(rng, sph.dim)
        perp = perp - basis.conj() @ perp @ basis
        perp /= np.linalg.norm(perp)
        t = np.linspace(0.0, np.pi / 2.0, 7)
        scale = rng.uniform(0.5, 3.0, t.size) * np.exp(1j * rng.uniform(0, 2 * np.pi, t.size))
        return scale[:, None] * (np.cos(t)[:, None] * inside + np.sin(t)[:, None] * perp), t

    def test_sphere_parts_read_the_coordinates_and_the_off_span_sine(self, rng):
        sph = self._sphere(rng, dim=5)
        z, t = self._tilted_rows(rng, sph)
        w0, w1, off = projective._sphere_parts(_unit(z), sph.rep0, sph.rep1)
        assert np.max(np.abs(off - np.abs(np.sin(t)))) < 1e-14
        assert np.max(np.abs(np.abs(w0) ** 2 + np.abs(w1) ** 2 - np.cos(t) ** 2)) < 1e-14

    @pytest.mark.parametrize("dim", [3, 5, 8])
    def test_sphere_parts_match_the_renormalized_and_gauge_fixed_rows(self, rng, dim):
        """The off-span norm of rows normalized once, as a certificate shot
        reads them, against the two old formulas: the rows normalized a
        second time, and the gauge-fixed rows.  Each route's computed norm
        is within ``(2 dim + 6) eps`` of the exact one for a unit row and
        unit basis vectors: two dot products of ``dim`` terms, the
        subtraction, and the normalizations (a second one, or the gauge
        fix's second one and its rephase).  So the routes differ by at most
        twice that."""
        sph = self._sphere(rng, dim=dim)
        z = np.concatenate([self._tilted_rows(rng, sph)[0],
                            rng.standard_normal((40, dim)) + 1j * rng.standard_normal((40, dim))])
        bound = 2.0 * (2 * dim + 6) * np.finfo(float).eps
        rows = _unit(z)
        off = projective._sphere_parts(rows, sph.rep0, sph.rep1)[2]
        for r in (_unit(rows), _gauge_fix(z)):  # the old formulas
            old = np.linalg.norm(r - (r @ sph.rep0.conj())[:, None] * sph.rep0
                                 - (r @ sph.rep1.conj())[:, None] * sph.rep1, axis=1)
            assert np.max(np.abs(off - old)) <= bound

    def test_sphere_parts_match_sphere_membership_and_riemann_coordinate(self, rng):
        """The row-wise helper and the one-ray functions agree to rounding:
        they read the ray's gauge-fixed representative, which differs from
        the normalized row by a phase and rounding."""
        sph = self._sphere(rng, dim=5)
        z, _ = self._tilted_rows(rng, sph)
        w0, w1, off = projective._sphere_parts(_unit(z), sph.rep0, sph.rep1)
        for row, value in zip(z, off):
            assert abs(sphere_membership(row, sph) - value) < 1e-15
        on_sphere = sph.rep0 * w0[0] + sph.rep1 * w1[0]  # row 0 lies in the span
        coord = riemann_coordinate(on_sphere, sph)
        assert abs(coord.z - w1[0] / w0[0]) < 1e-14

    def test_coordinate_roundtrip(self, rng):
        sph = self._sphere(rng, dim=5)
        for z in (0.3, -1.0 + 2.0j, 10.0j):
            coord = RiemannCoordinate.from_z(z)
            back = riemann_coordinate(sph.point(coord), sph)
            # the chordal distance |z - z'| / (1 + |z|^2), to first order
            assert abs(back.z - z) < 1e-10 * (1.0 + abs(z) ** 2)

    def test_coincident_rays_rejected(self, rng):
        a = project(random_unit(rng, 3))
        with pytest.raises(ValueError):
            SpannedSphere.from_rays(a, project(1j * a.rep))


@given(state_pairs(min_dim=2, max_dim=5), st.data())
@settings(max_examples=40, deadline=None)
def test_nonlinear_superpose_matches_linear_combination(pair, data):
    raw_a, raw_b = pair
    a, b = gram_schmidt([raw_a, raw_b])
    w0 = complex(data.draw(st.floats(min_value=-1, max_value=1)),
                 data.draw(st.floats(min_value=-1, max_value=1)))
    w1 = complex(data.draw(st.floats(min_value=-1, max_value=1)),
                 data.draw(st.floats(min_value=-1, max_value=1)))
    if abs(w0) < 1e-2:
        w0 = 1.0
    coord = RiemannCoordinate.from_pair(w0, w1)
    # the combination is taken between the canonical ray representatives
    combined = w0 * project(a).rep + w1 * project(b).rep
    assert rays_close(nonlinear_superpose(a, b, coord), project(combined), tol=1e-10)


def test_nonlinear_superpose_rejects_skew_basis():
    a = np.array([1.0, 0.0])
    b = np.array([1.0, 1.0]) / np.sqrt(2.0)
    with pytest.raises(ValueError, match="gram_schmidt"):
        nonlinear_superpose(a, b, 0.5)


def test_nonlinear_superpose_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="2 vs 3"):
        nonlinear_superpose(np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0]), 0.5)


def test_rephase_covariance_of_coordinates(rng):
    """Changing a basis vector's phase by e^{i lam} maps z -> e^{-i lam} z."""
    u, v = gram_schmidt([random_unit(rng, 4), random_unit(rng, 4)])
    sph = SpannedSphere.from_rays(project(u), project(v))
    x = sph.point(RiemannCoordinate.from_z(0.7 - 0.2j))
    z = riemann_coordinate(x, sph).z
    for lam in np.linspace(0.0, 2.0 * np.pi, 17):
        z_new = riemann_coordinate(x, sph.rephased(lam1=lam)).z
        assert abs(z_new - np.exp(-1j * lam) * z) < 1e-12


def simpson_sphere_area(sphere: SpannedSphere) -> tuple[float, float]:
    """The former ``sphere_area``: a composite Simpson (theta) x periodic
    trapezoid (phi) grid over ``_area_element``, refined from 17 theta points
    until two levels agree within 5e-7.  Returns the area and the theta step
    it stopped at; the oracle of the Gauss-Legendre rules."""
    prev = None
    n_theta = 17
    for _ in range(8):
        n_phi = n_theta - 1
        thetas = np.linspace(0.0, np.pi, n_theta)
        phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
        f_theta = _area_element(sphere, thetas, phis).sum(axis=1) * (2.0 * np.pi / n_phi)
        h = np.pi / (n_theta - 1)
        weights = np.ones(n_theta)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        area = float(np.dot(weights, f_theta) * h / 3.0)
        if prev is not None and abs(area - prev) < 5e-7:
            return area, h
        prev = area
        n_theta = 2 * n_theta - 1
    raise AssertionError("Simpson oracle did not converge")


def _random_sphere(rng, dim) -> SpannedSphere:
    u, v = gram_schmidt([random_unit(rng, dim), random_unit(rng, dim)])
    return SpannedSphere.from_rays(project(u), project(v))


class TestSphereArea:
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_statistical_area_is_pi_to_rounding(self, rng, dim):
        """The fine rule integrates sin(theta)/4 to rounding: the residual
        read 2.7e-15 to 4.0e-15 in dims 2-8."""
        for _ in range(5):
            assert abs(sphere_area(_random_sphere(rng, dim)) - np.pi) <= 1e-13

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_agrees_with_the_simpson_oracle(self, rng, dim):
        """Simpson's truncation in theta is ``(b - a) h**4 max|f^(4)| / 180``.
        The theta integrand ``2 pi sin(theta) / 4`` has ``max|f^(4)| = pi/2``
        on ``[0, pi]``, so the oracle is off by at most ``pi**2 h**4 / 360``
        (9.9e-9 at the step pi/128 it stops at; it reads 6.3e-9), plus
        rounding."""
        sph = _random_sphere(rng, dim)
        oracle, h = simpson_sphere_area(sph)
        assert h == np.pi / 128
        assert abs(sphere_area(sph) - oracle) <= np.pi**2 * h**4 / 360.0 + 1e-13

    def test_area_element_does_not_depend_on_phi(self, rng):
        """Rephasing the second pole shifts phi and preserves the metric, so
        the element is constant in phi and one trapezoid rule in phi is exact:
        the two rules refine theta only."""
        for dim in (2, 5, 8):
            da = _area_element(_random_sphere(rng, dim), np.linspace(0.05, 3.0, 9),
                               np.linspace(0.0, 2.0 * np.pi, 23, endpoint=False))
            assert np.max(np.ptp(da, axis=1)) <= 1e-15

    @pytest.mark.parametrize("element", [
        lambda theta: np.abs(np.cos(theta)) / 4.0,  # a kink at pi/2
        lambda theta: np.full_like(theta, np.nan),
    ], ids=["kink", "nan"])
    def test_disagreeing_rules_raise(self, rng, monkeypatch, element):
        monkeypatch.setattr(projective, "_area_element",
                            lambda sphere, theta, phi: element(theta)[:, None] + 0.0 * phi)
        with pytest.raises(RuntimeError, match="did not converge: error estimate"):
            sphere_area(_random_sphere(rng, 2))

    def test_import_leaves_the_nodes_uncomputed(self):
        """``numpy.polynomial`` loads at the first ``sphere_area`` call, not
        when ``projqm.cli`` is imported."""
        script = textwrap.dedent("""
            import sys
            import projqm.cli
            from projqm.projective import SpannedSphere, sphere_area
            assert "numpy.polynomial" not in sys.modules
            sphere_area(SpannedSphere(rep0=[1.0, 0.0], rep1=[0.0, 1.0]))
            assert "numpy.polynomial" in sys.modules
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(projqm.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        subprocess.run([sys.executable, "-c", script], env=env, timeout=120, check=True)


def test_cross_checks_raise_under_optimize():
    """Route disagreements raise even under ``python -O``, which strips asserts."""
    script = textwrap.dedent("""
        import sys
        import projqm.interference as interference
        import projqm.projective as projective
        from projqm.interference import build_wall, plane_wave_input, propagate_to_screen

        assert False, "python -O should strip this"
        projective.fs_distance = lambda a, b: 0.5
        try:
            projective.transition_probability([1.0, 0.0], [1.0, 0.0])
            sys.exit("transition_probability accepted disagreeing routes")
        except RuntimeError:
            pass
        interference._LINEARITY_TOL = -1.0
        wall = build_wall((2e-4, 64), (-5e-5, 5e-5), 2e-5)
        try:
            propagate_to_screen(wall, plane_wave_input(wall), 5e-7, 1.0, 2.5e-2, 64)
            sys.exit("propagate_to_screen accepted disagreeing routes")
        except RuntimeError:
            pass
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(projqm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr