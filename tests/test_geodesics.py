"""Unit tests for affine charts, the chart metric, and geodesic integration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projqm.geodesics as geodesics
from projqm.geodesics import (ChartPoint, chart_to_ray, classify_induced_form,
                              classify_lie_form, fs_metric, geodesic_between,
                              geodesic_rows, induced_sphere_metric,
                              integrate_geodesic, integrated_pair_distance,
                              integrated_pair_distances, lie_derivative_normal,
                              candidate_induced_coefficient, ray_to_chart,
                              total_geodesy_certificate)
from projqm.hilbert import gram_schmidt
from projqm.projective import (SpannedSphere, fs_distance, project,
                               sphere_membership)
from tests.conftest import random_unit, state_pairs, unit_vectors


class TestChartRoundtrip:
    @given(unit_vectors(min_dim=2, max_dim=5))
    @settings(max_examples=60, deadline=None)
    def test_ray_chart_ray(self, psi):
        ray = project(psi)
        pt = ray_to_chart(ray)
        back = chart_to_ray(pt)
        assert fs_distance(ray, back) < 1e-12

    def test_base_is_largest_component(self):
        pt = ray_to_chart(project(np.array([0.1, 0.9, 0.3])))
        assert pt.base_index == 1
        assert pt.dim == 3

    def test_explicit_tiny_base_rejected(self):
        with pytest.raises(ValueError):
            ray_to_chart(project(np.array([1.0, 0.0])), base_index=1)

    def test_chart_point_validation(self):
        with pytest.raises(ValueError):
            ChartPoint(base_index=0, coords=np.array([np.nan + 0j]))

    def test_interleaved_reals(self):
        pt = ChartPoint(base_index=0, coords=np.array([1.0 + 2.0j, 3.0 - 4.0j]))
        assert np.allclose(pt.reals, [1.0, 2.0, 3.0, -4.0])


class TestChartMetric:
    def test_identity_at_origin(self):
        pt = ChartPoint(base_index=0, coords=np.zeros(2, dtype=np.complex128))
        m = fs_metric(pt)
        assert np.max(np.abs(m.g - np.eye(4))) < 1e-14

    def test_known_value_on_the_axis(self):
        pt = ChartPoint(base_index=0, coords=np.array([1.0 + 0.0j]))
        m = fs_metric(pt)
        assert np.max(np.abs(m.g - 0.25 * np.eye(2))) < 1e-14

    def test_observable_scale_doubles_metric(self, rng):
        coords = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        pt = ChartPoint(base_index=0, coords=coords)
        g1 = fs_metric(pt, metric_factor=1.0).g
        g2 = fs_metric(pt, metric_factor=2.0).g
        assert np.max(np.abs(g2 - 2.0 * g1)) < 1e-14

    def test_hessian_of_half_squared_distance_is_the_metric(self, rng):
        """Independent oracle: g_ij(x0) = d^2/dxi dxj [d(x0, x)^2 / 2] at x0."""
        coords = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        pt = ChartPoint(base_index=0, coords=coords)
        base_ray = chart_to_ray(pt)
        n = 2 * coords.size
        h = 1e-4
        reals = pt.reals

        def half_d2(delta):
            shifted = reals + delta
            moved = ChartPoint(
                base_index=pt.base_index,
                coords=shifted[0::2] + 1j * shifted[1::2])
            return 0.5 * fs_distance(base_ray, chart_to_ray(moved)) ** 2

        hess = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                for si in (-1.0, 1.0):
                    for sj in (-1.0, 1.0):
                        delta = np.zeros(n)
                        delta[i] += si * h
                        delta[j] += sj * h
                        hess[i, j] += si * sj * half_d2(delta)
        hess /= 4.0 * h * h
        g = fs_metric(pt).g
        assert np.max(np.abs(hess - g)) < 1e-6


class TestInducedSphereMetric:
    def test_on_slice_block(self):
        pt = ChartPoint(base_index=0,
                        coords=np.array([0.3 + 0.4j, 0.0 + 0.0j]))
        m = induced_sphere_metric(pt)
        # induced block equals the CP^1 chart metric of the slice coordinate
        slice_pt = ChartPoint(base_index=0, coords=np.array([0.3 + 0.4j]))
        assert np.max(np.abs(m.g - fs_metric(slice_pt).g)) < 1e-12

    def test_off_slice_rejected(self):
        pt = ChartPoint(base_index=0,
                        coords=np.array([0.3 + 0.0j, 0.2 + 0.0j]))
        with pytest.raises(ValueError):
            induced_sphere_metric(pt)

    def test_classifier_prefers_squared_denominator(self):
        result = classify_induced_form()
        assert result["verdict"] == "power2"
        assert result["power2_max_rel"] < 1e-8
        assert result["power1_max_rel"] > 1e-2

    def test_coefficient_helper_matches_directly(self):
        val = candidate_induced_coefficient(0.3, -0.2, 0.1, 0.4, power=2)
        s = 0.3**2 + 0.2**2 + 0.1**2 + 0.4**2
        assert abs(val - (1.0 + 0.1**2 + 0.4**2) / (1.0 + s) ** 2) < 1e-15


class TestLieDerivative:
    def test_flat_along_slice_normals(self):
        for u1 in (-0.5, 0.2, 1.0):
            for v1 in (-0.3, 0.7):
                pt = ChartPoint(base_index=0,
                                coords=np.array([u1 + 1j * v1, 0.0 + 0.0j]))
                for normal in ("u2", "v2"):
                    lie = lie_derivative_normal(pt, normal)
                    assert np.max(np.abs(lie)) < 1e-6

    def test_off_slice_control_is_nonzero(self):
        pt = ChartPoint(base_index=0,
                        coords=np.array([0.0 + 0.0j, 0.0 + 0.1j]))
        lie = lie_derivative_normal(pt, "v2")
        assert np.max(np.abs(lie)) > 1e-2

    def test_classifier_reports_on_axis_agreement_only(self):
        result = classify_lie_form(normal="v2")
        assert result["verdict"] == "neither"
        assert result["on_axis_power2_max_rel"] < 1e-6
        assert result["power2_max_rel"] > 1.0


def fd_acceleration(point: ChartPoint, v: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Oracle: ``-Gamma^k_ij v^i v^j`` from central differences of the chart metric.

    ``v`` and the result are interleaved real chart components; the
    Christoffel symbols are ``1/2 g^kl (d_i g_lj + d_j g_li - d_l g_ij)``.
    """
    x = point.reals
    n = x.size

    def metric(shift):
        y = x + shift
        return fs_metric(ChartPoint(base_index=point.base_index,
                                    coords=y[0::2] + 1j * y[1::2])).g

    dg = np.array([(metric(h * e) - metric(-h * e)) / (2.0 * h) for e in np.eye(n)])
    lowered = np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (1, 2, 0)) - dg
    gamma = 0.5 * np.einsum("kl,lij->kij", np.linalg.inv(metric(0.0)), lowered)
    return -np.einsum("kij,i,j->k", gamma, v, v)


def batch_acceleration(t, w):
    """Oracle engine: the earlier batched connection on (B, m) rows."""
    tc = t.conj()
    s = 1.0 + (tc * t).real.sum(axis=-1, keepdims=True)
    return (2.0 * (tc * w).sum(axis=-1, keepdims=True) / s) * w


def batch_rk4_step(t, w, h):
    a1 = batch_acceleration(t, w)
    t2, w2 = t + 0.5 * h * w, w + 0.5 * h * a1
    a2 = batch_acceleration(t2, w2)
    t3, w3 = t + 0.5 * h * w2, w + 0.5 * h * a2
    a3 = batch_acceleration(t3, w3)
    t4, w4 = t + h * w3, w + h * a3
    a4 = batch_acceleration(t4, w4)
    tn = t + (h / 6.0) * (w + 2 * w2 + 2 * w3 + w4)
    wn = w + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
    return tn, wn


def batch_homogeneous(base, coords, fill):
    B, m = coords.shape
    off_base = np.arange(m + 1) != base[:, None]
    z = np.full((B, m + 1), fill, dtype=np.complex128)
    z[off_base] = coords.ravel()
    return z


def batch_rechart(base, t, w, threshold):
    far = np.max(np.abs(t), axis=1) > threshold
    if not np.any(far):
        return base, t, w
    z = batch_homogeneous(base[far], t[far], 1.0)
    zdot = batch_homogeneous(base[far], w[far], 0.0)
    new_base = np.argmax(np.abs(z), axis=1)
    rows = np.arange(new_base.size)
    zl, zldot = z[rows, new_base][:, None], zdot[rows, new_base][:, None]
    keep = np.arange(z.shape[1]) != new_base[:, None]
    zk, zkdot = z[keep].reshape(-1, t.shape[1]), zdot[keep].reshape(-1, t.shape[1])
    base, t, w = base.copy(), t.copy(), w.copy()
    base[far], t[far], w[far] = new_base, zk / zl, (zkdot * zl - zk * zldot) / zl**2
    return base, t, w


def batch_march(base, t, w, length, dt, threshold):
    """The earlier ``(B, m)`` engine, kept bit for bit as the one-row engine's oracle."""
    s = 0.0
    yield s, base, t, w
    while s < length - 1e-15:
        h = min(dt, length - s)
        t, w = batch_rk4_step(t, w, h)
        s += h
        base, t, w = batch_rechart(base, t, w, threshold)
        yield s, base, t, w


class TestOneRowEngine:
    @pytest.mark.parametrize("threshold", [2.0, 10.0])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_batched_oracle_bit_for_bit(self, rng, dim, threshold):
        """Rows start near a chart origin, so each path leaves the chart by s = pi/2."""
        rows, m = 3, dim - 1
        base = rng.integers(dim, size=rows)
        t = 0.01 * (rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m)))
        w = rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        length, dt = math.pi / 2.0 + 0.3, 7e-3
        batch = list(batch_march(base, t, w, length, dt, threshold))
        for i in range(rows):
            one = list(geodesics._march(int(base[i]), t[i], w[i], length, dt, threshold))
            assert len(one) == len(batch)
            assert [(s, k) for s, k, _, _ in one] == [(s, int(k[i])) for s, k, _, _ in batch]
            assert all(ti.tobytes() == tb[i].tobytes() and wi.tobytes() == wb[i].tobytes()
                       for (_, _, ti, wi), (_, _, tb, wb) in zip(one, batch))
            assert len({k for _, k, _, _ in one}) > 1  # the path re-charted


class TestClosedFormConnection:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_matches_finite_difference_oracle(self, rng, dim):
        worst = 0.0
        for _ in range(10):
            coords = 0.6 * (rng.standard_normal(dim - 1) + 1j * rng.standard_normal(dim - 1))
            point = ChartPoint(base_index=int(rng.integers(dim)), coords=coords)
            v = rng.standard_normal(2 * (dim - 1))
            w = v[0::2] + 1j * v[1::2]
            acc = geodesics._acceleration(coords, w)
            closed = np.column_stack((acc.real, acc.imag)).ravel()
            oracle = fd_acceleration(point, v)
            worst = max(worst, np.max(np.abs(closed - oracle)) / np.max(np.abs(closed)))
        assert worst <= 1e-8

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_certificate_offslice_residual_is_rounding(self, rng, dim):
        a = project(random_unit(rng, dim))
        b = project(random_unit(rng, dim))
        cert = total_geodesy_certificate(a, b, ambient_dim=dim)
        assert cert.converged
        assert cert.max_offslice_residual <= 1e-13

    def test_iterations_count_integrations_without_repeats(self, rng, monkeypatch):
        velocities = []
        original = geodesics._march

        def counting(base, t, w, *args):
            velocities.append(tuple(w.ravel()))
            return original(base, t, w, *args)

        monkeypatch.setattr(geodesics, "_march", counting)
        a = project(random_unit(rng, 4))
        b = project(random_unit(rng, 4))
        cert = total_geodesy_certificate(a, b, ambient_dim=4)
        assert cert.converged
        assert cert.iterations == len(velocities) == len(set(velocities))

        velocities.clear()
        orthogonal = total_geodesy_certificate(project(np.array([1.0, 0.0, 0.0])),
                                               project(np.array([0.0, 1.0, 0.0])))
        assert orthogonal.iterations == len(velocities) == 1


class TestIntegrateGeodesic:
    def _origin(self, dim=2):
        return ChartPoint(base_index=0,
                          coords=np.zeros(dim - 1, dtype=np.complex128))

    def test_zero_length_is_identity(self):
        start = self._origin()
        v = np.array([1.0, 0.0])
        path = integrate_geodesic(start, v, 0.0, 1e-2)
        assert fs_distance(chart_to_ray(path.final), chart_to_ray(start)) < 1e-12

    def test_speed_stays_unit(self):
        start = ChartPoint(base_index=0, coords=np.array([0.2 - 0.1j]))
        path = integrate_geodesic(start, np.array([0.7, -0.3]), 1.0, 1e-3)
        assert path.max_speed_drift < 1e-8

    def test_quarter_turn_reaches_orthogonal_ray(self):
        start = self._origin()
        path = integrate_geodesic(start, np.array([1.0, 0.0]), np.pi / 2.0, 1e-3)
        end = chart_to_ray(path.final)
        e1 = project(np.array([0.0, 1.0]))
        assert fs_distance(end, e1) < 1e-8

    def test_closed_geodesic_returns_home(self):
        start = self._origin()
        path = integrate_geodesic(start, np.array([1.0, 0.0]), np.pi, 1e-3)
        assert fs_distance(chart_to_ray(path.final), chart_to_ray(start)) < 1e-7

    def test_rechart_threshold_does_not_change_endpoint(self):
        start = ChartPoint(base_index=0, coords=np.array([0.1 + 0.05j]))
        v = np.array([1.0, 0.2])
        kw = dict(length=1.4, dt=1e-3)
        eager = integrate_geodesic(start, v, rechart_threshold=1.5, **kw)
        lazy = integrate_geodesic(start, v, rechart_threshold=10.0, **kw)
        assert fs_distance(chart_to_ray(eager.final),
                           chart_to_ray(lazy.final)) < 1e-8

    def test_observable_scale_preserves_paths_but_not_lengths(self):
        start = self._origin()
        v = np.array([1.0, 0.0])
        stat = integrate_geodesic(start, v, 0.5, 1e-3, metric_factor=1.0)
        obs = integrate_geodesic(start, v, 0.5 * np.sqrt(2.0), 1e-3,
                                 metric_factor=2.0)
        # same endpoint: observable-scale arclength runs sqrt(2) faster
        assert fs_distance(chart_to_ray(stat.final),
                           chart_to_ray(obs.final)) < 1e-7


class TestGeodesicBetween:
    def test_length_equals_distance(self, rng):
        a = project(random_unit(rng, 4))
        b = project(random_unit(rng, 4))
        path = geodesic_between(a, b)
        assert abs(path.total_length - fs_distance(a, b)) < 1e-10

    def test_endpoints(self, rng):
        a = project(random_unit(rng, 3))
        b = project(random_unit(rng, 3))
        path = geodesic_between(a, b)
        rays = path.rays()
        assert fs_distance(rays[0], a) < 1e-10
        assert fs_distance(rays[-1], b) < 1e-10

    def test_path_stays_on_spanned_sphere(self, rng):
        a = random_unit(rng, 3)
        b = random_unit(rng, 3)
        u, v = gram_schmidt([a, b])
        sphere = SpannedSphere.from_rays(project(u), project(v))
        path = geodesic_between(project(a), project(b))
        for ray in path.rays():
            assert sphere_membership(ray, sphere) < 1e-10

    def test_orthogonal_endpoints_flagged_degenerate(self):
        a = project(np.array([1.0, 0.0, 0.0]))
        b = project(np.array([0.0, 1.0, 0.0]))
        path = geodesic_between(a, b)
        assert path.phase_degenerate
        assert abs(path.total_length - np.pi / 2.0) < 1e-12

    def test_generic_pair_not_degenerate(self):
        a = project(np.array([1.0, 0.0, 0.0]))
        b = project(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
        assert not geodesic_between(a, b).phase_degenerate

    def test_sphere_determined_by_interior_points(self, rng):
        """Two interior samples pin down the same great sphere."""
        a = project(random_unit(rng, 4))
        b = project(random_unit(rng, 4))
        path = geodesic_between(a, b, num_samples=33)
        rays = path.rays()
        u, v = gram_schmidt([rays[10].rep, rays[20].rep])
        sphere = SpannedSphere.from_rays(project(u), project(v))
        for ray in (a, b, rays[5], rays[28]):
            assert sphere_membership(ray, sphere) < 1e-10

    def test_coincident_rays_rejected(self, rng):
        a = project(random_unit(rng, 3))
        with pytest.raises(ValueError):
            geodesic_between(a, project(np.exp(0.4j) * a.rep))


class TestIntegratedDistances:
    def test_matches_closed_form(self, rng):
        pairs = []
        for dim in (2, 3, 5):
            for _ in range(4):
                a = project(random_unit(rng, dim))
                b = project(random_unit(rng, dim))
                if 1e-3 < abs(a.overlap_with(b)) < 0.999:
                    pairs.append((a, b))
        assert len(pairs) >= 8
        dists = integrated_pair_distances(pairs)
        for (a, b), d in zip(pairs, dists):
            assert abs(d - fs_distance(a, b)) < 1e-8

    def test_sweep_equals_single_pairs_bit_for_bit(self, rng):
        pairs = [(project(random_unit(rng, dim)), project(random_unit(rng, dim)))
                 for dim in (2, 3, 5) for _ in range(4)]
        singles = [integrated_pair_distance(a, b) for a, b in pairs]
        assert integrated_pair_distances(pairs).tobytes() == np.array(singles).tobytes()

    @pytest.mark.parametrize("n_pairs", [1, 7, 40])
    def test_one_integration_whatever_the_batch(self, rng, monkeypatch, n_pairs):
        calls = []
        original = geodesics._march

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(geodesics, "_march", counting)
        pairs = [(project(random_unit(rng, 3)), project(random_unit(rng, 3)))
                 for _ in range(n_pairs)]
        assert integrated_pair_distances(pairs).shape == (n_pairs,)
        assert len(calls) == 1

    def test_no_pairs_give_an_empty_float_array(self):
        dists = integrated_pair_distances([])
        assert dists.shape == (0,)
        assert dists.dtype == np.float64

    def test_single_pair_helper(self, rng):
        a = project(random_unit(rng, 3))
        b = project(random_unit(rng, 3))
        d = integrated_pair_distance(a, b)
        assert abs(d - fs_distance(a, b)) < 1e-8


class TestTotalGeodesyCertificate:
    def test_dim3_certificate(self, rng):
        a = project(random_unit(rng, 3))
        b = project(random_unit(rng, 3))
        cert = total_geodesy_certificate(a, b, ambient_dim=3)
        assert cert.converged
        assert cert.arrival_miss < 1e-8
        assert cert.max_offslice_residual < 1e-6
        assert cert.length_match < 1e-6
        assert abs(cert.target_length - fs_distance(a, b)) < 1e-12

    def test_axis_aligned_quarter_distance_pair(self):
        a = project(np.array([1.0, 0.0, 0.0]))
        b = project(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
        cert = total_geodesy_certificate(a, b, ambient_dim=3)
        assert cert.converged
        assert cert.length_match < 1e-6
        assert abs(cert.target_length - np.pi / 4.0) < 1e-12

    def test_dimension_mismatch_rejected(self, rng):
        a = project(random_unit(rng, 3))
        b = project(random_unit(rng, 3))
        with pytest.raises(ValueError):
            total_geodesy_certificate(a, b, ambient_dim=4)

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_shot_starts_where_integrate_geodesic_would(self, rng, dim, monkeypatch):
        """A shot marches the exact unit-speed row ``integrate_geodesic`` builds."""
        starts = []
        original = geodesics._march

        def recording(*args):
            starts.append(args)
            return original(*args)

        monkeypatch.setattr(geodesics, "_march", recording)
        a, b = project(random_unit(rng, dim)), project(random_unit(rng, dim))
        e0, e1, cos_d, sin_d, _ = geodesics._aligned_frame(a, b)
        a_chart, chi = ray_to_chart(a), 0.3
        geodesics._shoot(a_chart, e0, e1, cos_d, sin_d, chi, 1.2, 5e-3,
                         SpannedSphere(rep0=e0, rep1=e1))
        w = np.exp(1j * chi) * e1
        k = a_chart.base_index
        keep = np.arange(dim) != k
        tdot = (w[keep] * e0[k] - e0[keep] * w[k]) / e0[k] ** 2
        integrate_geodesic(a_chart, np.column_stack((tdot.real, tdot.imag)).ravel(), 1.2, 5e-3)
        shot, path = starts
        assert [np.asarray(x).tobytes() for x in shot] == [np.asarray(x).tobytes() for x in path]


def _smooth_function(rng):
    """A smooth function on [-0.6, 0.6], most often with a sign change there."""
    r = float(rng.uniform(-0.7, 0.7))
    s, c, q = (float(v) for v in rng.uniform(0.2, 4.0, 3) * rng.choice([-1.0, 1.0], 3))
    family = int(rng.integers(4))
    if family == 0:
        return lambda x: math.tanh(s * (x - r)) + 0.1 * c * (x - r) ** 2
    if family == 1:
        return lambda x: (x - r) * (1.0 + c * c + math.sin(q * x) ** 2)
    if family == 2:
        return lambda x: math.atan(s * (x - r)) ** 3 + 1e-9 * c * (x - r)
    return lambda x: math.expm1(q * (x - r)) + 0.5 * math.sin(c * (x - r))


def _calls(f):
    """``f`` with a record of the points it is called at, kept in ``.xs``."""
    def g(x):
        g.xs.append(x)
        return f(x)
    g.xs = []
    return g


class TestBrentRoot:
    """``_brent_root`` against scipy's ``brentq``, the code it ports."""

    @staticmethod
    def _both(f, a=-0.6, b=0.6, maxiter=200):
        brentq = pytest.importorskip("scipy.optimize").brentq
        theirs, ours = _calls(f), _calls(f)
        root, info = brentq(theirs, a, b, xtol=1e-12, maxiter=maxiter,
                            full_output=True, disp=False)
        port, converged = geodesics._brent_root(ours, a, b, xtol=1e-12, maxiter=maxiter)
        assert info.function_calls == len(theirs.xs)
        return (root, info.converged, theirs.xs), (port, converged, ours.xs)

    def test_matches_brentq_bit_for_bit(self):
        pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(4)
        compared = 0
        while compared < 1200:
            f = _smooth_function(rng)
            if (f(-0.6) < 0) == (f(0.6) < 0):
                continue
            theirs, ours = self._both(f)
            assert ours[0].hex() == theirs[0].hex()
            assert ours[1:] == theirs[1:]
            compared += 1

    @pytest.mark.parametrize("f, root", [(lambda x: x + 0.6, -0.6),
                                         (lambda x: 0.6 - x, 0.6)])
    def test_exact_zero_at_an_end_is_returned(self, f, root):
        theirs, ours = self._both(f)
        assert ours == theirs
        assert ours[:2] == (root, True)

    @pytest.mark.parametrize("f", [
        lambda x: 1.0 + x * x,                                  # same sign at both ends
        lambda x: -math.cosh(x),
        lambda x: math.nan if x > 0 else x,                     # NaN at an end
        lambda x: math.nan if abs(x - 0.01) < 0.05 else x - 0.01,  # NaN mid-search
    ])
    def test_bad_bracket_or_nan_raises(self, f):
        brentq = pytest.importorskip("scipy.optimize").brentq
        with pytest.raises(ValueError):
            brentq(f, -0.6, 0.6, xtol=1e-12)
        with pytest.raises(ValueError):
            geodesics._brent_root(f, -0.6, 0.6, xtol=1e-12, maxiter=200)

    @pytest.mark.parametrize("maxiter", [0, 1, 3])
    def test_running_out_of_iterations_is_not_converged(self, maxiter):
        theirs, ours = self._both(lambda x: math.atan(3.0 * (x - 0.123)) ** 3, maxiter=maxiter)
        assert ours[0].hex() == theirs[0].hex()
        assert ours[1:] == theirs[1:]
        assert ours[1] is False


def test_geodesic_rows_layout():
    start = ChartPoint(base_index=0, coords=np.zeros(2, dtype=np.complex128))
    path = integrate_geodesic(start, np.array([1.0, 0.0, 0.0, 0.0]), 0.2, 1e-2)
    header, rows = geodesic_rows(path)
    assert header[0] == "arclength"
    assert header[1] == "base_index"
    assert header[2:] == ["u1", "v1", "u2", "v2"]
    assert all(len(row) == len(header) for row in rows)
    assert abs(rows[-1][0] - 0.2) < 1e-12
