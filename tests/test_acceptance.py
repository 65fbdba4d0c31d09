"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each criterion is a single test function so the verbose pytest run shows one
PASSED/FAILED line per criterion; each also prints a one-line summary with
the measured extremes (visible with ``pytest -s`` or in failure output).
"""

import numpy as np

from projqm.dynamics import flow_integrate, flow_vs_exact_deviation
from projqm.geodesics import (ChartPoint, integrated_pair_distances,
                              lie_derivative_normal, total_geodesy_certificate)
from projqm.hilbert import (commutator_expectation, gram_schmidt,
                            momentum_operator, position_operator, sigma_x,
                            sigma_z, variance)
from projqm.interference import (TwoSlitConfig, fringe_spacing,
                                 phase_invariance_check,
                                 projector_poisson_check, slit_states)
from projqm.kahler import (derive_observable_scale_factor,
                           hamiltonian_vector_field, poisson_bracket,
                           riemannian_product, uncertainty_audit)
from projqm.projective import (RiemannCoordinate, SpannedSphere, fs_distance,
                               project, riemann_coordinate, sphere_area,
                               transition_probability)
from tests.conftest import random_hermitian, random_unit
from tests.test_dynamics import ehrenfest_residual

SEED = 20260814
SWEEP_DIMS = (2, 3, 4, 5, 6, 7, 8)


def _emit(num, name, detail):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


def _random_pairs(rng, n_per_dim, dims=SWEEP_DIMS):
    pairs = []
    for dim in dims:
        made = 0
        while made < n_per_dim:
            a = project(random_unit(rng, dim))
            b = project(random_unit(rng, dim))
            if 1e-3 < abs(a.overlap_with(b)) < 0.999:
                pairs.append((a, b))
                made += 1
    return pairs


def test_criterion_01_distance_consistency_closed_form_and_integrated():
    rng = np.random.default_rng(SEED)
    pairs = _random_pairs(rng, 144)  # 7 dims x 144 = 1008 pairs
    assert len(pairs) >= 1000

    closed_worst = 0.0
    for a, b in pairs:
        p = transition_probability(a, b)
        closed_worst = max(closed_worst,
                           abs(np.cos(fs_distance(a, b)) ** 2 - p))
    assert closed_worst < 1e-12

    # one stack per dim, the pairs of each dim in order
    integrated = integrated_pair_distances(
        [(np.array([a.rep for a, _ in pairs[k:k + 144]]),
          np.array([b.rep for _, b in pairs[k:k + 144]])) for k in range(0, len(pairs), 144)])
    int_worst = 0.0
    for (a, b), d in zip(pairs, integrated):
        p = transition_probability(a, b)
        int_worst = max(int_worst, abs(np.cos(d) ** 2 - p))
    assert int_worst < 1e-8
    _emit(1, "distance consistency over 1008 pairs in dims 2-8",
          f"closed-form max {closed_worst:.2e} < 1e-12, "
          f"integrated max {int_worst:.2e} < 1e-8")


def test_criterion_02_totally_geodesic_certificates_dims_3_and_4():
    rng = np.random.default_rng(SEED + 1)
    worst_member = 0.0
    worst_length = 0.0
    count = 0
    for dim in (3, 4):
        for _ in range(10):
            a = project(random_unit(rng, dim))
            b = project(random_unit(rng, dim))
            if not (1e-3 < abs(a.overlap_with(b)) < 0.999):
                b = project(0.8 * a.rep + 0.6 * random_unit(rng, dim))
            cert = total_geodesy_certificate(a, b)
            assert cert.converged
            worst_member = max(worst_member, cert.max_offslice_residual)
            worst_length = max(worst_length, cert.length_match)
            count += 1
    assert count >= 20
    assert worst_member < 1e-6
    assert worst_length < 1e-6
    _emit(2, "shooting geodesics stay on the spanned sphere (dims 3, 4)",
          f"{count} pairs, membership max {worst_member:.2e} < 1e-6, "
          f"length mismatch max {worst_length:.2e} < 1e-6")


def test_criterion_03_lie_derivatives_vanish_along_both_normals():
    grid = np.linspace(-1.2, 1.2, 10)
    worst = 0.0
    for u1 in grid:
        for v1 in grid:
            pt = ChartPoint(base_index=0,
                            coords=np.array([u1 + 1j * v1, 0.0 + 0.0j]))
            for normal in ("u2", "v2"):
                worst = max(worst,
                            float(np.max(np.abs(
                                lie_derivative_normal(pt, normal)))))
    assert worst < 1e-6

    off = ChartPoint(base_index=0, coords=np.array([0.0 + 0.0j, 0.0 + 0.1j]))
    control = float(np.max(np.abs(lie_derivative_normal(off, "v2"))))
    assert control > 1e-2
    _emit(3, "induced metric frozen along slice normals (10x10 grid)",
          f"on-slice max {worst:.2e} < 1e-6, off-slice control {control:.2e}")


def test_criterion_04_sphere_area_is_pi_in_dims_2_3_8():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for dim in (2, 3, 8):
        u, v = gram_schmidt([random_unit(rng, dim), random_unit(rng, dim)])
        sph = SpannedSphere.from_rays(project(u), project(v))
        worst = max(worst, abs(sphere_area(sph) - np.pi))
    assert worst < 1e-6
    _emit(4, "statistical area of spanned spheres equals pi (dims 2, 3, 8)",
          f"max |area - pi| {worst:.2e} < 1e-6")


def test_criterion_05_poisson_bracket_equals_commutator_expectation():
    # normalization pinned first by the independent spin-1/2 oracle
    assert abs(derive_observable_scale_factor() - 2.0) < 1e-12

    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    trials = 0
    while trials < 1008:
        dim = SWEEP_DIMS[trials % len(SWEEP_DIMS)]
        op_f = random_hermitian(rng, dim)
        op_g = random_hermitian(rng, dim)
        at = project(random_unit(rng, dim))
        worst = max(worst, abs(poisson_bracket(op_f, op_g, at)
                               - commutator_expectation(op_f, op_g, at.rep)))
        trials += 1
    assert worst < 1e-12
    _emit(5, "bracket matches commutator expectation (1008 trials, dims 2-8)",
          f"factor re-derived as 2, max residual {worst:.2e} < 1e-12")


def test_criterion_06_metric_self_product_is_twice_the_variance():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    trials = 0
    while trials < 1008:
        dim = SWEEP_DIMS[trials % len(SWEEP_DIMS)]
        op = random_hermitian(rng, dim)
        psi = random_unit(rng, dim)
        worst = max(worst, abs(riemannian_product(op, op, project(psi))
                               - 2.0 * variance(op, psi)))
        trials += 1
    assert worst < 1e-12

    op = np.diag([1.5, -0.5, 3.0]).astype(np.complex128)
    for k in range(3):
        e = np.zeros(3, dtype=np.complex128)
        e[k] = 1.0
        assert riemannian_product(op, op, project(e)) == 0.0
    _emit(6, "self metric product equals twice the variance",
          f"max residual {worst:.2e} < 1e-12, exact zero at eigenstates")


def test_criterion_07_order_of_accuracy_ehrenfest_and_integrator():
    rng = np.random.default_rng(SEED + 5)
    h = random_hermitian(rng, 4)
    f = random_hermitian(rng, 4)
    at = project(random_unit(rng, 4))
    residuals = [ehrenfest_residual(f, h, at, eps=eps)
                 for eps in (1e-2, 1e-3, 1e-4)]
    orders = [np.log10(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9

    psi = random_unit(rng, 4)
    devs = [flow_vs_exact_deviation(h, flow_integrate(h, psi, 1.0, dt))
            for dt in (4e-2, 2e-2, 1e-2)]
    rk4_orders = [np.log2(devs[i] / devs[i + 1]) for i in range(2)]
    assert min(rk4_orders) >= 3.8
    _emit(7, "finite-difference and integrator convergence orders",
          f"derivative orders {orders[0]:.3f}/{orders[1]:.3f} >= 1.9, "
          f"integrator orders {rk4_orders[0]:.3f}/{rk4_orders[1]:.3f} >= 3.8")


def test_criterion_08_kernel_closure_and_uncertainty_floor():
    rng = np.random.default_rng(SEED + 6)

    # adding any multiple of the identity leaves the flow field unchanged
    kernel_worst = 0.0
    for alpha in (-10.0, -0.3, 0.5, 7.0):
        op = random_hermitian(rng, 4)
        at = project(random_unit(rng, 4))
        base = hamiltonian_vector_field(op, at).vec
        shifted = hamiltonian_vector_field(op + alpha * np.eye(4), at).vec
        kernel_worst = max(kernel_worst,
                           float(np.max(np.abs(shifted - base)))
                           / (1.0 + abs(alpha)))
    assert kernel_worst < 1e-12

    # quadrature flows close on states supported below half the truncation
    from projqm.kahler import commutator_closure_residual
    dim = 20
    psi = np.zeros(dim, dtype=np.complex128)
    psi[:8] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    closure = commutator_closure_residual(position_operator(dim),
                                          momentum_operator(dim),
                                          project(psi), eps=1e-2)
    assert closure < 1e-8

    min_slack = np.inf
    trials = 0
    while trials < 1008:
        dim = SWEEP_DIMS[trials % len(SWEEP_DIMS)]
        audit = uncertainty_audit(random_hermitian(rng, dim),
                                  random_hermitian(rng, dim),
                                  project(random_unit(rng, dim)))
        min_slack = min(min_slack, audit.slack)
        trials += 1
    assert min_slack >= -1e-12

    plus_i = project(np.array([1.0, 1.0j]) / np.sqrt(2.0))
    saturated = uncertainty_audit(sigma_z(), sigma_x(), plus_i)
    assert abs(saturated.slack) < 1e-10
    _emit(8, "flow kernel, quadrature closure, and uncertainty floor",
          f"kernel max {kernel_worst:.2e} < 1e-12, closure {closure:.2e} < 1e-8, "
          f"min slack {min_slack:.2e} >= -1e-12, saturation "
          f"|slack| {abs(saturated.slack):.2e} < 1e-10")


def test_criterion_09_two_slit_identities_and_fringe_spacing():
    cfg = TwoSlitConfig()
    pattern = cfg.run()
    assert pattern.decomposition_residual < 1e-12

    wall = cfg.make_wall()
    phase_res = phase_invariance_check(pattern, lambda_phase=np.pi / 3.0)
    assert phase_res < 1e-12

    s = slit_states(wall)
    bracket = projector_poisson_check(wall, project(s[0] + s[1]))
    assert bracket < 1e-12

    measured = fringe_spacing(pattern)
    fringe_err = abs(measured - cfg.expected_fringe_spacing)
    assert fringe_err < pattern.dx
    _emit(9, "two-slit decomposition, phase freedom, and fringe spacing",
          f"decomposition {pattern.decomposition_residual:.2e} < 1e-12, "
          f"phase {phase_res:.2e} < 1e-12, bracket {bracket:.2e} < 1e-12, "
          f"fringe error {fringe_err:.2e} < cell {pattern.dx:.2e}")


def test_criterion_10_coordinate_covariance_under_basis_rephasing():
    rng = np.random.default_rng(SEED + 7)
    u, v = gram_schmidt([random_unit(rng, 4), random_unit(rng, 4)])
    sph = SpannedSphere.from_rays(project(u), project(v))
    x = sph.point(RiemannCoordinate.from_z(0.7 - 0.2j))
    z = riemann_coordinate(x, sph).z
    worst = 0.0
    for lam in np.linspace(0.0, 2.0 * np.pi, 33):
        z_new = riemann_coordinate(x, sph.rephased(lam1=lam)).z
        worst = max(worst, abs(z_new - np.exp(-1j * lam) * z))
    assert worst < 1e-12
    _emit(10, "coordinate covariance under basis rephasing",
          f"max |z' - e^(-i lam) z| {worst:.2e} < 1e-12 over 33 phases")
