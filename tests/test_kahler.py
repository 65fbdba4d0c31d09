"""Unit tests for the metric/symplectic pairings and observable flows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projqm.hilbert import (commutator_expectation, evolve_exact, momentum_operator,
                            position_operator, sigma_x, sigma_z,
                            symmetrized_covariance, variance)
from projqm.kahler import (KahlerScale, TangentVector,
                           commutator_closure_residual,
                           derive_observable_scale_factor, flow_transport,
                           hamiltonian_vector_field,
                           horizontal_project, killing_residual, metric_eval,
                           poisson_bracket, random_horizontal,
                           riemannian_product, symplectic_eval,
                           uncertainty_audit)
from projqm.projective import fs_distance, project
from tests.conftest import hermitians, random_hermitian, random_unit, unit_vectors


class TestTangentVector:
    def test_horizontal_projection_kills_vertical_part(self, rng):
        base = project(random_unit(rng, 4))
        raw = random_unit(rng, 4) + (2.0 + 1.0j) * base.rep
        tv = horizontal_project(base, raw)
        assert abs(np.vdot(base.rep, tv.vec)) < 1e-12

    def test_random_horizontal_is_horizontal(self, rng):
        base = project(random_unit(rng, 5))
        tv = random_horizontal(base, rng)
        assert abs(np.vdot(base.rep, tv.vec)) < 1e-12

    def test_vertical_component_rejected(self, rng):
        base = project(random_unit(rng, 3))
        with pytest.raises(ValueError):
            TangentVector(base=base, vec=base.rep.copy())


class TestScaleFactor:
    def test_rederived_factor_is_two(self):
        assert abs(derive_observable_scale_factor() - 2.0) < 1e-12

    def test_enum_factors(self):
        assert KahlerScale.STATISTICAL.factor == 1.0
        assert KahlerScale.OBSERVABLE.factor == 2.0


@given(hermitians(), st.data())
@settings(max_examples=80, deadline=None)
def test_poisson_bracket_equals_commutator_expectation(op_f, data):
    dim = op_f.shape[0]
    op_g = data.draw(hermitians(dim=dim))
    psi = data.draw(unit_vectors(dim=dim))
    at = project(psi)
    pb = poisson_bracket(op_f, op_g, at)
    oracle = commutator_expectation(op_f, op_g, at.rep)
    assert abs(pb - oracle) < 1e-12
    assert abs(pb + poisson_bracket(op_g, op_f, at)) < 1e-14


@given(hermitians(), st.data())
@settings(max_examples=80, deadline=None)
def test_riemannian_product_is_twice_symmetrized_covariance(op_f, data):
    dim = op_f.shape[0]
    op_g = data.draw(hermitians(dim=dim))
    psi = data.draw(unit_vectors(dim=dim))
    at = project(psi)
    rr = riemannian_product(op_f, op_g, at)
    assert abs(rr - 2.0 * symmetrized_covariance(op_f, op_g, at.rep)) < 1e-12
    assert abs(riemannian_product(op_f, op_f, at) - 2.0 * variance(op_f, at.rep)) < 1e-12


def test_known_qubit_values():
    plus = project(np.array([1.0, 1.0]) / np.sqrt(2.0))
    plus_i = project(np.array([1.0, 1.0j]) / np.sqrt(2.0))
    # at +y the z/x bracket reaches its extremal value 2
    assert abs(poisson_bracket(sigma_z(), sigma_x(), plus_i) - 2.0) < 1e-12
    # at +x the z observable has unit variance, so (f, f) = 2
    assert abs(riemannian_product(sigma_z(), sigma_z(), plus) - 2.0) < 1e-12


def test_metric_product_vanishes_exactly_at_eigenstates():
    op = np.diag([0.5, -1.0, 2.0]).astype(np.complex128)
    for k in range(3):
        e = np.zeros(3, dtype=np.complex128)
        e[k] = 1.0
        assert riemannian_product(op, op, project(e)) == 0.0


class TestHamiltonianVectorField:
    def test_field_is_horizontal(self, rng):
        op = random_hermitian(rng, 5)
        at = project(random_unit(rng, 5))
        tv = hamiltonian_vector_field(op, at)
        assert abs(np.vdot(at.rep, tv.vec)) < 1e-12

    def test_identity_component_is_in_the_kernel(self, rng):
        op = random_hermitian(rng, 4)
        at = project(random_unit(rng, 4))
        base = hamiltonian_vector_field(op, at).vec
        for alpha in (-3.0, 0.25, 10.0):
            shifted = hamiltonian_vector_field(
                op + alpha * np.eye(4), at).vec
            assert np.max(np.abs(shifted - base)) < 1e-12 * (1.0 + abs(alpha))

    def test_vanishes_at_eigenstates(self):
        e0 = project(np.array([1.0, 0.0]))
        tv = hamiltonian_vector_field(sigma_z(), e0)
        assert np.max(np.abs(tv.vec)) == 0.0

    def test_pairings_reproduce_bracket_and_product(self, rng):
        op_f = random_hermitian(rng, 4)
        op_g = random_hermitian(rng, 4)
        at = project(random_unit(rng, 4))
        xf = hamiltonian_vector_field(op_f, at)
        xg = hamiltonian_vector_field(op_g, at)
        pb = symplectic_eval(KahlerScale.OBSERVABLE, xf, xg)
        assert abs(pb - poisson_bracket(op_f, op_g, at)) < 1e-12
        rr = metric_eval(KahlerScale.OBSERVABLE, xf, xg)
        assert abs(rr - riemannian_product(op_f, op_g, at)) < 1e-12

    def test_mismatched_base_rejected(self, rng):
        op = random_hermitian(rng, 3)
        x = hamiltonian_vector_field(op, project(random_unit(rng, 3)))
        y = hamiltonian_vector_field(op, project(random_unit(rng, 3)))
        with pytest.raises(ValueError):
            metric_eval(KahlerScale.STATISTICAL, x, y)


class TestKillingResidual:
    def test_flow_transport_is_isometric(self, rng):
        op = random_hermitian(rng, 4)
        at = project(random_unit(rng, 4))
        res = killing_residual(op, at, rng=11)
        assert res < 1e-6

    def test_frozen_transport_control_is_orders_larger(self, rng):
        """Negative control: holding the vector components fixed and merely
        re-horizontalizing them at the moved ray is a wrong transport, whose
        residual sits at the curvature scale, orders above the flow's."""
        op = random_hermitian(rng, 4)
        at = project(random_unit(rng, 4))
        flow = killing_residual(op, at, rng=11)
        # the same pair killing_residual draws from rng=11, at its eps = 1e-3
        gen = np.random.default_rng(11)
        x, y = random_horizontal(at, gen), random_horizontal(at, gen)
        eps, values = 1e-3, {}
        for s in (-eps, eps):
            base_s = project(evolve_exact(op, at.rep, s))
            xs, ys = horizontal_project(base_s, x.vec), horizontal_project(base_s, y.vec)
            values[s] = [metric_eval(KahlerScale.STATISTICAL, p, q)
                         for p, q in ((xs, xs), (xs, ys), (ys, ys))]
        frozen = max(abs(a - b) / (2.0 * eps) for a, b in zip(values[eps], values[-eps]))
        assert frozen > 1e3 * max(flow, 1e-12)


class TestFlowTransport:
    def test_transport_moves_base_along_flow(self, rng):
        op = random_hermitian(rng, 3)
        at = project(random_unit(rng, 3))
        x = random_horizontal(at, rng)
        moved = flow_transport(op, x, 0.2)
        assert abs(np.vdot(moved.base.rep, moved.vec)) < 1e-12
        assert fs_distance(moved.base, at) > 0.0


class TestCommutatorClosure:
    def test_cubic_shrinkage(self, rng):
        op_f = random_hermitian(rng, 3)
        op_g = random_hermitian(rng, 3)
        at = project(random_unit(rng, 3))
        r1 = commutator_closure_residual(op_f, op_g, at, eps=2e-2)
        r2 = commutator_closure_residual(op_f, op_g, at, eps=1e-2)
        ratio = r1 / r2
        assert 6.0 < ratio < 10.0

    def test_oscillator_quadratures_close_below_truncation(self):
        dim = 20
        psi = np.zeros(dim, dtype=np.complex128)
        psi[:6] = [1.0, 0.8, 0.5, 0.3, 0.1, 0.05]
        psi /= np.linalg.norm(psi)
        res = commutator_closure_residual(position_operator(dim),
                                          momentum_operator(dim),
                                          project(psi), eps=1e-2)
        assert res < 1e-8


class TestUncertaintyAudit:
    @given(hermitians(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_slack_nonnegative(self, op_f, data):
        dim = op_f.shape[0]
        op_m = data.draw(hermitians(dim=dim))
        psi = data.draw(unit_vectors(dim=dim))
        audit = uncertainty_audit(op_f, op_m, project(psi))
        assert audit.slack >= -1e-12
        assert abs(audit.lhs - audit.symplectic_term - audit.metric_term
                   - audit.slack) < 1e-12

    def test_saturation_at_plus_i(self):
        plus_i = project(np.array([1.0, 1.0j]) / np.sqrt(2.0))
        audit = uncertainty_audit(sigma_z(), sigma_x(), plus_i)
        assert abs(audit.slack) < 1e-10
        assert abs(audit.lhs - 1.0) < 1e-12
        assert abs(audit.symplectic_term - 1.0) < 1e-12
        assert abs(audit.metric_term) < 1e-12


class TestEigenrays:
    def test_hamiltonian_field_vanishes_at_each_eigenray(self, rng):
        """Eigenrays are the critical points of the expectation function, so
        the flow fixes them (Ashtekar & Schilling, gr-qc/9706069)."""
        op = random_hermitian(rng, 4)
        evals, vecs = np.linalg.eigh(op)
        for k in range(4):
            ray = project(vecs[:, k])
            assert abs(np.real(np.vdot(ray.rep, op @ ray.rep)) - evals[k]) < 1e-10
            assert np.max(np.abs(hamiltonian_vector_field(op, ray).vec)) < 1e-10
