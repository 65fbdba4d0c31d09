"""Unit tests for the ambient Hilbert-space helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projqm.hilbert import (LinearDependenceError, as_hermitian, as_state,
                            commutator_expectation, evolve_exact, expectation,
                            gram_schmidt, lowering_operator, make_projector,
                            momentum_operator, position_operator, sigma_x,
                            sigma_y, sigma_z, symmetrized_covariance, variance)
from tests.conftest import hermitians, unit_vectors


class TestAsState:
    def test_coerces_to_complex(self):
        psi = as_state([3.0, 4.0])
        assert psi.dtype == np.complex128
        assert np.array_equal(psi, np.array([3.0 + 0j, 4.0 + 0j]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_state([])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_state(np.eye(2))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_state([np.inf, 1.0])


class TestAsHermitian:
    def test_accepts_pauli(self):
        for op in (sigma_x(), sigma_y(), sigma_z()):
            out = as_hermitian(op)
            assert np.array_equal(out, out.conj().T)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="Hermitian"):
            as_hermitian([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            as_hermitian(np.ones((2, 3)))


@given(hermitians(), st.data())
@settings(max_examples=60, deadline=None)
def test_variance_nonnegative_and_consistent(op, data):
    psi = data.draw(unit_vectors(dim=op.shape[0]))
    var = variance(op, psi)
    assert var >= -1e-12
    # Var F = <F^2> - <F>^2, straight from the ambient algebra.
    direct = expectation(op @ op, psi) - expectation(op, psi) ** 2
    assert abs(var - direct) < 1e-10


def test_eigenvector_expectation_and_variance():
    op = np.diag([1.0, 3.0, -2.0]).astype(np.complex128)
    e1 = np.array([0.0, 1.0, 0.0], dtype=np.complex128)
    assert expectation(op, e1) == 3.0
    assert variance(op, e1) == 0.0


@given(hermitians(), st.data())
@settings(max_examples=60, deadline=None)
def test_commutator_expectation_matches_matrices(op_f, data):
    dim = op_f.shape[0]
    op_g = data.draw(hermitians(dim=dim))
    psi = data.draw(unit_vectors(dim=dim))
    val = commutator_expectation(op_f, op_g, psi)
    comm = -1j * (op_f @ op_g - op_g @ op_f)
    oracle = float(np.real(np.vdot(psi, comm @ psi)))
    assert abs(val - oracle) < 1e-12
    assert abs(val + commutator_expectation(op_g, op_f, psi)) < 1e-12


@given(hermitians(), st.data())
@settings(max_examples=60, deadline=None)
def test_symmetrized_covariance_properties(op_f, data):
    dim = op_f.shape[0]
    op_m = data.draw(hermitians(dim=dim))
    psi = data.draw(unit_vectors(dim=dim))
    cov_fm = symmetrized_covariance(op_f, op_m, psi)
    cov_mf = symmetrized_covariance(op_m, op_f, psi)
    assert abs(cov_fm - cov_mf) < 1e-12
    assert abs(symmetrized_covariance(op_f, op_f, psi) - variance(op_f, psi)) < 1e-12


@pytest.mark.parametrize("fn", [
    expectation,
    variance,
    lambda op, psi: commutator_expectation(sigma_x(), op, psi),
    lambda op, psi: symmetrized_covariance(op, sigma_z(), psi),
], ids=["expectation", "variance", "commutator_expectation", "symmetrized_covariance"])
def test_expectation_forms_reject_bad_operands(fn):
    with pytest.raises(ValueError, match=r"dimension mismatch: .*\b3\b.*state 2"):
        fn(np.eye(3), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="zero norm"):
        fn(sigma_z(), np.zeros(2))


class TestEvolveExact:
    def test_unitarity(self, rng):
        dim = 5
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = 0.5 * (h + h.conj().T)
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        out = evolve_exact(h, psi, 0.7)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_pauli_z_rotation(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        t = 0.3
        out = evolve_exact(sigma_z(), psi, t)
        oracle = np.array([np.exp(-1j * t), np.exp(1j * t)]) / np.sqrt(2.0)
        assert np.max(np.abs(out - oracle)) < 1e-14

    def test_composition(self, rng):
        h = np.diag([0.2, -0.5, 1.1]).astype(np.complex128)
        psi = np.array([1.0, 2.0, -1.0j], dtype=np.complex128)
        psi /= np.linalg.norm(psi)
        once = evolve_exact(h, psi, 0.8)
        twice = evolve_exact(h, evolve_exact(h, psi, 0.4), 0.4)
        assert np.max(np.abs(once - twice)) < 1e-13


class TestGramSchmidt:
    def test_orthonormal_output(self, rng):
        vecs = [rng.standard_normal(4) + 1j * rng.standard_normal(4)
                for _ in range(3)]
        basis = gram_schmidt(vecs)
        gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_span_preserved(self, rng):
        vecs = [rng.standard_normal(5) + 1j * rng.standard_normal(5)
                for _ in range(2)]
        basis = gram_schmidt(vecs)
        # Projector built from either family must agree.
        p_raw = make_projector(gram_schmidt(vecs)).matrix
        p_basis = make_projector(basis).matrix
        assert np.max(np.abs(p_raw - p_basis)) < 1e-12

    def test_dependence_detected(self):
        v = np.array([1.0, 2.0, 0.0], dtype=np.complex128)
        with pytest.raises(LinearDependenceError) as err:
            gram_schmidt([v, 2.0 * v])
        assert err.value.index == 1


class TestProjector:
    def test_idempotent_hermitian(self, rng):
        vecs = gram_schmidt([rng.standard_normal(6) + 1j * rng.standard_normal(6)
                             for _ in range(3)])
        proj = make_projector(vecs)
        p = proj.matrix
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(p - p.conj().T)) < 1e-14
        assert proj.rank == 3
        assert proj.dim == 6

    def test_apply_matches_matrix(self, rng):
        vecs = gram_schmidt([rng.standard_normal(4) + 1j * rng.standard_normal(4)
                             for _ in range(2)])
        proj = make_projector(vecs)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.max(np.abs(proj.apply(psi) - proj.matrix @ psi)) < 1e-13

    def test_rejects_nonorthogonal_family(self):
        a = np.array([1.0, 0.0], dtype=np.complex128)
        b = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
        with pytest.raises(ValueError):
            make_projector([a, b])


class TestOperators:
    def test_pauli_algebra(self):
        assert np.max(np.abs(sigma_x() @ sigma_y() - 1j * sigma_z())) == 0.0
        for op in (sigma_x(), sigma_y(), sigma_z()):
            assert np.max(np.abs(op @ op - np.eye(2))) == 0.0

    def test_lowering_action(self):
        a = lowering_operator(4)
        e2 = np.zeros(4, dtype=np.complex128)
        e2[2] = 1.0
        out = a @ e2
        oracle = np.zeros(4, dtype=np.complex128)
        oracle[1] = np.sqrt(2.0)
        assert np.max(np.abs(out - oracle)) < 1e-15

    def test_canonical_commutator_below_truncation(self):
        dim = 8
        q = position_operator(dim)
        p = momentum_operator(dim)
        comm = q @ p - p @ q
        oracle = 1j * np.eye(dim)
        oracle[-1, -1] = 1j * (1 - dim)
        assert np.max(np.abs(comm - oracle)) < 1e-12

    def test_quadratures_hermitian(self):
        for op in (position_operator(5), momentum_operator(5)):
            assert np.max(np.abs(op - op.conj().T)) == 0.0
