"""Finite-dimensional complex Hilbert space primitives.

Everything downstream (rays, metric/symplectic structure, flows) is built on
the handful of operations here: validated state vectors and Hermitian
matrices, expectation values, commutator expectations, symmetrized
covariances, exact unitary evolution and Gram-Schmidt orthonormalization.
The real and imaginary parts of the overlap, the metric and symplectic
pairings, live in :mod:`projqm.kahler`.  Projectors have no matrix type:
:mod:`projqm.interference` applies a slit projector as its cell mask and a
rank-one projector ``|v><v|`` as ``v <v|psi>``.

States are plain 1-d complex128 numpy arrays; operators are square complex128
arrays.  Validation is done at API entry points rather than with wrapper
classes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_HERMITIAN_TOL",
    "LinearDependenceError",
    "as_state",
    "as_hermitian",
    "expectation",
    "variance",
    "commutator_expectation",
    "symmetrized_covariance",
    "evolve_exact",
    "gram_schmidt",
    "sigma_x",
    "sigma_y",
    "sigma_z",
    "lowering_operator",
    "position_operator",
    "momentum_operator",
]

#: Absolute tolerance on the anti-Hermitian drift ``max|A - A^dagger|`` below
#: which an operator is silently symmetrized to ``(A + A^dagger)/2``.
DEFAULT_HERMITIAN_TOL = 1e-12


class LinearDependenceError(ValueError):
    """Raised when a vector set is numerically linearly dependent.

    The ``index`` attribute identifies the first offending input vector.
    """

    def __init__(self, index: int, residual_norm: float):
        self.index = index
        self.residual_norm = residual_norm
        super().__init__(
            f"vector at index {index} is numerically dependent on its "
            f"predecessors (residual norm {residual_norm:.3e} < 1e-10)"
        )


def as_state(psi, *, name: str = "state") -> np.ndarray:
    """Coerce ``psi`` to a 1-d complex128 array and validate it.

    Raises
    ------
    ValueError
        If the input is not 1-d, is empty, or contains non-finite entries.
    """
    arr = np.asarray(psi, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_hermitian(op, *, tol: float = DEFAULT_HERMITIAN_TOL, name: str = "operator") -> np.ndarray:
    """Validate a square matrix as Hermitian, symmetrizing tiny drift.

    A drift ``max|A - A^dagger|`` below ``tol`` is repaired by averaging with
    the adjoint; anything larger is rejected, since it indicates a genuinely
    non-Hermitian input rather than floating-point noise.
    """
    arr = np.asarray(op, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    drift = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if drift > tol:
        raise ValueError(
            f"{name} is not Hermitian: max|A - A^dagger| = {drift:.3e} exceeds {tol:.1e}"
        )
    if drift > 0.0:
        arr = (arr + arr.conj().T) / 2.0
    return arr


def _operands(psi, **ops):
    """Validate Hermitian operators (named by keyword), then the state, then
    their dimensions, then the state's norm; return the operators, the
    state and its squared norm."""
    mats = [as_hermitian(op, name=name) for name, op in ops.items()]
    v = as_state(psi, name="psi")
    if any(m.shape[0] != v.shape[0] for m in mats):
        sizes = ", ".join(f"{name} {m.shape[0]}" for name, m in zip(ops, mats))
        raise ValueError(f"dimension mismatch: {sizes}, state {v.shape[0]}")
    nrm2 = float(np.vdot(v, v).real)
    if nrm2 <= 0.0:
        raise ValueError("state has zero norm")
    return (*mats, v, nrm2)


def expectation(op, psi) -> float:
    """Expectation value ``<psi|F|psi> / <psi|psi>`` of a Hermitian ``op``.

    Computed as ``Re<F psi|psi>`` so the result is real by construction; the
    normalization makes the value invariant under rescaling of ``psi``.
    """
    F, v, nrm2 = _operands(psi, op=op)
    return float(np.vdot(v, F @ v).real) / nrm2


def variance(op, psi) -> float:
    """Variance ``<F^2> - <F>^2``; a thin wrapper over the covariance."""
    return symmetrized_covariance(op, op, psi)


def commutator_expectation(op_f, op_g, psi) -> float:
    """Expectation ``<-i[F, G]>`` in the (normalized) state ``psi``.

    Uses the identity ``<-i[F,G]> = 2 Im <F psi|G psi>`` valid for Hermitian
    F, G, which is real by construction and exactly antisymmetric under
    swapping the operators.
    """
    F, G, v, nrm2 = _operands(psi, op_f=op_f, op_g=op_g)
    return 2.0 * float(np.vdot(F @ v, G @ v).imag) / nrm2


def symmetrized_covariance(op_f, op_m, psi) -> float:
    """Symmetrized covariance ``<FM + MF>/2 - <F><M>``.

    Computed as ``Re <F psi|M psi> - <F><M>`` (normalized), which is real by
    construction and symmetric in the two operators.
    """
    F, M, v, nrm2 = _operands(psi, op_f=op_f, op_m=op_m)
    fv = F @ v
    mv = M @ v
    cross = float(np.vdot(fv, mv).real) / nrm2
    f = float(np.vdot(v, fv).real) / nrm2
    m = float(np.vdot(v, mv).real) / nrm2
    return cross - f * m


def evolve_exact(hamiltonian, psi, t: float) -> np.ndarray:
    """Apply ``exp(-i H t)`` to ``psi`` via the eigendecomposition of ``H``.

    Parameters
    ----------
    hamiltonian : array_like
        Hermitian matrix generating the evolution.
    psi : array_like
        State vector to evolve.
    t : float
        Evolution parameter; ``t = 0`` returns the input unchanged (up to
        dtype coercion).

    Returns
    -------
    numpy.ndarray
        The evolved vector.  The norm is preserved to machine precision
        because the propagator is assembled from an orthonormal eigenbasis.
    """
    H = as_hermitian(hamiltonian, name="hamiltonian")
    v = as_state(psi, name="psi")
    if H.shape[0] != v.shape[0]:
        raise ValueError(f"dimension mismatch: hamiltonian {H.shape[0]}, state {v.shape[0]}")
    if t == 0.0:
        return v.copy()
    evals, vecs = np.linalg.eigh(H)
    phases = np.exp(-1j * evals * t)
    return vecs @ (phases * (vecs.conj().T @ v))


def gram_schmidt(vectors) -> list[np.ndarray]:
    """Orthonormalize a sequence of vectors (modified Gram-Schmidt).

    The first output is the normalized first input.  A vector whose residual
    after projecting out its predecessors drops below ``1e-10`` of its
    original norm is reported as dependent via :class:`LinearDependenceError`
    carrying the offending index.
    """
    vecs = [as_state(v, name=f"vectors[{i}]") for i, v in enumerate(vectors)]
    if not vecs:
        return []
    dim = vecs[0].shape[0]
    out: list[np.ndarray] = []
    for i, v in enumerate(vecs):
        if v.shape[0] != dim:
            raise ValueError(f"vectors[{i}] has dimension {v.shape[0]}, expected {dim}")
        scale = float(np.linalg.norm(v))
        if scale == 0.0:
            raise LinearDependenceError(i, 0.0)
        w = v.copy()
        for u in out + out:  # a second pass, for numerical robustness
            w -= np.vdot(u, w) * u
        residual = float(np.linalg.norm(w))
        if residual < 1e-10 * scale:
            raise LinearDependenceError(i, residual / scale)
        out.append(w / residual)
    return out


# ---------------------------------------------------------------------------
# Standard operator constructors used throughout the tests and demos.

def sigma_x() -> np.ndarray:
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def sigma_y() -> np.ndarray:
    return np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)


def sigma_z() -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def lowering_operator(dim: int) -> np.ndarray:
    """Truncated harmonic-oscillator lowering operator ``a`` on ``dim`` levels."""
    if dim < 2:
        raise ValueError("need at least two levels")
    a = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(1, dim):
        a[k - 1, k] = np.sqrt(k)
    return a


def position_operator(dim: int) -> np.ndarray:
    """Truncated position quadrature ``q = (a + a^dagger)/sqrt(2)``."""
    a = lowering_operator(dim)
    return (a + a.conj().T) / np.sqrt(2.0)


def momentum_operator(dim: int) -> np.ndarray:
    """Truncated momentum quadrature ``p = -i(a - a^dagger)/sqrt(2)``.

    On the truncated space ``-i[q, p] = I - dim * |top><top|``: the canonical
    commutator holds exactly on states with no support on the top level.
    """
    a = lowering_operator(dim)
    return -1j * (a - a.conj().T) / np.sqrt(2.0)
