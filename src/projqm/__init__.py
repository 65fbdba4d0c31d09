"""projqm: quantum states as points of a projective Kahler geometry.

The package turns the usual Hilbert-space ingredients - states, Hermitian
operators, Schrodinger evolution - into geometry on the manifold of rays:
a Riemannian metric whose geodesic distance measures transition
probability, a symplectic form whose brackets reproduce commutator
expectations, superposition spheres that are totally geodesic, and a
two-slit demo where interference is the cross term of projector
amplitudes.

Modules
-------
hilbert
    States, Hermitian operators, expectations and covariances, exact
    evolution, projectors.
projective
    Gauge-fixed rays, ray distance and transition probability, spanned
    spheres, superposition coordinates, sphere areas.
kahler
    Horizontal tangent vectors, metric/symplectic evaluation at either
    normalization, Poisson brackets, flow transport, uncertainty audits.
dynamics
    RK4 integration of the projective Schrodinger flow with drift checks,
    comparison against exact evolution, Ehrenfest residuals.
geodesics
    Chart metric, closed-form Kaehler connection, fixed-step DOP853
    geodesic integration with re-charting, Lie derivatives of the induced metric
    along a sphere's normals, shooting certificates of total geodesy.
interference
    Slit walls as projector sums, Fresnel propagation, fringe metrology,
    commuting-projector checks.
cli / report
    Deterministic verification commands and their JSON/CSV artifacts.
"""

__version__ = "0.1.0"

from .hilbert import (
    LinearDependenceError,
    Projector,
    as_hermitian,
    as_state,
    commutator_expectation,
    evolve_exact,
    expectation,
    gram_schmidt,
    lowering_operator,
    make_projector,
    momentum_operator,
    position_operator,
    sigma_x,
    sigma_y,
    sigma_z,
    symmetrized_covariance,
    variance,
)
from .projective import (
    Ray,
    RiemannCoordinate,
    SpannedSphere,
    fs_distance,
    nonlinear_superpose,
    project,
    rays_close,
    riemann_coordinate,
    sphere_area,
    sphere_membership,
    transition_probability,
)
from .kahler import (
    KahlerScale,
    TangentVector,
    UncertaintyAudit,
    commutator_closure_residual,
    derive_observable_scale_factor,
    flow_transport,
    hamiltonian_vector_field,
    horizontal_project,
    killing_residual,
    metric_eval,
    poisson_bracket,
    random_horizontal,
    riemannian_product,
    symplectic_eval,
    uncertainty_audit,
)
from .dynamics import (
    Trajectory,
    ehrenfest_residual,
    flow_integrate,
    flow_vs_exact_deviation,
    trajectory_rows,
)
from .geodesics import (
    ChartPoint,
    GeodesicPath,
    TotalGeodesyCertificate,
    chart_to_ray,
    integrate_geodesic,
    integrated_pair_distances,
    lie_derivative_normal,
    ray_to_chart,
    total_geodesy_certificate,
)
from .interference import (
    InterferencePattern,
    SlitWall,
    TwoSlitConfig,
    build_wall,
    fringe_spacing,
    gaussian_input,
    noncommuting_control,
    pattern_rows,
    phase_invariance_check,
    plane_wave_input,
    projector_poisson_check,
    propagate_to_screen,
    slit_states,
)
from .report import Report, ReportEntry, digest_inputs, write_csv

__all__ = [name for name in dir() if not name.startswith("_")]
