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
    evolution, Gram-Schmidt, standard operators.
projective
    Gauge-fixed rays, ray distance and transition probability, spanned
    spheres, superposition coordinates, sphere areas.
kahler
    Horizontal tangent vectors, metric/symplectic evaluation at either
    normalization, Poisson brackets, flow transport, uncertainty audits.
dynamics
    RK4 integration of the projective Schrodinger flow with drift checks,
    comparison against exact evolution, exact expectation rates.
geodesics
    Chart metric, closed-form Kaehler connection, fixed-step DOP853
    geodesics with re-charting, each launched from a ray along a Hilbert-space
    direction by one function, Lie derivatives of the induced metric along a
    sphere's normals, shooting certificates of total geodesy.
interference
    Slit walls with one index range per slit projector, Fresnel propagation
    of per-slit segments, fringe metrology, commuting-projector checks.
cli / report
    Deterministic verification commands and their JSON/CSV artifacts.
"""

__version__ = "0.1.0"

from .hilbert import *
from .projective import *
from .kahler import *
from .dynamics import *
from .geodesics import *
from .interference import *
from .report import *

__all__ = [name for name in dir() if not name.startswith("_")]
