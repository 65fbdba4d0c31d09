"""Two-slit interference: wall projectors, screen amplitudes, fringe checks.

The wall is a one-dimensional transverse grid; each slit is a top-hat
projector onto the grid cells it covers, so distinct slits are orthogonal
projectors and the wall acts as their sum.  An incoming wall-plane state is
split into per-slit components ``P_i psi`` (:meth:`SlitWall.apply_slit`,
the one place a slit projector is applied), each propagated to the screen
with the paraxial (Fresnel) quadrature

    phi_i(x) = dy / sqrt(i lam L) * sum_y exp(i pi (x - y)^2 / (lam L)) (P_i psi)(y).

Every ``P_i psi`` vanishes off slit ``i``, so the sum runs over the span of
cells from the first slit cell to the last.  On the two uniform grids the
kernel is a chirp: it factors into row phases, a Toeplitz chirp in the
index difference and column phases, so the quadrature is a Bluestein
chirp-z transform - one FFT convolution per state, ``O((n + m) log(n + m))``
time and ``O(n + m)`` memory for ``n`` screen points and ``m`` span cells,
where the ``n x m`` kernel itself is never formed (at 65,536 screen points
and 4,588 slit cells it would take 4.8 GB).

Because propagation is linear, the screen amplitude of the wall-projected
state equals the coherent sum of the per-slit amplitudes; the module
computes both routes and checks their agreement, then reports the
intensity decomposition ``|sum phi_i|^2 = sum |phi_i|^2 + 2 * cross`` with
``cross = sum_{i<j} Re(phi_i conj(phi_j))`` - the interference term that
survives in no single-slit run.

The propagator is a modeling choice (the projector algebra is independent
of it): the checks that the slit projectors commute - vanishing bracket at
every state - and that a projector mixing the slits does not are pure
ray-space statements with no propagation involved.  They run on the
pattern's own wall, each projector applied to the state, never formed: O(n).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .kahler import KahlerScale, _hamiltonian_lift, symplectic_eval
# unused; perfbench's test_tracer_wraps_every_namespace_and_restores_them needs it bound
from .kahler import poisson_bracket  # noqa: F401
from .projective import Ray

__all__ = [
    "TwoSlitConfig",
    "SlitWall",
    "InterferencePattern",
    "build_wall",
    "plane_wave_input",
    "gaussian_input",
    "slit_states",
    "propagate_to_screen",
    "fringe_spacing",
    "phase_invariance_check",
    "projector_poisson_check",
    "noncommuting_control",
    "pattern_rows",
]


@dataclass(frozen=True, eq=False)
class SlitWall:
    """Uniform wall grid with disjoint slit supports (half-open index ranges)."""

    grid: np.ndarray
    dy: float
    slit_supports: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "slit_supports",
                           tuple((int(a), int(b)) for a, b in self.slit_supports))
        if not self.slit_supports:
            raise ValueError("need at least one slit")
        seen = np.zeros(self.grid.size, dtype=bool)
        for k, (a, b) in enumerate(self.slit_supports):
            if not 0 <= a < b <= self.grid.size:
                raise ValueError(f"slit {k} support [{a}, {b}) outside the grid")
            if np.any(seen[a:b]):
                raise ValueError(f"slit {k} overlaps an earlier slit")
            seen[a:b] = True

    @property
    def dim(self) -> int:
        return self.grid.size

    @property
    def n_slits(self) -> int:
        return len(self.slit_supports)

    def apply_slit(self, i: int, psi: np.ndarray) -> np.ndarray:
        """``P_i psi`` without materializing the projector matrix."""
        out = np.zeros(self.dim, dtype=np.complex128)
        a, b = self.slit_supports[i]
        out[a:b] = psi[a:b]
        return out


def build_wall(grid_spec, slit_centers, slit_width: float) -> SlitWall:
    """Discretize the wall and mark top-hat slits.

    Parameters
    ----------
    grid_spec : (halfwidth, n)
        Halfwidth and cell count of a uniform grid of cell centers.
    slit_centers : sequence of float
        One center per slit.
    slit_width : float
        Full width; a cell belongs to a slit when its center lies within
        half a width of the slit center.

    Raises
    ------
    ValueError
        For overlapping slits (their projectors would not be orthogonal),
        slits outside the grid, or a grid too coarse to give every slit at
        least one cell.
    """
    if slit_width <= 0.0:
        raise ValueError("slit_width must be positive")
    halfwidth, n = grid_spec
    if halfwidth <= 0.0 or int(n) < 8:
        raise ValueError("grid needs positive halfwidth and at least 8 cells")
    n = int(n)
    dy = 2.0 * halfwidth / n
    y = -halfwidth + dy * (np.arange(n) + 0.5)
    supports = []
    for k, c in enumerate(slit_centers):
        inside = np.abs(y - float(c)) <= slit_width / 2.0
        idx = np.flatnonzero(inside)
        if idx.size == 0:
            raise ValueError(f"slit {k} covers no grid cell; refine the grid")
        supports.append((int(idx[0]), int(idx[-1]) + 1))
    return SlitWall(grid=y, dy=dy, slit_supports=tuple(supports))


def plane_wave_input(wall: SlitWall) -> np.ndarray:
    """Unit-norm uniform amplitude across the whole wall grid."""
    return np.full(wall.dim, 1.0 / math.sqrt(wall.dim), dtype=np.complex128)


def gaussian_input(wall: SlitWall, waist: float) -> np.ndarray:
    """Unit-norm Gaussian beam ``exp(-y^2 / waist^2)`` on the grid.

    ``ValueError`` names a waist that is not positive, whose square over- or
    underflows, or that samples to zero on every cell (one far narrower than
    the cells)."""
    try:
        w2 = waist**2
    except OverflowError:
        w2 = math.inf
    if not (waist > 0.0 and 0.0 < w2 < math.inf):
        raise ValueError(f"waist must be positive with a finite nonzero square, got {waist!r}")
    with np.errstate(over="ignore"):  # cells far outside a tiny waist: exp(-inf) = 0
        psi = np.exp(-(wall.grid**2) / w2).astype(np.complex128)
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ValueError(f"waist {waist!r} samples to zero on every wall cell "
                         f"(cell width {wall.dy:.3g}); widen it")
    return psi / norm


def slit_states(wall: SlitWall) -> list[np.ndarray]:
    """Unit-norm top-hat state for each slit (pairwise orthogonal)."""
    ones = np.ones(wall.dim, dtype=np.complex128)
    states = [wall.apply_slit(i, ones) for i in range(wall.n_slits)]
    return [psi / np.linalg.norm(psi) for psi in states]


@dataclass(frozen=True, eq=False)
class InterferencePattern:
    """Screen-side decomposition of one propagation run.

    ``per_slit_amplitudes[i]`` is the screen amplitude of ``P_i psi``; their
    coherent sum is the full pattern.  ``decomposition_residual`` is the
    measured gap between propagating the wall-projected state in one piece
    and summing the per-slit propagations - a linearity identity, so it
    sits at rounding level.  :func:`propagate_to_screen`, the one builder of
    patterns, also keeps the read-only rows it propagated (``_segments``:
    row ``i`` is ``P_i psi`` on the slit span) and its chirp-z operator
    (``_operator``), so that :func:`phase_invariance_check` propagates the
    rephased rows without building the operator again.
    """

    screen_positions: np.ndarray
    dx: float
    per_slit_amplitudes: tuple[np.ndarray, ...]
    wavelength: float
    distance: float
    paraxial_ok: bool
    decomposition_residual: float
    _segments: np.ndarray = field(repr=False)
    _operator: _ChirpZ = field(repr=False)

    @property
    def n_slits(self) -> int:
        return len(self.per_slit_amplitudes)

    @property
    def total_amplitude(self) -> np.ndarray:
        return np.sum(self.per_slit_amplitudes, axis=0)

    @property
    def total_intensity(self) -> np.ndarray:
        return np.abs(self.total_amplitude) ** 2

    @property
    def slit_intensities(self) -> list[np.ndarray]:
        return [np.abs(a) ** 2 for a in self.per_slit_amplitudes]

    @property
    def cross_term(self) -> np.ndarray:
        """Sum over slit pairs of Re(phi_i conj(phi_j)); doubles into the
        intensity: total = sum |phi_i|^2 + 2 * cross."""
        cross = np.zeros(self.screen_positions.size)
        for a, b in itertools.combinations(self.per_slit_amplitudes, 2):
            cross += (a * np.conj(b)).real
        return cross

    @property
    def incoherent_intensity(self) -> np.ndarray:
        """Classical sum of single-slit intensities (cross term removed)."""
        return np.sum(self.slit_intensities, axis=0)

    def intensity_identity_residual(self) -> float:
        """Max |total - (incoherent + 2 cross)|; rounding-level identity."""
        total = self.total_intensity
        return float(np.max(np.abs(
            total - (self.incoherent_intensity + 2.0 * self.cross_term)
        )))

    @property
    def total_screen_probability(self) -> float:
        """Squared norm collected by the (finite) screen: at most the norm
        the wall passed, which is itself at most one."""
        return float(np.sum(self.total_intensity))


#: Largest disagreement, relative to the peak amplitude floored at 1, between
#: the one-piece and the per-slit propagation of a wall-projected state.
_LINEARITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class _ChirpZ:
    """The Fresnel quadrature from the slit span of a wall to a uniform
    screen, as one Bluestein chirp-z convolution (Rabiner, Schafer & Rader
    1969).

    With ``u_k = x_k - y_lo`` for screen point ``k`` (step ``a``), ``j`` the
    wall cell index counted from ``lo`` (step ``b = dy``) and
    ``c = pi / (lam L)``, the kernel phase splits exactly as

        c (x_k - y_j)^2 = c (u_k^2 - a b k^2) + c a b (k - j)^2
                          + c (j^2 b (b - a) - 2 u_0 j b),

    a row phase, a Toeplitz chirp and a column phase.  The row phase is
    formed from ``u_k^2`` itself, not from its expansion in ``k``, so that
    its large terms do not cancel.  Applying the kernel is then
    ``row * ifft(fft(col * v, size) * chirp_ft)[:n]`` for ``n`` screen
    points and a span of ``m`` cells, with ``size`` the power of two at or
    above ``n + m - 1``: ``O((n + m) log(n + m))`` time and ``O(n + m)``
    memory, where the kernel itself has ``n * m`` entries.
    """

    lo: int
    hi: int
    #: Row phases times the prefactor ``sqrt(dy dx / (i lam L))``.
    row: np.ndarray
    col: np.ndarray
    #: FFT of the chirp ``exp(i c a b d^2)``, ``d = -(m - 1) .. n - 1``,
    #: wrapped to the transform length.
    chirp_ft: np.ndarray

    @classmethod
    def build(cls, wall: SlitWall, x: np.ndarray, step: float, dx: float,
              lamL: float) -> _ChirpZ:
        """Operator for the screen ``x`` (uniform with ``step``) and the span of
        cells from the first slit cell of ``wall`` to its last."""
        from numpy.fft import fft

        lo = min(a for a, _ in wall.slit_supports)
        hi = max(b for _, b in wall.slit_supports)
        n, m = x.size, hi - lo
        c, a, b = math.pi / lamL, step, wall.dy
        k = np.arange(n, dtype=np.float64)
        j = np.arange(m, dtype=np.float64)
        u = x - wall.grid[lo]
        # sqrt(dy dx / (i lam L)) maps unit-norm grid states to (sub-)unit-norm
        # screen states: the continuum Fresnel kernel is unitary on L^2, and
        # sqrt(dx dy) converts both sides between L^2 samples and plain
        # square-summable vectors.
        pref = np.sqrt(b * dx / (1j * lamL))
        row = pref * np.exp(1j * c * (u**2 - (a * b) * k**2))
        col = np.exp(1j * c * (j**2 * (b * (b - a)) - (2.0 * u[0] * b) * j))
        d = np.arange(1 - m, n)
        chirp = np.zeros(1 << (n + m - 2).bit_length(), dtype=np.complex128)
        chirp[d] = np.exp(1j * (c * a * b) * d**2)
        return cls(lo=lo, hi=hi, row=row, col=col, chirp_ft=fft(chirp))

    def __call__(self, segments: np.ndarray) -> np.ndarray:
        """Screen amplitudes of wall states given on the span, one per row."""
        from numpy.fft import fft, ifft

        spec = fft(self.col * segments, self.chirp_ft.size)
        return self.row * ifft(spec * self.chirp_ft)[..., :self.row.size]


def propagate_to_screen(wall: SlitWall, psi_in, wavelength: float, distance: float,
                        screen_halfwidth: float, n_screen: int) -> InterferencePattern:
    """Project an input state through the wall and Fresnel-propagate it.

    Every ``P_i psi`` vanishes off slit ``i``, so the quadrature runs over
    the span of cells from the first slit cell to the last, as one chirp-z
    operator (:class:`_ChirpZ`) built once per call.  Each slit's component,
    ``apply_slit(i, psi)`` cut to the span, is built once as a read-only row
    the pattern keeps, and propagated on its own, in one batched transform;
    the wall-projected state, the sum of those rows, is also propagated in
    one piece, and the two routes must agree within ``_LINEARITY_TOL``
    (times the peak amplitude, floored at 1), or ``RuntimeError`` is raised.

    ``paraxial_ok`` on the result flags whether the geometry is comfortably
    paraxial (propagation distance at least ten times the transverse
    extent); the kernel is still applied when it is not, but the far-field
    fringe oracle should not be trusted there.
    """
    if not (wavelength > 0.0 and distance > 0.0):
        raise ValueError("wavelength and distance must be positive")
    if n_screen < 8 or screen_halfwidth <= 0.0:
        raise ValueError("screen needs positive halfwidth and at least 8 points")
    psi = np.asarray(psi_in, dtype=np.complex128)
    if psi.shape != (wall.dim,):
        raise ValueError(f"input state must have shape ({wall.dim},), got {psi.shape}")

    x, step = np.linspace(-screen_halfwidth, screen_halfwidth, n_screen, retstep=True)
    dx = float(x[1] - x[0])
    operator = _ChirpZ.build(wall, x, step, dx, wavelength * distance)
    segments = np.array([wall.apply_slit(i, psi)[operator.lo:operator.hi]
                         for i in range(wall.n_slits)])
    segments.setflags(write=False)
    amps = tuple(operator(segments))
    one_piece = operator(segments.sum(axis=0))
    coherent = np.sum(amps, axis=0)
    scale = max(float(np.max(np.abs(one_piece))), 1.0)
    residual = float(np.max(np.abs(one_piece - coherent)))
    if residual > _LINEARITY_TOL * scale:
        raise RuntimeError(
            f"decomposition identity violated: residual {residual:.3e} exceeds "
            f"{_LINEARITY_TOL:.1e} x {scale:.3e}"
        )
    extent = float(np.max(np.abs(wall.grid))) + screen_halfwidth
    return InterferencePattern(
        screen_positions=x,
        dx=dx,
        per_slit_amplitudes=amps,
        wavelength=wavelength,
        distance=distance,
        paraxial_ok=bool(distance >= 10.0 * extent),
        decomposition_residual=residual,
        _segments=segments,
        _operator=operator,
    )


def fringe_spacing(pattern: InterferencePattern) -> float:
    """Distance between adjacent maxima of the cross term.

    The period is estimated as twice the mean gap between consecutive zero
    crossings of the cross term inside a central window (65% of the
    screen).  Crossing positions are envelope-immune - the cross term is a
    positive envelope times an oscillation there, so its zeros are zeros of
    the oscillation alone - whereas the maxima themselves are dragged by
    the envelope slope at the percent level; averaging over a symmetric
    window also cancels the odd part of the residual phase distortion.
    """
    x = pattern.screen_positions
    sel = np.abs(x) <= 0.65 * float(np.max(np.abs(x)))
    xs = x[sel]
    c = pattern.cross_term[sel]
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        raise ValueError("cross term vanishes (single slit?); no fringes to measure")
    change = np.where(np.diff(np.signbit(c)))[0]
    if change.size < 4:
        raise ValueError("fewer than four cross-term zeros in the window; "
                         "widen the screen")
    x0, x1 = xs[change], xs[change + 1]
    c0, c1 = c[change], c[change + 1]
    crossings = x0 - c0 * (x1 - x0) / (c1 - c0)
    return 2.0 * float(np.mean(np.diff(crossings)))


def phase_invariance_check(pattern: InterferencePattern, lambda_phase: float) -> float:
    """Max intensity change under a global phase on the input state.

    The per-slit segments ``pattern`` keeps are rotated and propagated with
    its chirp-z operator, so the operator is built once for both.  The
    pattern is a ray-space functional of the input, so the result is zero
    up to rounding for every phase.
    """
    rot = pattern._operator(np.exp(1j * lambda_phase) * pattern._segments)
    return float(np.max(np.abs(np.abs(np.sum(rot, axis=0)) ** 2 - pattern.total_intensity)))


def projector_poisson_check(wall: SlitWall, at: Ray) -> float:
    """Max |bracket| over distinct slit-projector pairs at a state.

    The slit projectors commute (disjoint supports), so every bracket
    vanishes identically - the ray-space image of compatible alternatives.
    Each Hamiltonian field is lifted from ``P_i rep`` (:meth:`SlitWall.apply_slit`),
    so each field and each pairing costs ``O(n)`` on a wall of ``n`` cells.
    """
    if at.dim != wall.dim:
        raise ValueError(f"ray dimension {at.dim} does not match wall {wall.dim}")
    fields = [_hamiltonian_lift(wall.apply_slit(i, at.rep), at)
              for i in range(wall.n_slits)]
    return max((abs(symplectic_eval(KahlerScale.OBSERVABLE, x, y))
                for x, y in itertools.combinations(fields, 2)), default=0.0)


def noncommuting_control(wall: SlitWall, at: Ray) -> float:
    """|bracket| of slit 1 against a rank-one projector mixing slits 1 and 2.

    The negative control for :func:`projector_poisson_check`: the mixing
    projector ``|v><v|``, ``v = (s_1 + i s_2) / sqrt(2)``, applied as
    ``v <v|rep>``, fails to commute with either slit projector, so a
    vanishing result here would indicate a broken bracket, not commuting
    operators.
    """
    if wall.n_slits < 2:
        raise ValueError("need two slits for the mixing control")
    if at.dim != wall.dim:
        raise ValueError(f"ray dimension {at.dim} does not match wall {wall.dim}")
    s = slit_states(wall)
    v = (s[0] + 1j * s[1]) / math.sqrt(2.0)
    slit = _hamiltonian_lift(wall.apply_slit(0, at.rep), at)
    mixing = _hamiltonian_lift(v * np.vdot(v, at.rep), at)
    return abs(symplectic_eval(KahlerScale.OBSERVABLE, slit, mixing))


def pattern_rows(pattern: InterferencePattern) -> tuple[list[str], np.ndarray]:
    """Flatten a pattern to a CSV-ready header and one (n_screen, columns) array.

    Columns: x, intensity_total, one intensity per slit, cross_term.
    """
    header = ["x", "intensity_total"]
    header += [f"intensity_slit_{i + 1}" for i in range(pattern.n_slits)]
    header += ["cross_term"]
    rows = np.column_stack((pattern.screen_positions, pattern.total_intensity,
                            *pattern.slit_intensities, pattern.cross_term))
    return header, rows


@dataclass(frozen=True)
class TwoSlitConfig:
    """Bundled desk-scale two-slit geometry (SI units) with grid sizes.

    The defaults give the classic fringe spacing
    ``wavelength * distance / separation = 5e-3``.
    """

    wavelength: float = 5e-7
    distance: float = 1.0
    slit_centers: tuple[float, ...] = (-5e-5, +5e-5)
    slit_width: float = 2e-5
    wall_halfwidth: float = 2e-4
    n_wall: int = 2048
    screen_halfwidth: float = 2.5e-2
    n_screen: int = 2048
    input_profile: str = "plane"
    waist: float = 5e-5

    def __post_init__(self):
        if self.input_profile not in ("plane", "gaussian"):
            raise ValueError(
                f"input_profile must be 'plane' or 'gaussian', got {self.input_profile!r}"
            )
        if not self.slit_centers:
            raise ValueError("need at least one slit center")

    @property
    def expected_fringe_spacing(self) -> float:
        """Far-field two-slit spacing wavelength * distance / separation."""
        if len(self.slit_centers) != 2:
            raise ValueError("fringe-spacing oracle applies to exactly two slits")
        d = abs(self.slit_centers[1] - self.slit_centers[0])
        return self.wavelength * self.distance / d

    def make_wall(self) -> SlitWall:
        return build_wall((self.wall_halfwidth, self.n_wall),
                          self.slit_centers, self.slit_width)

    def make_input(self, wall: SlitWall) -> np.ndarray:
        if self.input_profile == "gaussian":
            return gaussian_input(wall, self.waist)
        return plane_wave_input(wall)

    def run(self) -> InterferencePattern:
        wall = self.make_wall()
        return propagate_to_screen(wall, self.make_input(wall), self.wavelength,
                                   self.distance, self.screen_halfwidth,
                                   self.n_screen)
