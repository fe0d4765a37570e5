"""Dense Lindblad master-equation engine for small Hilbert spaces.

All internal frequencies are angular (rad/ns) and all times are ns;
public modules convert from ordinary GHz exactly once at their boundary.
Density matrices are plain complex numpy arrays.  Generators are held
both as (hamiltonian, jumps) and as the vectorized superoperator matrix
acting on row-major ``vec(rho)``; the matrix backs time evolution, the
steady-state solve and two-time correlators.

Time evolution is classical fixed-step 4th-order Runge-Kutta.  For a
time-independent generator the RK4 update is linear in the state, so one
internal step is a single matrix-vector product with the precomputed
one-step propagator.  Every evolution is verified by re-running at half
the internal step; the step is refined until consecutive trajectories
agree below ``STEP_HALVING_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ModelError, NumericFailure

# Density-matrix validity tolerances.
TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = 1e-9
# Hermiticity drift allowed along a trajectory.
TRAJECTORY_HERMITICITY_TOL = 1e-10
# Agreement required between an integration and its half-step rerun.
STEP_HALVING_TOL = 1e-8
STEADY_STATE_RESIDUAL_TOL = 1e-10

_MAX_STEP_REFINEMENTS = 8
# Internal step = characteristic generator period / this divisor.
_STEPS_PER_PERIOD = 200


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: ``n_points`` samples on [t_start, t_end] ns."""

    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise ModelError(f"TimeGrid needs n_points >= 2, got {self.n_points}")
        if not self.t_end > self.t_start:
            raise ModelError(
                f"TimeGrid needs t_end > t_start, got [{self.t_start}, {self.t_end}]"
            )

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n_points - 1)

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_points)


@dataclass
class TimeTrace:
    """Real sampled time series with metadata annotations."""

    grid: TimeGrid
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_points,):
            raise ModelError(
                f"trace length {self.values.shape} does not match grid "
                f"n_points {self.grid.n_points}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ModelError("trace contains non-finite values")


@dataclass
class Curve:
    """Real y(x) scan (detuning scans, visibility curves, power scans)."""

    x: np.ndarray
    y: np.ndarray
    xlabel: str = "x"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.y.shape:
            raise ModelError("curve x and y lengths differ")


def check_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Validate trace, Hermiticity and positivity; return as complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ModelError(f"{name} must be a square matrix, got shape {rho.shape}")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise ModelError(f"{name} trace {np.trace(rho)} differs from 1 beyond {TRACE_TOL}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ModelError(f"{name} is not Hermitian within {HERMITICITY_TOL}")
    if np.min(np.linalg.eigvalsh(rho)) < -EIGENVALUE_TOL:
        raise ModelError(f"{name} has an eigenvalue below -{EIGENVALUE_TOL}")
    return rho


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """Superoperator of -i[h, .] in row-major vectorization."""
    eye = np.eye(h.shape[0])
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def dissipator_superop(jumps: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Superoperator of sum_k L rho L+ - (1/2){L+L, rho}."""
    eye = np.eye(dim)
    m = np.zeros((dim * dim, dim * dim), dtype=complex)
    for op in jumps:
        ldl = op.conj().T @ op
        m += np.kron(op, op.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return m


@dataclass
class Liouvillian:
    """Lindblad generator; build via :func:`build_liouvillian`.

    ``matrix`` is the vectorized superoperator (dim^2 x dim^2), with decay
    rates already absorbed into the jump-operator normalization.
    """

    hamiltonian: np.ndarray
    jumps: list
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    _spectral_radius: float | None = field(default=None, repr=False)

    def spectral_radius(self) -> float:
        if self._spectral_radius is None:
            self._spectral_radius = float(np.max(np.abs(np.linalg.eigvals(self.matrix))))
        return self._spectral_radius

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """One application of the generator to a matrix."""
        d = self.dim
        return (self.matrix @ np.asarray(rho, dtype=complex).reshape(-1)).reshape(d, d)


def build_liouvillian(h: np.ndarray, jumps: Sequence[np.ndarray]) -> Liouvillian:
    """Validate operators and assemble the generator.

    Parameters
    ----------
    h : ndarray
        Hamiltonian in rad/ns (rotating frame); must be Hermitian within
        ``HERMITICITY_TOL``.
    jumps : sequence of ndarray
        Jump operators with rates absorbed (units 1/sqrt(ns)).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ModelError(f"hamiltonian must be square, got shape {h.shape}")
    if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
        raise ModelError(f"hamiltonian is not Hermitian within {HERMITICITY_TOL}")
    dim = h.shape[0]
    jump_arrays = []
    for k, op in enumerate(jumps):
        op = np.asarray(op, dtype=complex)
        if op.shape != (dim, dim):
            raise ModelError(
                f"jump operator {k} has shape {op.shape}, expected {(dim, dim)}"
            )
        jump_arrays.append(op)
    matrix = hamiltonian_superop(h) + dissipator_superop(jump_arrays, dim)
    return Liouvillian(hamiltonian=h, jumps=jump_arrays, matrix=matrix)


def _default_dt_int(l: Liouvillian, grid: TimeGrid) -> float:
    rate = l.spectral_radius()
    if rate <= 0.0:
        return grid.t_end - grid.t_start
    return (2.0 * math.pi / rate) / _STEPS_PER_PERIOD


def _rk4_propagator(matrix: np.ndarray, h: float) -> np.ndarray:
    """One-step RK4 map for the autonomous linear system v' = M v."""
    a = h * matrix
    eye = np.eye(matrix.shape[0], dtype=complex)
    return eye + a + (a @ a) / 2.0 + (a @ a @ a) / 6.0 + (a @ a @ a @ a) / 24.0


def _run_static(matrix: np.ndarray, v0: np.ndarray, grid: TimeGrid, n_sub: int) -> np.ndarray:
    step = _rk4_propagator(matrix, grid.dt / n_sub)
    per_sample = np.linalg.matrix_power(step, n_sub)
    out = np.empty((grid.n_points, v0.size), dtype=complex)
    out[0] = v0
    v = v0
    for i in range(1, grid.n_points):
        v = per_sample @ v
        out[i] = v
    return out


def _propagate_static(
    l: Liouvillian, v0: np.ndarray, grid: TimeGrid, dt_int: float | None, verify: bool
) -> np.ndarray:
    if dt_int is None:
        dt_int = _default_dt_int(l, grid)
    if dt_int <= 0:
        raise NumericFailure(f"internal step underflow: dt_int={dt_int}")
    n_sub = max(1, math.ceil(grid.dt / dt_int))
    prev = _run_static(l.matrix, v0, grid, n_sub)
    if not verify:
        if not np.all(np.isfinite(prev)):
            raise NumericFailure("non-finite values during evolution")
        return prev
    for _ in range(_MAX_STEP_REFINEMENTS):
        n_sub *= 2
        cur = _run_static(l.matrix, v0, grid, n_sub)
        if not np.all(np.isfinite(cur)):
            raise NumericFailure("non-finite values during evolution")
        if np.max(np.abs(cur - prev)) < STEP_HALVING_TOL:
            return cur
        prev = cur
    raise NumericFailure(
        "step-halving verification did not converge below "
        f"{STEP_HALVING_TOL} after {_MAX_STEP_REFINEMENTS} refinements"
    )


def _check_trajectory(rhos: np.ndarray):
    if not np.all(np.isfinite(rhos.view(float))):
        raise NumericFailure("non-finite values in evolved trajectory")
    traces = np.trace(rhos, axis1=1, axis2=2)
    if np.max(np.abs(traces - 1.0)) > TRACE_TOL:
        raise NumericFailure(
            f"trace drift {np.max(np.abs(traces - 1.0)):.3e} exceeds {TRACE_TOL}"
        )
    herm = np.max(np.abs(rhos - np.conj(np.swapaxes(rhos, 1, 2))))
    if herm > TRAJECTORY_HERMITICITY_TOL:
        raise NumericFailure(
            f"Hermiticity drift {herm:.3e} exceeds {TRAJECTORY_HERMITICITY_TOL}"
        )
    eigmin = np.min(np.linalg.eigvalsh(rhos))
    if eigmin < -EIGENVALUE_TOL:
        raise NumericFailure(
            f"negative eigenvalue {eigmin:.3e} beyond -{EIGENVALUE_TOL}"
        )


def evolve(
    l: Liouvillian,
    rho0: np.ndarray,
    grid: TimeGrid,
    dt_int: float | None = None,
    verify: bool = True,
) -> np.ndarray:
    """Evolve ``rho0`` under the generator, sampling on ``grid``.

    Returns an array of shape (n_points, dim, dim).  Trace, Hermiticity
    and positivity are checked at every sample and raise
    :class:`NumericFailure` if violated; they are never silently fixed.

    ``dt_int`` is the internal RK4 step (default: characteristic generator
    period / 200).  With ``verify=True`` (default) the integration is
    repeated at half the step until samples agree below
    ``STEP_HALVING_TOL``; ``verify=False`` exposes the raw fixed-step
    integrator, mainly for convergence studies.
    """
    rho0 = check_density_matrix(rho0, "rho0")
    if rho0.shape[0] != l.dim:
        raise ModelError(f"rho0 dim {rho0.shape[0]} != generator dim {l.dim}")
    traj = _propagate_static(l, rho0.reshape(-1), grid, dt_int, verify)
    rhos = traj.reshape(grid.n_points, l.dim, l.dim)
    _check_trajectory(rhos)
    return rhos


# -- time-dependent drive ---------------------------------------------------

# A drive segment: (t0, t1, amplitude); amplitude is a float for constant
# drive (fast path: one matrix-vector product per internal step) or a
# callable t -> float for shaped pulses.  Gaps between segments mean
# amplitude 0.  Segment edges never fall inside an integration sub-step, so
# discontinuous (square) envelopes keep full RK4 accuracy.
Segment = tuple[float, float, "float | Callable[[float], float]"]


def _rk4_span_callable(m0, c, amp, v, t0, t1, n_steps):
    h = (t1 - t0) / n_steps
    t = t0
    for _ in range(n_steps):
        m_a = m0 + amp(t) * c
        m_b = m0 + amp(t + 0.5 * h) * c
        m_c = m0 + amp(t + h) * c
        k1 = m_a @ v
        k2 = m_b @ (v + 0.5 * h * k1)
        k3 = m_b @ (v + 0.5 * h * k2)
        k4 = m_c @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return v


class _DrivenIntegrator:
    """Piecewise integration of v' = (M0 + a(t) C) v with propagator caching."""

    def __init__(self, m0: np.ndarray, coupling_superop: np.ndarray):
        self.m0 = m0
        self.c = coupling_superop
        self._cache: dict = {}

    def advance(self, v, t0, t1, amp, n_steps):
        if callable(amp):
            return _rk4_span_callable(self.m0, self.c, amp, v, t0, t1, n_steps)
        key = (amp, (t1 - t0) / n_steps, n_steps)
        q = self._cache.get(key)
        if q is None:
            step = _rk4_propagator(self.m0 + amp * self.c, key[1])
            q = np.linalg.matrix_power(step, n_steps)
            self._cache[key] = q
        return q @ v


def _split_points(grid: TimeGrid, segments: Sequence[Segment]) -> np.ndarray:
    pts = set(np.round(grid.times(), 15).tolist())
    for t0, t1, _ in segments:
        for t in (t0, t1):
            if grid.t_start < t < grid.t_end:
                pts.add(round(float(t), 15))
    return np.array(sorted(pts))


def _segment_amp(segments: Sequence[Segment], ta: float, tb: float):
    mid = 0.5 * (ta + tb)
    for t0, t1, amp in segments:
        if t0 <= mid < t1:
            return amp
    return 0.0


def _run_driven(
    m0, coupling_superop, segments, v0, grid, dt_int, n_sub_scale
) -> np.ndarray:
    integ = _DrivenIntegrator(m0, coupling_superop)
    pts = _split_points(grid, segments)
    sample_times = np.round(grid.times(), 15)
    out = np.empty((grid.n_points, v0.size), dtype=complex)
    out[0] = v0
    v = v0
    isample = 1
    for ta, tb in zip(pts[:-1], pts[1:]):
        amp = _segment_amp(segments, ta, tb)
        n_steps = max(1, math.ceil((tb - ta) / dt_int)) * n_sub_scale
        v = integ.advance(v, ta, tb, amp, n_steps)
        if isample < grid.n_points and math.isclose(
            tb, sample_times[isample], rel_tol=0.0, abs_tol=1e-12
        ):
            out[isample] = v
            isample += 1
    if isample != grid.n_points:
        raise NumericFailure("internal sampling misalignment in driven evolution")
    return out


def evolve_driven(
    l0: Liouvillian,
    coupling: np.ndarray,
    segments: Sequence[Segment],
    rho0: np.ndarray,
    grid: TimeGrid,
    dt_int: float | None = None,
    verify: bool = True,
) -> np.ndarray:
    """Evolve under H(t) = H0 + a(t) * coupling with the static dissipator.

    ``coupling`` must be Hermitian; ``segments`` lists (t0, t1, amplitude)
    pieces of a(t) (constant float or callable), amplitude 0 outside.
    Returns sampled density matrices as in :func:`evolve`.
    """
    rho0 = check_density_matrix(rho0, "rho0")
    coupling = np.asarray(coupling, dtype=complex)
    if np.max(np.abs(coupling - coupling.conj().T)) > HERMITICITY_TOL:
        raise ModelError("coupling operator is not Hermitian")
    if coupling.shape != (l0.dim, l0.dim):
        raise ModelError("coupling dimension mismatch")
    c_super = hamiltonian_superop(coupling)
    if dt_int is None:
        amps = [a for _, _, a in segments if not callable(a)]
        amax = max([abs(a) for a in amps] + [1.0])
        probe = Liouvillian(l0.hamiltonian, l0.jumps, l0.matrix + amax * c_super)
        dt_int = _default_dt_int(probe, grid)
    v0 = rho0.reshape(-1)
    scale = 1
    prev = _run_driven(l0.matrix, c_super, segments, v0, grid, dt_int, scale)
    ok = False
    for _ in range(_MAX_STEP_REFINEMENTS):
        if not verify:
            ok = True
            break
        scale *= 2
        cur = _run_driven(l0.matrix, c_super, segments, v0, grid, dt_int, scale)
        if not np.all(np.isfinite(cur)):
            raise NumericFailure("non-finite values during driven evolution")
        if np.max(np.abs(cur - prev)) < STEP_HALVING_TOL:
            prev = cur
            ok = True
            break
        prev = cur
    if not ok:
        raise NumericFailure("driven evolution step refinement did not converge")
    rhos = prev.reshape(grid.n_points, l0.dim, l0.dim)
    _check_trajectory(rhos)
    return rhos


# -- steady state and correlators -------------------------------------------


def steady_states(matrices: np.ndarray) -> np.ndarray:
    """Unique stationary density matrices of a stack of generator matrices.

    ``matrices`` has shape (N, d^2, d^2); the result has shape (N, d, d).
    All points are solved in one stacked linear solve, with the first row
    of each vectorized system replaced by the trace constraint.  A point
    whose solve fails the residual check falls back to long-time
    integration.  A degenerate stationary subspace at any point raises
    :class:`ModelError`.
    """
    m = np.asarray(matrices, dtype=complex)
    n, d2 = m.shape[:2]
    d = math.isqrt(d2)
    eigs = np.linalg.eigvals(m)
    scale = np.maximum(np.max(np.abs(eigs), axis=1), 1.0)
    null = np.abs(eigs) < 1e-10 * scale[:, None]
    n_null = np.sum(null, axis=1)
    if np.any(n_null != 1):
        raise ModelError(
            f"stationary subspace has dimension {n_null[n_null != 1][0]}; steady "
            "state is not unique. Integrate for a long time from a chosen "
            "initial state instead."
        )
    a = m.copy()
    a[:, 0, :] = 0.0
    a[:, 0, :: d + 1] = 1.0
    b = np.zeros((n, d2, 1), dtype=complex)
    b[:, 0] = 1.0
    try:
        vecs = np.linalg.solve(a, b)[..., 0]
    except np.linalg.LinAlgError:
        vecs = np.full((n, d2), np.nan, dtype=complex)
    residual = np.linalg.norm((m @ vecs[..., None])[..., 0], axis=1)
    rhos = vecs.reshape(n, d, d)
    for i in np.flatnonzero(~(residual < STEADY_STATE_RESIDUAL_TOL)):
        rhos[i] = _integrated_steady_state(m[i], eigs[i][~null[i]])
    rhos = 0.5 * (rhos + np.conj(np.swapaxes(rhos, 1, 2)))
    for rho in rhos:
        check_density_matrix(rho, "steady state")
    return rhos


def _integrated_steady_state(matrix: np.ndarray, decay_eigs: np.ndarray) -> np.ndarray:
    """Steady state by integrating from the maximally mixed state.

    The horizon is 40x the slowest decay time among ``decay_eigs`` (the
    generator's non-zero eigenvalues), so the start-up transient is damped
    by e^-40, far below the residual tolerance.  Only the generator matrix
    enters the evolution, so the Hamiltonian slot holds a placeholder.
    """
    d = math.isqrt(matrix.shape[0])
    horizon = 40.0 / max(np.min(np.abs(decay_eigs.real)), 1e-12)
    l = Liouvillian(np.zeros((d, d), dtype=complex), [], matrix)
    rho = evolve(l, np.eye(d, dtype=complex) / d, TimeGrid(0.0, horizon, 64))[-1]
    residual = np.linalg.norm(matrix @ rho.reshape(-1))
    if residual >= STEADY_STATE_RESIDUAL_TOL:
        raise NumericFailure(
            f"steady-state residual {residual:.3e} above "
            f"{STEADY_STATE_RESIDUAL_TOL} even after integration fallback"
        )
    return rho


def steady_state(l: Liouvillian) -> np.ndarray:
    """Unique stationary density matrix: :func:`steady_states` with N = 1."""
    return steady_states(l.matrix[None])[0]


def regression_correlator(
    l: Liouvillian,
    rho_ss: np.ndarray,
    a: np.ndarray,
    b_left: np.ndarray,
    b_right: np.ndarray,
    grid: TimeGrid,
    dt_int: float | None = None,
) -> np.ndarray:
    """Two-time correlator C(tau) = Tr[a exp(L tau)(b_left rho_ss b_right)].

    Quantum-regression evolution of the (generally non-Hermitian) operator
    ``b_left @ rho_ss @ b_right`` under the same generator, evaluated on
    ``grid``.  Returns a complex array.
    """
    for name, op in (("a", a), ("b_left", b_left), ("b_right", b_right)):
        op = np.asarray(op)
        if op.shape != (l.dim, l.dim):
            raise ModelError(f"operator {name} has shape {op.shape}, need {(l.dim, l.dim)}")
    stationarity = np.linalg.norm(l.matrix @ np.asarray(rho_ss, dtype=complex).reshape(-1))
    if stationarity > 1e-8:
        raise ModelError(
            f"rho_ss is not stationary for this generator (residual {stationarity:.3e})"
        )
    s0 = np.asarray(b_left, dtype=complex) @ rho_ss @ np.asarray(b_right, dtype=complex)
    traj = _propagate_static(l, s0.reshape(-1), grid, dt_int, verify=True)
    a_vec = np.asarray(a, dtype=complex).T.reshape(-1)
    return traj @ a_vec
