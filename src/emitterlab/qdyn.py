"""Dense Lindblad master-equation engine for small Hilbert spaces.

All internal frequencies are angular (rad/ns) and all times are ns;
public modules convert from ordinary GHz exactly once at their boundary.
Density matrices are plain complex numpy arrays.  Generators are held
both as (hamiltonian, jumps) and as the vectorized superoperator matrix
acting on row-major ``vec(rho)``; the matrix backs time evolution, the
steady-state solve and two-time correlators.

Time evolution is classical fixed-step 4th-order Runge-Kutta.  The RK4
update is linear in the state, so every internal step is a fixed map on
``vec(rho)``.  One kernel advances a block of vectors through a schedule:
the time span is split at the samples and at drive-segment edges, and
consecutive equal pieces form runs.  A constant-drive run is one map,
built once and applied to its samples by doubling (O(log n) matrix
products); a shaped-pulse run builds its one-step maps stacked, in
fixed-size blocks, and applies them in order.  Every evolution is verified
by re-running at half the internal step; the step is refined until
consecutive results agree below ``STEP_HALVING_TOL``.  :func:`propagator`
returns such a verified map itself, so pulse sequences can be composed.

:func:`evolve`, :func:`evolve_driven` and the steady-state integration
fallback share one body: check the initial state, run the verified
propagation, check every sample.  :func:`check_density_matrix` is the one
validity check, for a matrix or a stack of them: inputs, steady states and
composed states are held to ``HERMITICITY_TOL`` and raise
:class:`ModelError`; sampled trajectories are held to
``TRAJECTORY_HERMITICITY_TOL`` and raise :class:`NumericFailure`.
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


def check_density_matrix(
    rho: np.ndarray, name: str = "rho", herm_tol: float = HERMITICITY_TOL, error=ModelError
) -> np.ndarray:
    """Validate a density matrix or a (..., d, d) stack; return it as complex.

    Every entry must be finite, every trace within ``TRACE_TOL`` of 1, every
    matrix Hermitian within ``herm_tol`` and no eigenvalue below
    ``-EIGENVALUE_TOL``; a violation raises ``error``.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ModelError(f"{name} must be a square matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise error(f"{name} has non-finite entries")
    trace_err = np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0), initial=0.0)
    if trace_err > TRACE_TOL:
        raise error(f"{name} trace differs from 1 by {trace_err:.3e}, beyond {TRACE_TOL}")
    herm = np.max(np.abs(rho - np.conj(np.swapaxes(rho, -1, -2))), initial=0.0)
    if herm > herm_tol:
        raise error(f"{name} is not Hermitian within {herm_tol} (deviation {herm:.3e})")
    eigmin = np.min(np.linalg.eigvalsh(rho), initial=0.0)
    if eigmin < -EIGENVALUE_TOL:
        raise error(f"{name} has an eigenvalue {eigmin:.3e} below -{EIGENVALUE_TOL}")
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


def _default_dt_int(matrix: np.ndarray, grid: TimeGrid) -> float:
    rate = float(np.max(np.abs(np.linalg.eigvals(matrix))))
    if rate <= 0.0:
        return grid.t_end - grid.t_start
    return (2.0 * math.pi / rate) / _STEPS_PER_PERIOD


def _rk4_propagator(matrix: np.ndarray, h: float) -> np.ndarray:
    """One-step RK4 map for the autonomous linear system v' = M v."""
    a = h * matrix
    eye = np.eye(matrix.shape[0], dtype=complex)
    return eye + a + (a @ a) / 2.0 + (a @ a @ a) / 6.0 + (a @ a @ a @ a) / 24.0


# -- propagation kernel -----------------------------------------------------

# A drive segment: (t0, t1, amplitude); amplitude is a float for constant
# drive or a callable t -> amplitude for shaped pulses, which must accept a
# numpy array of times.  Gaps between segments mean amplitude 0.  Segment
# edges never fall inside an integration sub-step, so discontinuous (square)
# envelopes keep full RK4 accuracy.
Segment = tuple[float, float, "float | Callable[[np.ndarray], np.ndarray]"]

# Shaped runs build their one-step RK4 maps at most this many steps at a
# time, so memory does not grow with the trace length.
_STEP_BLOCK = 256


@dataclass(frozen=True)
class _Run:
    """Consecutive pieces of a schedule with equal drive, length and sampling."""

    amp: object  # float, or the segment's callable
    starts: np.ndarray  # start time of each piece (ns)
    length: float  # piece length (ns)
    n_steps: int  # RK4 steps per piece before step refinement
    sampled: bool  # every piece ends on a sample


def _schedule(grid: TimeGrid, segments: Sequence[Segment], dt_int: float) -> list:
    """Split ``grid`` at its samples and at segment edges; group equal pieces.

    A piece takes the amplitude of the first segment holding its midpoint.
    A piece between two consecutive samples has length ``grid.dt`` exactly,
    so the rounding of the split points does not break runs.
    """
    samples = np.round(grid.times(), 15)
    edges = sorted(round(float(t), 15) for t0, t1, _ in segments for t in (t0, t1)
                   if grid.t_start < t < grid.t_end)
    pts = np.insert(samples, np.searchsorted(samples, edges), edges)
    pts = pts[np.concatenate([[True], pts[1:] != pts[:-1]])]
    ta, tb = pts[:-1], pts[1:]
    hit = np.searchsorted(tb, samples[1:] - 1e-12)
    if (
        np.any(hit >= tb.size)
        or np.any(np.abs(tb[np.minimum(hit, tb.size - 1)] - samples[1:]) > 1e-12)
        or np.any(np.diff(hit) <= 0)
    ):
        raise NumericFailure("internal sampling misalignment in driven evolution")
    sampled = np.zeros(ta.size, dtype=bool)
    sampled[hit] = True
    from_sample = np.concatenate([[True], sampled[:-1]])
    length = np.where(from_sample & sampled, grid.dt, tb - ta)
    n_steps = np.maximum(1, np.ceil(length / dt_int))
    # the finest refinement multiplies every step count by 2**_MAX_STEP_REFINEMENTS
    if not np.all(n_steps < 2.0 ** (63 - _MAX_STEP_REFINEMENTS)):
        raise NumericFailure(
            f"internal step count {np.max(n_steps):.3g} per piece overflows step "
            f"refinement (dt_int={dt_int:.3g} ns)"
        )
    n_steps = n_steps.astype(int)
    # segment index per piece; len(segments) stands for the undriven gap
    mid = 0.5 * (ta + tb)
    seg = np.full(ta.size, len(segments))
    for k in range(len(segments) - 1, -1, -1):
        t0, t1, _ = segments[k]
        seg[np.searchsorted(mid, t0):np.searchsorted(mid, t1)] = k
    amps = [a for _, _, a in segments] + [0.0]
    shaped = np.array([callable(a) for a in amps])[seg]
    value = np.array([math.nan if callable(a) else a for a in amps], dtype=float)[seg]
    same = (
        np.where(shaped[1:] | shaped[:-1], seg[1:] == seg[:-1], value[1:] == value[:-1])
        & (length[1:] == length[:-1])
        & (sampled[1:] == sampled[:-1])
    )
    bounds = np.flatnonzero(np.concatenate([[True], ~same, [True]]))
    return [
        _Run(amps[seg[i]] if shaped[i] else float(value[i]), ta[i:j],
             float(length[i]), int(n_steps[i]), bool(sampled[i]))
        for i, j in zip(bounds[:-1], bounds[1:])
    ]


def _chain(maps: np.ndarray) -> np.ndarray:
    """Ordered products maps[:, -1] @ ... @ maps[:, 0], by pairwise reduction."""
    while maps.shape[1] > 1:
        even = maps.shape[1] // 2 * 2
        pairs = maps[:, 1:even:2] @ maps[:, 0:even:2]
        maps = np.concatenate([pairs, maps[:, even:]], axis=1)
    return maps[:, 0]


def _shaped_maps(m0, c, amp, starts: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """Maps of ``n_steps`` RK4 steps of v' = (m0 + amp(t) c) v from each start.

    The one-step maps are built stacked, ``_STEP_BLOCK`` steps per piece at
    a time, with one amplitude call per block.
    """
    eye = np.eye(m0.shape[0], dtype=complex)
    total = None
    for j0 in range(0, n_steps, _STEP_BLOCK):
        t = starts[:, None] + np.arange(j0, min(j0 + _STEP_BLOCK, n_steps)) * h
        times = np.stack([t, t + 0.5 * h, t + h])
        m = m0 + np.broadcast_to(amp(times), times.shape)[..., None, None] * c
        k2 = m[1] @ (eye + (0.5 * h) * m[0])
        k3 = m[1] @ (eye + (0.5 * h) * k2)
        k4 = m[2] @ (eye + h * k3)
        maps = _chain(eye + (h / 6.0) * (m[0] + 2.0 * (k2 + k3) + k4))
        total = maps if total is None else maps @ total
    return total


def _orbit(q: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """[q v, q^2 v, ..., q^n v] by doubling: block[m:2m] = q^m @ block[:m]."""
    out = np.empty((n, *v.shape), dtype=complex)
    out[0] = q @ v
    m, qm = 1, q
    while m < n:
        k = min(m, n - m)
        out[m:m + k] = qm @ out[:k]
        m += k
        qm = qm @ qm
    return out


def _propagate(m0, c, runs: list, block: np.ndarray, n_points: int, scale: int) -> np.ndarray:
    """Sampled states of v' = (m0 + a(t) c) v for a (d^2, k) block of vectors.

    Every piece gets ``scale`` times its base step count.  A constant run
    is one map applied by doubling; a shaped run applies its stacked piece
    maps in order.  Returns shape (n_points, d^2, k).
    """
    out = np.empty((n_points, *block.shape), dtype=complex)
    out[0] = v = block
    i = 1
    for run in runs:
        n = run.starts.size
        n_steps = run.n_steps * scale
        h = run.length / n_steps
        if callable(run.amp):
            per_block = max(1, _STEP_BLOCK // n_steps)
            for i0 in range(0, n, per_block):
                starts = run.starts[i0:i0 + per_block]
                for q in _shaped_maps(m0, c, run.amp, starts, h, n_steps):
                    v = q @ v
                    if run.sampled:
                        out[i] = v
                        i += 1
            continue
        q = np.linalg.matrix_power(_rk4_propagator(m0 + run.amp * c, h), n_steps)
        if run.sampled:
            out[i:i + n] = _orbit(q, v, n)
            v = out[i + n - 1]
            i += n
        else:
            v = np.linalg.matrix_power(q, n) @ v
    return out


def _max_abs(diff: np.ndarray) -> float:
    return float(np.max(np.abs(diff)))


def _verified_propagation(
    m0, c, segments, block, grid: TimeGrid, dt_int: float | None, error=_max_abs
) -> np.ndarray:
    """:func:`_propagate` refined by step halving until ``error(cur - prev)``
    falls below ``STEP_HALVING_TOL``; the schedule is built once.

    ``c`` is the coupling superoperator, or 0.0 for an undriven evolution;
    ``dt_int=None`` takes the undriven default step (characteristic period
    of ``m0`` / 200).
    """
    if dt_int is None:
        dt_int = _default_dt_int(m0, grid)
    if not dt_int > 0:
        raise NumericFailure(f"internal step underflow: dt_int={dt_int}")
    runs = _schedule(grid, segments, dt_int)
    prev = _propagate(m0, c, runs, block, grid.n_points, 1)
    for refinement in range(1, _MAX_STEP_REFINEMENTS + 1):
        cur = _propagate(m0, c, runs, block, grid.n_points, 2**refinement)
        if not np.all(np.isfinite(cur)):
            raise NumericFailure("non-finite values during evolution")
        if error(cur - prev) < STEP_HALVING_TOL:
            return cur
        prev = cur
    raise NumericFailure(
        "step-halving verification did not converge below "
        f"{STEP_HALVING_TOL} after {_MAX_STEP_REFINEMENTS} refinements"
    )


def _evolve(m0, c, segments, rho0, grid: TimeGrid, dt_int: float | None) -> np.ndarray:
    """The one evolution body: checked ``rho0``, verified propagation, checked samples."""
    d = math.isqrt(m0.shape[0])
    rho0 = check_density_matrix(rho0, "rho0")
    if rho0.shape != (d, d):
        raise ModelError(f"rho0 dim {rho0.shape[0]} != generator dim {d}")
    traj = _verified_propagation(m0, c, segments, rho0.reshape(-1, 1), grid, dt_int)
    return check_density_matrix(
        traj.reshape(grid.n_points, d, d), "evolved trajectory",
        TRAJECTORY_HERMITICITY_TOL, NumericFailure,
    )


def evolve(
    l: Liouvillian, rho0: np.ndarray, grid: TimeGrid, dt_int: float | None = None
) -> np.ndarray:
    """Evolve ``rho0`` under the generator, sampling on ``grid``.

    Returns an array of shape (n_points, dim, dim).  Trace, Hermiticity
    and positivity are checked at every sample and raise
    :class:`NumericFailure` if violated; they are never silently fixed.

    ``dt_int`` is the internal RK4 step (default: characteristic generator
    period / 200).  The integration is repeated at half the step until
    samples agree below ``STEP_HALVING_TOL``.
    """
    return _evolve(l.matrix, 0.0, [], rho0, grid, dt_int)


# -- time-dependent drive ---------------------------------------------------


def _coupling_superop(coupling, dim: int) -> np.ndarray:
    """Superoperator of a Hermitian drive coupling of dimension ``dim``."""
    coupling = np.asarray(coupling, dtype=complex)
    if coupling.shape != (dim, dim):
        raise ModelError("coupling dimension mismatch")
    if np.max(np.abs(coupling - coupling.conj().T)) > HERMITICITY_TOL:
        raise ModelError("coupling operator is not Hermitian")
    return hamiltonian_superop(coupling)


def evolve_driven(
    l0: Liouvillian,
    coupling: np.ndarray,
    segments: Sequence[Segment],
    rho0: np.ndarray,
    grid: TimeGrid,
    dt_int: float,
) -> np.ndarray:
    """Evolve under H(t) = H0 + a(t) * coupling with the static dissipator.

    ``coupling`` must be Hermitian; ``segments`` lists (t0, t1, amplitude)
    pieces of a(t) (constant float or callable), amplitude 0 outside.
    ``dt_int`` is the internal RK4 step before step halving.  Returns
    sampled density matrices as in :func:`evolve`.
    """
    c_super = _coupling_superop(coupling, l0.dim)
    return _evolve(l0.matrix, c_super, segments, rho0, grid, dt_int)


def _induced_inf_norm(diff: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(diff[-1]), axis=1)))


def propagator(
    l0: Liouvillian,
    coupling: np.ndarray,
    segments: Sequence[Segment],
    t_end: float,
    dt_int: float,
) -> np.ndarray:
    """Verified d^2 x d^2 map of the driven evolution over [0, t_end].

    ``vec(rho(t_end)) = M @ vec(rho(0))`` for the row-major ``vec`` of
    :class:`Liouvillian`, with the drive of :func:`evolve_driven`.  The
    identity is propagated and refined by step halving until the induced
    infinity norm ``max_i sum_j |dM_ij|`` of the change falls below
    ``STEP_HALVING_TOL``, which bounds the change of every entry of
    ``M @ v`` for any ``v`` with entries of modulus <= 1.
    """
    c_super = _coupling_superop(coupling, l0.dim)
    eye = np.eye(l0.matrix.shape[0], dtype=complex)
    maps = _verified_propagation(
        l0.matrix, c_super, segments, eye, TimeGrid(0.0, t_end, 2), dt_int,
        _induced_inf_norm,
    )
    return maps[-1]


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
    return check_density_matrix(rhos, "steady state")


def _integrated_steady_state(matrix: np.ndarray, decay_eigs: np.ndarray) -> np.ndarray:
    """Steady state by integrating from the maximally mixed state.

    The horizon is 40x the slowest decay time among ``decay_eigs`` (the
    generator's non-zero eigenvalues), so the start-up transient is damped
    by e^-40, far below the residual tolerance.
    """
    d = math.isqrt(matrix.shape[0])
    horizon = 40.0 / max(np.min(np.abs(decay_eigs.real)), 1e-12)
    mixed = np.eye(d, dtype=complex) / d
    rho = _evolve(matrix, 0.0, [], mixed, TimeGrid(0.0, horizon, 64), None)[-1]
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
    traj = _verified_propagation(l.matrix, 0.0, [], s0.reshape(-1, 1), grid, dt_int)
    a_vec = np.asarray(a, dtype=complex).T.reshape(-1)
    return traj[..., 0] @ a_vec
