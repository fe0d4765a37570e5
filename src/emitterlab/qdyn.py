"""Dense Lindblad master-equation engine for small Hilbert spaces.

All internal frequencies are angular (rad/ns) and all times are ns;
public modules convert from ordinary GHz exactly once at their boundary.
Density matrices and generators are plain complex numpy arrays; a
generator is the superoperator matrix acting on row-major ``vec(rho)``,
(d^2, d^2), or a (..., d^2, d^2) stack of them.

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

A scan is one verified propagation: generators and drive couplings (drive
strength included; segments carry the unit envelope) may be broadcasting
stacks whose members share the initial state, the schedule and the finest
member's step, and step halving refines on the maximum over the batch.
:func:`evolve`, :func:`evolve_driven` and the steady-state integration
fallback share one body: check the initial state, run the verified
propagation, check every sample of every member.
:func:`check_density_matrix` is the one validity check, for a matrix or a
stack of them: inputs, steady states and composed states are held to
``HERMITICITY_TOL`` and raise :class:`ModelError`; sampled trajectories
are held to ``TRAJECTORY_HERMITICITY_TOL`` and raise
:class:`NumericFailure`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
    """Real finite time series sampled on a uniform grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_points,):
            raise ModelError(
                f"trace length {self.values.shape} does not match grid "
                f"n_points {self.grid.n_points}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ModelError("trace contains non-finite values")


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
    """Superoperator of -i[h, .] in row-major vectorization, for a (..., d, d) stack."""
    h = np.asarray(h)
    d = h.shape[-1]
    eye = np.eye(d)
    # kron(h, eye) - kron(eye, h.T), member by member
    left = h[..., :, None, :, None] * eye[:, None, :]
    right = eye[:, None, :, None] * np.swapaxes(h, -1, -2)[..., None, :, None, :]
    return -1j * (left - right).reshape(*h.shape[:-2], d * d, d * d)


def dissipator_superop(jumps: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Superoperator of sum_k L rho L+ - (1/2){L+L, rho}."""
    eye = np.eye(dim)
    m = np.zeros((dim * dim, dim * dim), dtype=complex)
    for op in jumps:
        ldl = op.conj().T @ op
        m += np.kron(op, op.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return m


def _hermitian(op, name: str, dim: int | None = None) -> np.ndarray:
    """``op`` as a complex (..., d, d) stack, checked square (d = ``dim`` if
    given) and Hermitian within ``HERMITICITY_TOL``."""
    op = np.asarray(op, dtype=complex)
    if op.ndim < 2 or op.shape[-1] != op.shape[-2] or dim not in (None, op.shape[-1]):
        raise ModelError(f"{name} has shape {op.shape}, need (..., {dim or 'd'}, {dim or 'd'})")
    if np.max(np.abs(op - np.conj(np.swapaxes(op, -1, -2))), initial=0.0) > HERMITICITY_TOL:
        raise ModelError(f"{name} is not Hermitian within {HERMITICITY_TOL}")
    return op


def build_liouvillian(h: np.ndarray, jumps: Sequence[np.ndarray]) -> np.ndarray:
    """Validate operators and assemble the (d^2, d^2) generator matrix.

    Parameters
    ----------
    h : ndarray
        Hamiltonian in rad/ns (rotating frame); must be Hermitian within
        ``HERMITICITY_TOL``.  A (..., d, d) stack gives a stack of generators.
    jumps : sequence of ndarray
        Jump operators with rates absorbed (units 1/sqrt(ns)).
    """
    h = _hermitian(h, "hamiltonian")
    dim = h.shape[-1]
    jump_arrays = []
    for k, op in enumerate(jumps):
        op = np.asarray(op, dtype=complex)
        if op.shape != (dim, dim):
            raise ModelError(
                f"jump operator {k} has shape {op.shape}, expected {(dim, dim)}"
            )
        jump_arrays.append(op)
    return hamiltonian_superop(h) + dissipator_superop(jump_arrays, dim)


def _default_dt_int(matrix: np.ndarray, grid: TimeGrid) -> float:
    rate = float(np.max(np.abs(np.linalg.eigvals(matrix))))
    if rate <= 0.0:
        return grid.t_end - grid.t_start
    return (2.0 * math.pi / rate) / _STEPS_PER_PERIOD


def _rk4_propagator(matrix: np.ndarray, h: float) -> np.ndarray:
    """One-step RK4 maps of v' = M v for a (..., D, D) stack of generators."""
    a = h * matrix
    eye = np.eye(matrix.shape[-1], dtype=complex)
    return eye + a + (a @ a) / 2.0 + (a @ a @ a) / 6.0 + (a @ a @ a @ a) / 24.0


# -- propagation kernel -----------------------------------------------------

# A drive segment: (t0, t1, envelope) of the drive envelope(t) * coupling;
# the envelope is a float for constant drive or a callable t -> envelope for
# shaped pulses, which must accept a numpy array of times.  Gaps between
# segments mean envelope 0.  Segment edges never fall inside an integration
# sub-step, so discontinuous (square) envelopes keep full RK4 accuracy.
Segment = tuple[float, float, "float | Callable[[np.ndarray], np.ndarray]"]

# Shaped runs build at most this many one-step RK4 maps at a time, over batch
# members, pieces and steps, so memory grows with neither trace nor batch.
_STEP_BLOCK = 1024


@dataclass(frozen=True)
class _Run:
    """Consecutive pieces of a schedule with equal drive, length and sampling."""

    amp: object  # envelope: a float, or the segment's callable
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
    """Ordered product of the maps along axis -3, last first, by pairwise reduction."""
    while maps.shape[-3] > 1:
        even = maps.shape[-3] // 2 * 2
        pairs = maps[..., 1:even:2, :, :] @ maps[..., 0:even:2, :, :]
        maps = np.concatenate([pairs, maps[..., even:, :, :]], axis=-3)
    return maps[..., 0, :, :]


# One RK4 step of v' = A(t) v is I plus these products of the stage
# generators A_s at t, t + h/2 and t + h (s = 0, 1, 2), read left to right:
# (stages, power of h, factor).
_RK4_TERMS = (((0,), 1, 1 / 6), ((1,), 1, 2 / 3), ((2,), 1, 1 / 6),
              ((1, 0), 2, 1 / 6), ((1, 1), 2, 1 / 6), ((2, 1), 2, 1 / 6),
              ((1, 1, 0), 3, 1 / 12), ((2, 1, 1), 3, 1 / 12), ((2, 1, 1, 0), 4, 1 / 24))
# With A_s = m0 + e_s c a product expands into words in m0 (0) and c (1),
# each weighted by the envelope values e_s at its c positions.  Per
# expansion entry: the term, the word, and the stage read at each of four
# positions, where 3 reads 1 (an m0 position or no factor).
_WORDS = [w for n in range(1, 5) for w in itertools.product((0, 1), repeat=n)]
_TERM, _WORD, _STAGES = (np.array(x) for x in zip(*[
    (k, _WORDS.index(w), [s if bit else 3 for s, bit in zip(stages, w)] + [3] * (4 - len(w)))
    for k, (stages, _, _) in enumerate(_RK4_TERMS)
    for w in itertools.product((0, 1), repeat=len(stages))
]))


def _shaped_maps(m0, c, amp, starts: np.ndarray, h: float, n_steps: int):
    """Yield the (N, D, D) maps of ``n_steps`` RK4 steps of
    v' = (m0 + amp(t) c) v from each start in turn.

    A one-step map is I plus the word products of m0 and c, built once,
    weighted by envelope monomials.  The maps are built stacked, at most
    ``_STEP_BLOCK`` per block over members, pieces and steps, with one
    envelope call per block.
    """
    n, size = m0.shape[0], m0.shape[-1]
    products = {}
    for w in _WORDS:
        op = c if w[-1] else m0
        products[w] = products[w[:-1]] @ op if len(w) > 1 else op
    weight = np.array([h**p * f for _, p, f in _RK4_TERMS])[_TERM, None, None]
    terms = np.stack([products[_WORDS[w]] for w in _WORD], axis=1) * weight
    # as (re, im) pairs, so the real coefficients need no complex product
    terms = terms.reshape(n, _TERM.size, size * size).view(float)
    eye = np.eye(size, dtype=complex)
    budget = max(1, _STEP_BLOCK // max(n, 1))
    pieces = max(1, budget // n_steps)
    for i0 in range(0, starts.size, pieces):
        group = starts[i0:i0 + pieces]
        per_block = max(1, budget // group.size)
        total = None
        for j0 in range(0, n_steps, per_block):
            t = group[:, None] + np.arange(j0, min(j0 + per_block, n_steps)) * h
            env = np.broadcast_to(amp(np.stack([t, t + 0.5 * h, t + h])), (3, *t.shape))
            env = np.concatenate([env, np.ones((1, *t.shape))])
            coef = np.prod(env[_STAGES], axis=1).reshape(_TERM.size, -1)
            steps = (coef.T @ terms).view(complex).reshape(n, *t.shape, size, size)
            maps = _chain(eye + steps)
            total = maps if total is None else maps @ total
        yield from np.swapaxes(total, 0, 1)


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
    """Sampled states of v' = (m0 + a(t) c) v for one (D, k) block of vectors,
    under each of the N members of the (N, D, D) stacks ``m0`` and ``c``.

    Every piece gets ``scale`` times its base step count.  A constant run
    is one map applied by doubling; a shaped run applies its stacked piece
    maps in order.  Returns shape (n_points, N, D, k).
    """
    out = np.empty((n_points, m0.shape[0], *block.shape), dtype=complex)
    out[0] = v = np.broadcast_to(block, out.shape[1:])
    i = 1
    for run in runs:
        n = run.starts.size
        n_steps = run.n_steps * scale
        h = run.length / n_steps
        if callable(run.amp):
            for q in _shaped_maps(m0, c, run.amp, run.starts, h, n_steps):
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
    return float(np.max(np.abs(diff), initial=0.0))


def _verified_propagation(
    m0, c, segments, block, grid: TimeGrid, dt_int: float | None, error=_max_abs
) -> np.ndarray:
    """:func:`_propagate` refined by step halving until ``error(cur - prev)``,
    taken over the whole batch, falls below ``STEP_HALVING_TOL``.

    ``m0`` and ``c`` broadcast as (..., D, D) stacks (``c`` is 0.0 when
    undriven); ``dt_int=None`` takes the undriven default step (period of
    the fastest ``m0`` / 200).  Returns shape (*batch, n_points, D, k).
    """
    batch = np.broadcast_shapes(np.shape(m0)[:-2], np.shape(c)[:-2])
    size = np.shape(m0)[-1]
    m0, c = (np.broadcast_to(x, (*batch, size, size)).reshape(-1, size, size)
             for x in (m0, c))
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
            return np.moveaxis(cur, 0, 1).reshape(*batch, grid.n_points, *block.shape)
        prev = cur
    raise NumericFailure(
        "step-halving verification did not converge below "
        f"{STEP_HALVING_TOL} after {_MAX_STEP_REFINEMENTS} refinements"
    )


def _evolve(m0, c, segments, rho0, grid: TimeGrid, dt_int: float | None) -> np.ndarray:
    """The one evolution body: checked ``rho0``, verified propagation, checked samples."""
    d = math.isqrt(m0.shape[-1])
    rho0 = check_density_matrix(rho0, "rho0")
    if rho0.shape != (d, d):
        raise ModelError(f"rho0 dim {rho0.shape[0]} != generator dim {d}")
    traj = _verified_propagation(m0, c, segments, rho0.reshape(-1, 1), grid, dt_int)
    return check_density_matrix(
        traj.reshape(*traj.shape[:-2], d, d), "evolved trajectory",
        TRAJECTORY_HERMITICITY_TOL, NumericFailure,
    )


def evolve(
    l: np.ndarray, rho0: np.ndarray, grid: TimeGrid, dt_int: float | None = None
) -> np.ndarray:
    """Evolve ``rho0`` under the generator, or stack of generators, ``l``.

    Returns the samples on ``grid``, shape (..., n_points, d, d).  Trace,
    Hermiticity and positivity are checked at every sample and raise
    :class:`NumericFailure` if violated; they are never silently fixed.
    ``dt_int`` is the internal RK4 step (default: characteristic period of
    the fastest generator / 200), halved until samples agree below
    ``STEP_HALVING_TOL``.
    """
    return _evolve(l, 0.0, [], rho0, grid, dt_int)


# -- time-dependent drive ---------------------------------------------------


def evolve_driven(
    l0: np.ndarray,
    coupling: np.ndarray,
    segments: Sequence[Segment],
    rho0: np.ndarray,
    grid: TimeGrid,
    dt_int: float,
) -> np.ndarray:
    """Evolve under H(t) = H0 + a(t) * coupling with the static dissipator.

    The undriven generator ``l0`` and the Hermitian ``coupling`` (drive
    strength included) may be broadcasting stacks; the batch members share
    ``rho0``, the (t0, t1, envelope) ``segments`` of a(t) (constant float
    or callable, 0 outside) and the internal RK4 step ``dt_int``, which is
    the finest any member needs.  Returns (*batch, n_points, d, d) samples
    checked as in :func:`evolve`.
    """
    c = hamiltonian_superop(_hermitian(coupling, "coupling", math.isqrt(l0.shape[-1])))
    return _evolve(l0, c, segments, rho0, grid, dt_int)


def _induced_inf_norm(diff: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(diff[-1]), axis=-1), initial=0.0))


def propagator(
    l0: np.ndarray,
    coupling: np.ndarray,
    segments: Sequence[Segment],
    t_end: float,
    dt_int: float,
) -> np.ndarray:
    """Verified d^2 x d^2 maps of the driven evolution over [0, t_end].

    ``vec(rho(t_end)) = M @ vec(rho(0))`` for the row-major ``vec`` of the
    generator, with the drive and batch of :func:`evolve_driven`; returns
    shape (*batch, d^2, d^2).  The identity is propagated and refined by
    step halving until the induced infinity norm ``max_i sum_j |dM_ij|``
    of the change, the worst over the batch, falls below
    ``STEP_HALVING_TOL``, which bounds the change of every entry of
    ``M @ v`` for any ``v`` with entries of modulus <= 1.
    """
    c = hamiltonian_superop(_hermitian(coupling, "coupling", math.isqrt(l0.shape[-1])))
    eye = np.eye(l0.shape[-1], dtype=complex)
    maps = _verified_propagation(
        l0, c, segments, eye, TimeGrid(0.0, t_end, 2), dt_int, _induced_inf_norm
    )
    return maps[..., -1, :, :]


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


def steady_state(l: np.ndarray) -> np.ndarray:
    """Unique stationary density matrix of one generator: :func:`steady_states`, N = 1."""
    return steady_states(l[None])[0]


def regression_correlator(
    l: np.ndarray,
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
    d = math.isqrt(l.shape[-1])
    for name, op in (("a", a), ("b_left", b_left), ("b_right", b_right)):
        op = np.asarray(op)
        if op.shape != (d, d):
            raise ModelError(f"operator {name} has shape {op.shape}, need {(d, d)}")
    stationarity = np.linalg.norm(l @ np.asarray(rho_ss, dtype=complex).reshape(-1))
    if stationarity > 1e-8:
        raise ModelError(
            f"rho_ss is not stationary for this generator (residual {stationarity:.3e})"
        )
    s0 = np.asarray(b_left, dtype=complex) @ rho_ss @ np.asarray(b_right, dtype=complex)
    traj = _verified_propagation(l, 0.0, [], s0.reshape(-1, 1), grid, dt_int)
    a_vec = np.asarray(a, dtype=complex).T.reshape(-1)
    return traj[..., 0] @ a_vec
