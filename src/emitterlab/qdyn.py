"""Dense Lindblad master-equation engine for small Hilbert spaces.

All internal frequencies are angular (rad/ns) and all times are ns;
public modules convert from ordinary GHz exactly once at their boundary.
Density matrices and generators are plain complex numpy arrays, except
the real Bloch-basis generators of the stationary solves (below); a
generator is the superoperator matrix acting on row-major ``vec(rho)``,
(d^2, d^2), or a (..., d^2, d^2) stack of them.

One kernel advances a block of vectors through a schedule: the time span
is split at the samples and at drive-segment edges, and consecutive equal
pieces form runs.  A constant-drive run is one exact map exp(h L), a
[13/13] Padé approximant with scaling and squaring, applied to its
samples by doubling (O(log n) matrix products).  A schedule of constant
pieces only, as under square pulses or no drive, is propagated once.  A
shaped-pulse run (gaussian pulses, ramped square edges) takes classical
fixed-step 4th-order Runge-Kutta steps; the RK4 update is linear in the
state, so each step is a fixed map on ``vec(rho)``, built stacked in
fixed-size blocks and applied in order.  The engine alone picks that
step: the period of the fastest generator / ``_STEPS_PER_PERIOD``.  A
schedule with a shaped piece is verified by re-running at half the step;
the step is refined until consecutive results agree below
``STEP_HALVING_TOL``.  :func:`propagator` returns such a map itself, so
pulse sequences can be composed.

A scan is one propagation: generators and drive couplings (drive
strength included; segments carry the unit envelope) may be broadcasting
stacks whose members share the initial state, the schedule and one RK4
step, that of the fastest undriven or fully driven member, and step
halving refines on the maximum over the batch.  Each member's exact maps
are scaled and squared alone, and its shaped-pulse maps are chained alike
in any batch, so it equals its lone run bitwise whenever both take the
same step and refinement count.
:func:`evolve` and :func:`evolve_driven` share one body: check the initial
state, run the verified propagation, check every sample of every member.
:func:`check_density_matrix` is the one validity check, for a matrix or a
stack of them: inputs, steady states and composed states are held to
``HERMITICITY_TOL`` and raise :class:`ModelError`; sampled trajectories
are held to ``TRAJECTORY_HERMITICITY_TOL`` and raise
:class:`NumericFailure`.  Positivity takes a 2x2 matrix's least eigenvalue in
closed form, (p + q)/2 - hypot((p - q)/2, |c|); for d > 2 one batched
Cholesky factorization of rho + ``EIGENVALUE_TOL`` I shows every eigenvalue
above -``EIGENVALUE_TOL``, and ``eigvalsh`` runs only when it fails.

Stationary states are solved in the real Bloch basis: :func:`bloch` turns
a generator into T^H L T, real for a Lindblad generator, with T the
unitary whose columns are vec(G_k) of an orthonormal Hermitian basis
(G_0 = I/sqrt(d)).  :func:`steady_states` takes such real stacks, so the
solves, norms and residuals of a sweep run in real arithmetic.
"""

from __future__ import annotations

import functools
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
# Singular values below this times max(largest one, 1) span the stationary
# subspace.  The second-smallest singular value over the second-smallest
# eigenvalue modulus measured 0.46-1.73 on 3000 random TLS and lambda
# generators, so twice the old 1e-10 cut on eigenvalue moduli is no looser.
STATIONARY_NULL_TOL = 2e-10

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
    eigmin = np.min(_min_eigenvalue(rho), initial=0.0)
    if eigmin < -EIGENVALUE_TOL:
        raise error(f"{name} has an eigenvalue {eigmin:.3e} below -{EIGENVALUE_TOL}")
    return rho


def _min_eigenvalue(rho: np.ndarray) -> np.ndarray:
    """Least eigenvalue per matrix, read from the lower triangle as eigvalsh does.

    For d > 2 a stack whose rho + ``EIGENVALUE_TOL`` I all have a Cholesky
    factor has every eigenvalue above -``EIGENVALUE_TOL``; it reads that
    bound, and only a stack with a failed factor calls ``eigvalsh``.
    """
    if rho.shape[-1] != 2:
        try:
            np.linalg.cholesky(rho + EIGENVALUE_TOL * np.eye(rho.shape[-1]))
            return np.full(rho.shape[:-2], -EIGENVALUE_TOL)
        except np.linalg.LinAlgError:
            return np.linalg.eigvalsh(rho)[..., 0]
    p, q = rho[..., 0, 0].real, rho[..., 1, 1].real
    return 0.5 * (p + q) - np.hypot(0.5 * (p - q), np.abs(rho[..., 1, 0]))


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


def _rk4_step(eigs: np.ndarray) -> float:
    """Internal RK4 step for generators with eigenvalues ``eigs``: the period
    of the fastest / ``_STEPS_PER_PERIOD``, or inf when every one is 0.

    The rate is rounded to single precision first, so generators equal up
    to rounding (a drive coupling rotated in phase) share one step.  A rate
    beyond single range keeps its double value.
    """
    rate = float(np.max(np.abs(eigs), initial=0.0))
    if rate < float(np.finfo(np.float32).max):
        rate = float(np.float32(rate))
    return 2.0 * math.pi / rate / _STEPS_PER_PERIOD if rate != 0.0 else math.inf


# [13/13] Padé coefficients b_k = (26 - k)! / (k! (13 - k)!), all exact in
# double precision, and the 1-norm up to which that approximant needs no
# scaling (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).
_PADE13 = [math.factorial(26 - k) / (math.factorial(k) * math.factorial(13 - k))
           for k in range(14)]
_THETA13 = 5.371920351148152
# Each squaring doubles the rounding error of the map; past this many it
# would exceed STEP_HALVING_TOL (on TLS generators the computed map's trace
# drifts from 1 by about 2.5e-17 |h L|_1).
_MAX_SQUARINGS = int(math.log2(STEP_HALVING_TOL / np.finfo(float).eps))


def _expm(m: np.ndarray, h: float) -> np.ndarray:
    """exp(h m) for each matrix of an (N, D, D) stack: [13/13] Padé
    approximant with scaling and squaring.  Each member is scaled by its own
    power of two and squared back alone, so its bits do not depend on the
    rest of the stack."""
    with np.errstate(over="ignore"):  # an overflow is caught as an inf norm
        norm = h * np.max(np.sum(np.abs(m), axis=-2), axis=-1, initial=0.0)
    if not np.all(norm <= _THETA13 * 2.0**_MAX_SQUARINGS):
        raise NumericFailure(
            f"piece map exp(h L) with |h L|_1 = {np.max(norm):.3g} (h = {h:.3g} ns) "
            f"needs more than {_MAX_SQUARINGS} squarings"
        )
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    a = m * (h * np.exp2(-s))[:, None, None]
    b = _PADE13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(np.max(s, initial=0))):
        sq = s > k
        r[sq] = r[sq] @ r[sq]
    return r


# -- propagation kernel -----------------------------------------------------

# A drive segment: (t0, t1, envelope) of the drive envelope(t) * coupling;
# the envelope is a float for constant drive or a callable t -> envelope for
# shaped pulses, which must accept a numpy array of times.  Its modulus is at
# most 1, the envelope the step is chosen at.  Gaps between segments mean
# envelope 0.  A constant piece is one exact map; segment edges never fall
# inside a shaped piece's RK4 step.
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
    n_steps: int  # shaped runs: RK4 steps per piece before step refinement
    sampled: bool  # every piece ends on a sample


def _schedule(grid: TimeGrid, segments: Sequence[Segment], dt_int: float) -> list:
    """Split ``grid`` at its samples and at segment edges; group equal pieces.

    A piece takes the amplitude of the first segment holding its midpoint.
    A piece between two consecutive samples has length ``grid.dt`` exactly,
    so the rounding of the split points does not break runs.  A shaped
    piece takes ``ceil(length / dt_int)`` RK4 steps, a constant one 1.
    """
    samples = grid.times()
    small = np.abs(samples) < 1e290  # rounding scales by 1e15: keep that finite
    samples[small] = np.round(samples[small], 15)
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
    # segment index per piece; len(segments) stands for the undriven gap
    mid = 0.5 * (ta + tb)
    seg = np.full(ta.size, len(segments))
    for k in range(len(segments) - 1, -1, -1):
        t0, t1, _ = segments[k]
        seg[np.searchsorted(mid, t0):np.searchsorted(mid, t1)] = k
    amps = [a for _, _, a in segments] + [0.0]
    shaped = np.array([callable(a) for a in amps])[seg]
    value = np.array([math.nan if callable(a) else a for a in amps], dtype=float)[seg]
    n_steps = np.ones(ta.size)
    n_steps[shaped] = np.maximum(1, np.ceil(length[shaped] / dt_int))
    # the finest refinement multiplies every step count by 2**_MAX_STEP_REFINEMENTS
    if not np.all(n_steps < 2.0 ** (63 - _MAX_STEP_REFINEMENTS)):
        raise NumericFailure(
            f"internal step count {np.max(n_steps):.3g} per piece overflows step "
            f"refinement (dt_int={dt_int:.3g} ns)"
        )
    n_steps = n_steps.astype(int)
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
    weighted by envelope monomials.  Each member chains its steps in runs of
    ``min(n_steps, _STEP_BLOCK)`` whatever the batch size, so a member's
    maps are bitwise those of its lone run.  The maps are built stacked, at
    most ``_STEP_BLOCK`` per block over members, pieces and steps, with one
    envelope call per run of steps.
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
    run = min(n_steps, _STEP_BLOCK)
    members = min(max(n, 1), _STEP_BLOCK // run)
    pieces = max(1, _STEP_BLOCK // (run * members))
    for i0 in range(0, starts.size, pieces):
        group = starts[i0:i0 + pieces]
        total = None
        for j0 in range(0, n_steps, run):
            t = group[:, None] + np.arange(j0, min(j0 + run, n_steps)) * h
            env = np.broadcast_to(amp(np.stack([t, t + 0.5 * h, t + h])), (3, *t.shape))
            env = np.concatenate([env, np.ones((1, *t.shape))])
            coef = np.prod(env[_STAGES], axis=1).reshape(_TERM.size, -1).T
            maps = np.concatenate([
                _chain(eye + (coef @ part).view(complex).reshape(-1, *t.shape, size, size))
                for part in np.split(terms, range(members, n, members))
            ])
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

    A constant run is its exact map exp(length (m0 + a c)), applied to its
    samples by doubling; a shaped run applies its stacked piece maps in
    order, at ``scale`` times its base RK4 step count.  Returns shape
    (n_points, N, D, k).
    """
    out = np.empty((n_points, m0.shape[0], *block.shape), dtype=complex)
    out[0] = v = np.broadcast_to(block, out.shape[1:])
    i = 1
    for run in runs:
        n = run.starts.size
        if callable(run.amp):
            n_steps = run.n_steps * scale
            for q in _shaped_maps(m0, c, run.amp, run.starts, run.length / n_steps, n_steps):
                v = q @ v
                if run.sampled:
                    out[i] = v
                    i += 1
        elif run.sampled:
            out[i:i + n] = _orbit(_expm(m0 + run.amp * c, run.length), v, n)
            v = out[i + n - 1]
            i += n
        else:
            v = _expm(m0 + run.amp * c, n * run.length) @ v
    return out


def _max_abs(diff: np.ndarray) -> float:
    return float(np.max(np.abs(diff), initial=0.0))


def _verified_propagation(m0, c, segments, block, grid: TimeGrid, error=_max_abs) -> np.ndarray:
    """:func:`_propagate` checked finite and, when a segment is shaped,
    refined by step halving until ``error(cur - prev)``, taken over the
    whole batch, falls below ``STEP_HALVING_TOL``.

    ``m0`` and ``c`` broadcast as (..., D, D) stacks (``c`` is 0.0 when
    undriven).  The base RK4 step of shaped runs is the :func:`_rk4_step`
    of the batch's undriven ``m0`` and fully driven ``m0 + c``; segment
    envelopes are at most 1 in modulus.  A schedule of constant pieces
    only is exact and propagated once.  Returns shape
    (*batch, n_points, D, k).
    """
    batch = np.broadcast_shapes(np.shape(m0)[:-2], np.shape(c)[:-2])
    size = np.shape(m0)[-1]
    m0, c = (np.broadcast_to(x, (*batch, size, size)).reshape(-1, size, size)
             for x in (m0, c))
    shaped = any(callable(a) for _, _, a in segments)
    dt_int = _rk4_step(np.linalg.eigvals(np.concatenate([m0, m0 + c]))) if shaped else math.inf
    if not dt_int > 0:
        raise NumericFailure(f"internal step underflow: dt_int={dt_int}")
    runs = _schedule(grid, segments, dt_int)
    prev = None
    for refinement in range(_MAX_STEP_REFINEMENTS + 1 if shaped else 1):
        cur = _propagate(m0, c, runs, block, grid.n_points, 2**refinement)
        if not np.all(np.isfinite(cur)):
            raise NumericFailure("non-finite values during evolution")
        if not shaped or refinement and error(cur - prev) < STEP_HALVING_TOL:
            return np.moveaxis(cur, 0, 1).reshape(*batch, grid.n_points, *block.shape)
        prev = cur
    raise NumericFailure(
        "step-halving verification did not converge below "
        f"{STEP_HALVING_TOL} after {_MAX_STEP_REFINEMENTS} refinements"
    )


def _evolve(m0, c, segments, rho0, grid: TimeGrid) -> np.ndarray:
    """The one evolution body: checked ``rho0``, verified propagation, checked samples."""
    d = math.isqrt(m0.shape[-1])
    rho0 = check_density_matrix(rho0, "rho0")
    if rho0.shape != (d, d):
        raise ModelError(f"rho0 dim {rho0.shape[0]} != generator dim {d}")
    traj = _verified_propagation(m0, c, segments, rho0.reshape(-1, 1), grid)
    return check_density_matrix(
        traj.reshape(*traj.shape[:-2], d, d), "evolved trajectory",
        TRAJECTORY_HERMITICITY_TOL, NumericFailure,
    )


def evolve(l: np.ndarray, rho0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Evolve ``rho0`` under the generator, or stack of generators, ``l``.

    Returns the samples on ``grid``, shape (..., n_points, d, d), each the
    exact map exp(dt l) applied to the one before.  Trace, Hermiticity and
    positivity are checked at every sample and raise
    :class:`NumericFailure` if violated; they are never silently fixed.
    """
    return _evolve(l, 0.0, [], rho0, grid)


# -- time-dependent drive ---------------------------------------------------


def evolve_driven(
    l0: np.ndarray,
    coupling: np.ndarray,
    segments: Sequence[Segment],
    rho0: np.ndarray,
    grid: TimeGrid,
) -> np.ndarray:
    """Evolve under H(t) = H0 + a(t) * coupling with the static dissipator.

    The undriven generator ``l0`` and the Hermitian ``coupling`` (drive
    strength included) may be broadcasting stacks; the batch members share
    ``rho0`` and the (t0, t1, envelope) ``segments`` of a(t): a constant
    float or a callable, at most 1 in modulus, 0 outside.  Constant
    pieces are exact maps.  Shaped pieces take RK4 steps of the period of
    the fastest undriven or fully driven generator in the batch / 200,
    halved until the samples agree below ``STEP_HALVING_TOL``.  Returns
    (*batch, n_points, d, d) samples checked as in :func:`evolve`.
    """
    c = hamiltonian_superop(_hermitian(coupling, "coupling", math.isqrt(l0.shape[-1])))
    return _evolve(l0, c, segments, rho0, grid)


def _induced_inf_norm(diff: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(diff[-1]), axis=-1), initial=0.0))


def propagator(
    l0: np.ndarray,
    coupling: np.ndarray,
    segments: Sequence[Segment],
    t_end: float,
) -> np.ndarray:
    """d^2 x d^2 maps of the driven evolution over [0, t_end].

    ``vec(rho(t_end)) = M @ vec(rho(0))`` for the row-major ``vec`` of the
    generator, with the drive, batch and pieces of :func:`evolve_driven`;
    returns shape (*batch, d^2, d^2).  The identity is propagated; under a
    shaped pulse it is refined by step halving until the induced infinity
    norm ``max_i sum_j |dM_ij|`` of the change, the worst over the batch,
    falls below ``STEP_HALVING_TOL``, which bounds the change of every entry of
    ``M @ v`` for any ``v`` with entries of modulus <= 1.
    """
    c = hamiltonian_superop(_hermitian(coupling, "coupling", math.isqrt(l0.shape[-1])))
    eye = np.eye(l0.shape[-1], dtype=complex)
    maps = _verified_propagation(
        l0, c, segments, eye, TimeGrid(0.0, t_end, 2), error=_induced_inf_norm
    )
    return maps[..., -1, :, :]


# -- steady state and correlators -------------------------------------------


@functools.lru_cache(maxsize=None)
def _bloch_basis(d: int) -> np.ndarray:
    """(d^2, d^2) unitary T whose column k is the row-major vec(G_k) of an
    orthonormal Hermitian basis: G_0 = I / sqrt(d), then the generalized
    Gell-Mann matrices (E_jk + E_kj) / sqrt(2) and i (E_kj - E_jk) / sqrt(2)
    for j < k, and the traceless diagonals (read-only, built once per d)."""
    basis = [np.eye(d) / math.sqrt(d)]
    for j, k in itertools.combinations(range(d), 2):
        sym = np.zeros((d, d), dtype=complex)
        sym[j, k] = sym[k, j] = 1.0 / math.sqrt(2.0)
        basis += [sym, 1j * (np.tril(sym) - np.triu(sym))]
    for n in range(1, d):
        diag = [1.0] * n + [-n] + [0.0] * (d - n - 1)
        basis.append(np.diag(diag) / math.sqrt(n * (n + 1)))
    t = np.stack([g.reshape(-1) for g in basis], axis=1)
    t.flags.writeable = False
    return t


def bloch(l: np.ndarray) -> np.ndarray:
    """Real T^H L T of a generator or (..., d^2, d^2) stack in the Bloch basis.

    A Lindblad generator maps Hermitian matrices to Hermitian ones, so
    (T^H L T)_jk = Tr[G_j L(G_k)] is real (the coherence-vector form; Alicki &
    Lendi, Quantum Dynamical Semigroups and Applications, LNP 286, 1987), and
    trace preservation makes row 0 zero.  The coordinates of rho are x = T^H
    vec(rho), with Tr rho = sqrt(d) x_0.
    """
    l = np.asarray(l)
    t = _bloch_basis(math.isqrt(l.shape[-1]))
    return np.ascontiguousarray((t.conj().T @ l @ t).real)


def steady_states(matrices: np.ndarray) -> np.ndarray:
    """Unique stationary density matrices of a stack of Bloch-basis generators.

    ``matrices`` has shape (N, d^2, d^2), real generators as :func:`bloch`
    returns them; the result has shape (N, d, d).  One stacked real solve
    inverts each A, L with its first row, zero by trace preservation,
    replaced by the trace constraint [sqrt(d), 0, ...]; column 0 is the
    state's coordinates x, and rho = T x.  Norms and singular values are
    those of the complex generator, as T is unitary.  That certifies a point
    unique, one singular value of L below the cut ``STATIONARY_NULL_TOL`` x
    max(largest, 1), when 1/|A^-1|_F <= sigma_min(A) <= sigma_2(L) is above
    twice the cut (at most one; A differs from L in one row) and
    sqrt(d) |L x| >= sigma_min(L) is below it (at least one).  Other points
    have their singular values counted; a count other than one raises
    :class:`ModelError`.  A residual |L x| not below
    ``STEADY_STATE_RESIDUAL_TOL`` at any point raises
    :class:`NumericFailure` naming the worst one.
    """
    if np.iscomplexobj(matrices):
        raise ModelError("steady_states takes real Bloch-basis generators; see qdyn.bloch")
    m = np.asarray(matrices, dtype=float)
    n, d2 = m.shape[:2]
    d = math.isqrt(d2)
    a = m.copy()
    a[:, 0, :] = 0.0
    a[:, 0, 0] = math.sqrt(d)
    try:
        inv = np.linalg.solve(a, np.broadcast_to(np.eye(d2), a.shape))
    except np.linalg.LinAlgError:
        inv = np.full(a.shape, np.nan)
    vecs = inv[..., :1].copy()
    with np.errstate(over="ignore", invalid="ignore"):  # not finite: not certified
        residual = np.linalg.norm((m @ vecs)[..., 0], axis=1)
        scale = np.maximum(np.linalg.norm(m, axis=(1, 2)), 1.0)
        # the bound at twice the cut absorbs its own rounding
        certified = (np.linalg.norm(inv, axis=(1, 2)) * scale < 0.5 / STATIONARY_NULL_TOL) & (
            residual * math.sqrt(d) < STATIONARY_NULL_TOL)
    sv = np.linalg.svd(m[~certified], compute_uv=False)
    n_null = np.sum(sv < STATIONARY_NULL_TOL * np.maximum(sv[:, :1], 1.0), axis=1)
    if np.any(n_null != 1):
        raise ModelError(
            f"stationary subspace has dimension {n_null[n_null != 1][0]}; steady "
            "state is not unique. Integrate for a long time from a chosen "
            "initial state instead."
        )
    worst = np.max(residual, initial=0.0)  # nan when a failed solve left no state
    if not worst < STEADY_STATE_RESIDUAL_TOL:
        raise NumericFailure(
            f"steady-state residual {worst:.3e} above {STEADY_STATE_RESIDUAL_TOL}"
        )
    # member by member (a matrix-vector product each), so a state's bits do
    # not depend on the batch
    rhos = (_bloch_basis(d) @ vecs).reshape(n, d, d)
    return check_density_matrix(rhos, "steady state")


def steady_state(l: np.ndarray) -> np.ndarray:
    """Unique stationary density matrix of one complex generator: its
    :func:`bloch` form through :func:`steady_states`, N = 1."""
    return steady_states(bloch(l[None]))[0]


def regression_correlator(
    l: np.ndarray,
    rho_ss: np.ndarray,
    a: np.ndarray,
    b_left: np.ndarray,
    b_right: np.ndarray,
    grid: TimeGrid,
) -> np.ndarray:
    """Two-time correlator C(tau) = Tr[a exp(L tau)(b_left rho_ss b_right)].

    Quantum-regression evolution of the (generally non-Hermitian) operator
    ``b_left @ rho_ss @ b_right`` under the same generator, evaluated on
    ``grid`` with the exact maps of :func:`evolve`.  Returns a complex
    array.
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
    traj = _verified_propagation(l, 0.0, [], s0.reshape(-1, 1), grid)
    a_vec = np.asarray(a, dtype=complex).T.reshape(-1)
    return traj[..., 0] @ a_vec
