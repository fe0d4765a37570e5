"""Levenberg-Marquardt engine and the experiment-specific fit models.

The engine minimizes chi^2 = sum(w^2 (y - f)^2) with a numerically
differenced Jacobian (central differences, relative step 1e-6) and damped
normal equations.  Positive parameters are fitted in log space (smooth
reparameterization, no clipping).  Convergence: relative chi^2 change
below 1e-10 or step norm below 1e-12, capped at 500 iterations.

:func:`fit_rabi` uses Poisson weights, sigma^2 = max(counts, 1), which
reduce to unit weights for normalized curves; the other fits use unit
weights.  The fits take their data as (x, y) arrays, :func:`fit_rabi` as
a uniformly sampled trace.  Initialization heuristics are fixed so fits
reproduce without hand-tuned seeds: Rabi frequency from the FFT peak,
decay constants from log-linear regression, Lorentzian moments from
half-maximum crossings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tls
from .errors import ModelError, NumericFailure
from .photostats import fft_peaks
from .qdyn import TimeGrid, TimeTrace

MAX_ITER = 500
CHI2_RTOL = 1e-10
STEP_TOL = 1e-12
_JAC_REL_STEP = 1e-6


@dataclass
class FitResult:
    """Named best-fit parameters with uncertainties and diagnostics."""

    params: dict
    stderr: dict
    covariance: np.ndarray
    chi2_reduced: float
    n_iter: int
    converged: bool
    message: str = ""
    extra: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> float:
        return self.params[name]


def lm_fit(
    model,
    x: np.ndarray,
    y: np.ndarray,
    p0: dict,
    weights: np.ndarray | None = None,
    positive: tuple = (),
) -> FitResult:
    """Levenberg-Marquardt least squares of ``model(x, **params)`` to y.

    Parameters
    ----------
    model : callable
        ``model(x, **params) -> ndarray``; must be finite at ``p0``.
    p0 : dict
        Named initial parameters; insertion order fixes the parameter
        vector layout.
    weights : ndarray, optional
        Residual weights 1/sigma, one per point; unit weights by default.
    positive : tuple of str
        Parameter names constrained positive by log reparameterization.

    Raises
    ------
    ModelError
        Fewer data points than free parameters, or bad inputs.
    NumericFailure
        Non-finite model at the start, or singular normal equations that
        damping cannot rescue.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ModelError("x and y lengths differ")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ModelError("fit data contain non-finite values")
    names = list(p0)
    if x.size < len(names):
        raise ModelError(
            f"{x.size} data points cannot constrain {len(names)} free parameters"
        )
    for name in positive:
        if name not in p0:
            raise ModelError(f"positive-constrained '{name}' is not a parameter")
        if p0[name] <= 0:
            raise ModelError(f"initial '{name}' must be positive, got {p0[name]}")
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != y.shape:
        raise ModelError("weight array length does not match data")
    is_log = np.array([n in positive for n in names])

    def to_q(p):
        q = np.array(p, dtype=float)
        q[is_log] = np.log(q[is_log])
        return q

    def to_p(q):
        p = np.array(q, dtype=float)
        p[is_log] = np.exp(p[is_log])
        return p

    def evaluate(q):
        p = to_p(q)
        f = model(x, **dict(zip(names, p)))
        return np.asarray(f, dtype=float)

    def jacobian(q):
        """Weighted central-difference Jacobian of the model at q."""
        jac = np.empty((x.size, len(names)))
        for j in range(len(names)):
            h = _JAC_REL_STEP * max(abs(q[j]), 1e-3)
            qp, qm = q.copy(), q.copy()
            qp[j] += h
            qm[j] -= h
            jac[:, j] = w * (evaluate(qp) - evaluate(qm)) / (2.0 * h)
        return jac

    q = to_q(np.array([float(p0[n]) for n in names]))
    f = evaluate(q)
    if not np.all(np.isfinite(f)):
        raise NumericFailure("model is non-finite at the initial parameters")
    resid = w * (y - f)
    chi2 = float(resid @ resid)

    lam = 1e-3
    n_iter = 0
    converged = False
    message = "max iterations (%d) reached" % MAX_ITER
    while n_iter < MAX_ITER:
        n_iter += 1
        jac = jacobian(q)
        col_norms = np.linalg.norm(jac, axis=0)
        if np.any(col_norms == 0.0):
            dead = names[int(np.argmin(col_norms))]
            raise NumericFailure(
                f"singular normal equations: parameter '{dead}' has no effect "
                "on the model, which damping cannot rescue"
            )
        a = jac.T @ jac
        g = jac.T @ resid
        accepted = False
        solvable = False
        for _ in range(24):
            damped = a + lam * np.diag(np.maximum(np.diag(a), 1e-300))
            try:
                step = np.linalg.solve(damped, g)
                solvable = True
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            q_try = q + step
            f_try = evaluate(q_try)
            chi2_try = (
                float((w * (y - f_try)) @ (w * (y - f_try)))
                if np.all(np.isfinite(f_try))
                else math.inf
            )
            if chi2_try <= chi2:
                accepted = True
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if not solvable:
            raise NumericFailure("singular normal equations; damped retries exhausted")
        if not accepted:
            converged = True
            message = "no further chi^2 reduction possible"
            break
        rel_drop = (chi2 - chi2_try) / max(chi2, 1e-300)
        q, f, resid, chi2 = q_try, f_try, w * (y - f_try), chi2_try
        lam = max(lam * 0.3, 1e-12)
        if rel_drop < CHI2_RTOL:
            converged = True
            message = "relative chi^2 change below tolerance"
            break
        if np.linalg.norm(step) < STEP_TOL * (1.0 + np.linalg.norm(q)):
            converged = True
            message = "step norm below tolerance"
            break

    p = to_p(q)
    dof = max(x.size - len(names), 1)
    chi2_red = chi2 / dof
    jac = jacobian(q)
    try:
        cov_q = np.linalg.inv(jac.T @ jac) * chi2_red
    except np.linalg.LinAlgError:
        cov_q = np.linalg.pinv(jac.T @ jac) * chi2_red
    scale = np.where(is_log, p, 1.0)
    cov = cov_q * np.outer(scale, scale)
    stderr = {n: float(math.sqrt(max(cov[i, i], 0.0))) for i, n in enumerate(names)}
    return FitResult(
        params={n: float(v) for n, v in zip(names, p)},
        stderr=stderr,
        covariance=cov,
        chi2_reduced=float(chi2_red),
        n_iter=n_iter,
        converged=converged,
        message=message,
    )


def _failed(names: dict, message: str) -> FitResult:
    k = len(names)
    return FitResult(
        params=dict(names),
        stderr={n: math.inf for n in names},
        covariance=np.full((k, k), np.nan),
        chi2_reduced=math.nan,
        n_iter=0,
        converged=False,
        message=message,
    )


# -- damped-Rabi / g2 model ----------------------------------------------------


def rabi_model(x, omega_ghz, t2_ns, scale_a, offset_dg, dt_ns, t1_ns, mu_mode):
    """scale_a * P(|tau - dt|) + offset_dg with the damped-Rabi P."""
    omega_angular = tls.TWO_PI * omega_ghz
    p = tls._population_formula(t1_ns, t2_ns, omega_angular, x - dt_ns, mu_mode)
    return scale_a * p + offset_dg


def _estimate_omega(x: np.ndarray, y: np.ndarray):
    """Dominant oscillation frequency of uniformly sampled data, or None."""
    dx = np.diff(x)
    if dx.size == 0 or np.max(np.abs(dx - dx[0])) > 1e-6 * abs(dx[0]):
        return None
    trace = TimeTrace(TimeGrid(float(x[0]), float(x[-1]), x.size), y)
    found, _ = fft_peaks(trace)
    if not found or found[0][0] <= 0:
        return None
    return found[0][0]


def fit_rabi(data: TimeTrace, t1_fixed: float, mu_mode: str = "auto") -> FitResult:
    """Fit a Rabi trace or g2 curve with the damped-Rabi model, Poisson-weighted.

    Free parameters: omega_ghz, t2_ns, scale_a, offset_dg, dt_ns; t1 is a
    measured input, never fitted.  Returns ``converged=False`` with a
    diagnostic for non-oscillatory data instead of raising.
    """
    mode = tls.resolve_mu_mode(mu_mode)
    x = data.grid.times()
    y = data.values
    init = {"omega_ghz": 1.0, "t2_ns": t1_fixed, "scale_a": 1.0,
            "offset_dg": 0.0, "dt_ns": 0.0}
    omega0 = _estimate_omega(x, y)
    if omega0 is None:
        return _failed(init, "non-oscillatory data: no spectral peak found")
    span = float(x[-1] - x[0])
    if span * omega0 < 3.0:
        return _failed(
            init, f"data covers only {span * omega0:.2f} oscillation periods (< 3)"
        )
    dg0 = float(np.min(y))
    tail = max(3, x.size // 10)
    a0 = max(float(np.mean(np.sort(y)[-tail:])) - dg0, 1e-6)
    init.update(
        omega_ghz=float(omega0),
        t2_ns=float(t1_fixed),
        scale_a=a0,
        offset_dg=dg0,
        dt_ns=0.0,
    )

    def model(xv, omega_ghz, t2_ns, scale_a, offset_dg, dt_ns):
        return rabi_model(xv, omega_ghz, t2_ns, scale_a, offset_dg, dt_ns,
                          t1_ns=t1_fixed, mu_mode=mode)

    result = lm_fit(
        model, x, y, init, weights=1.0 / np.sqrt(np.maximum(y, 1.0)),
        positive=("omega_ghz", "t2_ns", "scale_a"),
    )
    result.extra["mu_mode"] = mode
    result.extra["t1_ns_fixed"] = t1_fixed
    return result


# -- simple models --------------------------------------------------------------


def fit_linear_sqrtp(power_nw, omega_ghz) -> FitResult:
    """Linear regression of frequency versus sqrt(power).

    Closed-form solution; ``extra["r_squared"]`` reports the goodness of
    the linear trend.
    """
    power = np.asarray(power_nw, dtype=float)
    y = np.asarray(omega_ghz, dtype=float)
    if power.ndim != 1 or power.shape != y.shape or power.size < 3:
        raise ModelError("need at least 3 (power, omega) pairs")
    if np.any(power < 0):
        raise ModelError("powers must be >= 0")
    x = np.sqrt(power)
    if np.max(x) - np.min(x) <= 1e-12 * max(np.max(np.abs(x)), 1.0):
        raise ModelError("degenerate abscissas: all powers identical")
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - design @ coef
    chi2 = float(resid @ resid)
    dof = max(x.size - 2, 1)
    chi2_red = chi2 / dof
    cov = np.linalg.inv(design.T @ design) * chi2_red
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - chi2 / ss_tot if ss_tot > 0 else 1.0
    return FitResult(
        params={"slope": slope, "intercept": intercept},
        stderr={
            "slope": float(math.sqrt(max(cov[0, 0], 0.0))),
            "intercept": float(math.sqrt(max(cov[1, 1], 0.0))),
        },
        covariance=cov,
        chi2_reduced=chi2_red,
        n_iter=1,
        converged=True,
        message="closed-form linear regression",
        extra={"r_squared": float(r2)},
    )


def lorentzian_model(x, center, fwhm, height, offset):
    hw = 0.5 * fwhm
    return height * hw**2 / ((x - center) ** 2 + hw**2) + offset


def fit_lorentzian_fwhm(x, y) -> FitResult:
    """Lorentzian least squares of y(x); moment-based initialization.

    The curve must bracket the half maximum on both sides of the peak.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    i_max = int(np.argmax(y))
    offset0 = float(np.min(y))
    height0 = float(y[i_max] - offset0)
    if height0 <= 0:
        raise ModelError("curve has no peak above its baseline")
    half = offset0 + 0.5 * height0
    above = y > half
    if above[0] or above[-1]:
        raise ModelError("curve does not bracket the half maximum on both sides")
    left = np.where(above[: i_max + 1] == False)[0]  # noqa: E712
    right = np.where(above[i_max:] == False)[0]
    fwhm0 = float(x[i_max + right[0]] - x[left[-1]]) if len(left) and len(right) else (
        float(x[-1] - x[0]) / 4.0
    )
    if fwhm0 > 0.5 * float(x[-1] - x[0]):
        raise ModelError(
            "curve does not bracket the half maximum on both sides: the scan "
            "range barely exceeds the apparent width"
        )
    init = {
        "center": float(x[i_max]),
        "fwhm": max(fwhm0, 1e-9),
        "height": height0,
        "offset": offset0,
    }
    return lm_fit(lorentzian_model, x, y, init, positive=("fwhm", "height"))


def exp_decay_model(x, amplitude, tau_ns, offset):
    return amplitude * np.exp(-x / tau_ns) + offset


def fit_exp_decay(x, y) -> FitResult:
    """A exp(-t/tau) + c fit of y(x) with log-linear initialization.

    Needs at least 4 points spanning at least one decay constant; constant
    or non-decaying data come back with ``converged=False``.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size < 4:
        raise ModelError("exponential fit needs at least 4 points")
    init = {"amplitude": 1.0, "tau_ns": 1.0, "offset": 0.0}
    spread = float(np.max(y) - np.min(y))
    if spread <= 1e-12 * max(np.max(np.abs(y)), 1.0):
        return _failed(init, "constant data: nothing decays")
    offset0 = float(np.min(y))
    shifted = y - offset0
    mask = shifted > 1e-3 * spread
    if np.count_nonzero(mask) < 3:
        return _failed(init, "too few points above baseline for a decay estimate")
    slope, logamp = np.polyfit(x[mask], np.log(shifted[mask]), 1)
    if slope >= 0:
        return _failed(init, "data do not decay (log-linear slope >= 0)")
    init.update(amplitude=float(np.exp(logamp)), tau_ns=float(-1.0 / slope),
                offset=offset0)
    result = lm_fit(exp_decay_model, x, y, init, positive=("amplitude", "tau_ns"))
    if result.converged and float(x[-1] - x[0]) < result["tau_ns"]:
        raise ModelError("data span less than one decay constant")
    return result


def sine_sqrtp_model(x, amplitude, period, phase, offset):
    """sin^2 oscillation in sqrt(power); first maximum is the pi pulse."""
    return amplitude * np.sin(math.pi * x / period + phase) ** 2 + offset


def fit_sine_sqrtp(x, y) -> FitResult:
    """Fit counts y versus sqrt(power) x with A sin^2(pi x / period + phase) + c."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 5:
        raise ModelError("need at least 5 (sqrt_power, counts) pairs")
    init = {"amplitude": 1.0, "period": 1.0, "phase": 0.0, "offset": 0.0}
    spread = float(np.max(y) - np.min(y))
    if spread <= 1e-12 * max(np.max(np.abs(y)), 1.0):
        return _failed(init, "zero-amplitude data")
    # sin^2(pi x/period) completes one cycle per period: FFT peak at 1/period
    freq0 = _estimate_omega(x, y)
    if freq0 is None or freq0 <= 0:
        period0 = float(x[-1] - x[0]) / 2.0
    else:
        period0 = 1.0 / freq0
    if (x[-1] - x[0]) < period0:
        raise ModelError("data span less than one sin^2 period")
    amp0 = spread
    offset0 = float(np.min(y))
    best = None
    for phase0 in np.linspace(0.0, math.pi, 8, endpoint=False):
        trial = dict(init, amplitude=amp0, period=period0, phase=float(phase0),
                     offset=offset0)
        r = np.sum((y - sine_sqrtp_model(x, **trial)) ** 2)
        if best is None or r < best[0]:
            best = (r, trial)
    return lm_fit(sine_sqrtp_model, x, y, best[1], positive=("amplitude", "period"))
