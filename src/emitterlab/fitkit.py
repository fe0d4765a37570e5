"""Levenberg-Marquardt engine and the experiment-specific fit models.

The engine minimizes chi^2 = sum(w^2 (y - f)^2) with a numerically
differenced Jacobian (central differences, relative step 1e-6) and damped
normal equations.  Positive parameters are fitted in log space (smooth
reparameterization, no clipping).  Convergence: relative chi^2 change
below 1e-10 or step norm below 1e-12, capped at 500 iterations.

:func:`fit_rabi` is a reconvolution fit through the detector response
(IRF) and uses Poisson weights, sigma^2 = max(counts, 1), which reduce to
unit weights for normalized curves; the other fits use unit weights.  The
fits take their data as (x, y) arrays, :func:`fit_rabi` as a uniformly
sampled trace.  Initialization heuristics are fixed so fits reproduce
without hand-tuned seeds: Rabi frequency from the FFT peak (through an
IRF, if that peak is too slow, from the spectrum with the IRF transfer
divided out), decay
constants from log-linear regression, Lorentzian moments from
half-maximum crossings.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tls
from .errors import ModelError, NumericFailure
from .peaks import parabolic_refine
from .photostats import fft_peaks, hann_spectrum, irf_half_width, irf_kernel
from .qdyn import TimeGrid, TimeTrace

MAX_ITER = 500
CHI2_RTOL = 1e-10
STEP_TOL = 1e-12
_JAC_REL_STEP = 1e-6
_OVERFLOW = "fit overflows float64: {} beyond 1.8e308; rescale the data"
_IDENTITY = np.ones(1)  # the detector response of an ideal detector
# the smallest share of an oscillation that the IRF may keep for it to be fitted
_IRF_MIN_TRANSFER = 1e-2
# an IRF-corrected spectral peak sets the start frequency only above this many
# times the Poisson noise RMS of its bin (noise exceeds it with p = exp(-9))
_PEAK_NOISE_RATIO = 3.0


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
        Non-finite model at the start, singular normal equations that
        damping cannot rescue, or a chi^2 or normal equations that overflow.
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
        # a step far into log space overflows exp or the model; the caller
        # rejects or reports the non-finite result, so it warns nowhere
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            p = to_p(q)
            if not np.all(np.isfinite(p)):
                return np.full(x.shape, np.nan)
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
    chi2 = _sum_sq(resid)
    if not math.isfinite(chi2):
        raise NumericFailure(_OVERFLOW.format("chi^2 at the initial parameters"))

    lam = 1e-3
    n_iter = 0
    converged = False
    message = "max iterations (%d) reached" % MAX_ITER
    while n_iter < MAX_ITER:
        n_iter += 1
        jac = jacobian(q)
        with np.errstate(over="ignore", invalid="ignore"):
            col_norms = np.linalg.norm(jac, axis=0)
            a = jac.T @ jac
            g = jac.T @ resid
        if np.any(col_norms == 0.0):
            dead = names[int(np.argmin(col_norms))]
            raise NumericFailure(
                f"singular normal equations: parameter '{dead}' has no effect "
                "on the model, which damping cannot rescue"
            )
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(g))):
            raise NumericFailure(_OVERFLOW.format("the normal equations"))
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
            chi2_try = _sum_sq(w * (y - f_try)) if np.all(np.isfinite(f_try)) else math.inf
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
    # a parameter run off toward the float64 limit gets an infinite uncertainty
    with np.errstate(over="ignore", invalid="ignore"):
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


def _sum_sq(r: np.ndarray) -> float:
    """``r @ r``, inf without a warning where it overflows float64."""
    with np.errstate(over="ignore"):
        return float(r @ r)


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


def rabi_model(x, omega_ghz, t2_ns, scale_a, offset_dg, dt_ns, t1_ns, kernel=_IDENTITY):
    """scale_a * (kernel * P)(x) + offset_dg with the damped-Rabi P(|tau - dt|).

    The forward map of :func:`photostats.apply_irf`: P is evaluated on x
    without the kernel half-width at each end and convolved, zero-extended,
    back onto x.  The identity kernel ``[1.0]`` leaves P on all of x.
    """
    half_width = kernel.size // 2
    inner = x[half_width:x.size - half_width]
    omega_angular = tls.TWO_PI * omega_ghz
    p = tls._population_formula(t1_ns, t2_ns, omega_angular, inner - dt_ns)
    return scale_a * np.convolve(p, kernel, mode="full") + offset_dg


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


def _irf_omega(data: TimeTrace, sigma: float, half_width: int) -> tuple:
    """The start frequency of a fit through an IRF of width ``sigma``.

    Searches the :func:`photostats.hann_spectrum` of the data less the kernel
    half-width at each end, whose zero-extended edges would otherwise
    dominate, divided by the IRF transfer exp(-(2 pi f sigma)^2 / 2), in the
    band f >= 3 / span where that transfer is at least ``_IRF_MIN_TRANSFER``.

    Returns
    -------
    (float or None, str or None)
        ``(frequency, None)`` for the refined strongest peak;
        ``(None, why)`` when that peak lies within 2 bins of the band's
        upper edge, where the division amplifies noise most and an
        oscillation above the band looks the same; ``(None, None)`` when
        the peak is below ``_PEAK_NOISE_RATIO`` times the Poisson noise
        RMS of a bin, so no oscillation is found.
    """
    grid, n_inner = data.grid, data.values.size - 2 * half_width
    values = data.values[half_width:half_width + n_inner]
    inner = TimeTrace(TimeGrid(grid.t_start + half_width * grid.dt,
                               grid.t_end - half_width * grid.dt, n_inner), values)
    freqs, mag = hann_spectrum(inner)
    transfer = np.exp(-0.5 * (tls.TWO_PI * sigma * freqs) ** 2)
    band = np.flatnonzero((transfer >= _IRF_MIN_TRANSFER)
                          & (freqs >= 3.0 / (grid.t_end - grid.t_start)))
    edge = min(math.sqrt(-2.0 * math.log(_IRF_MIN_TRANSFER)) / (tls.TWO_PI * sigma),
               freqs[-1])
    corrected = mag[band] / transfer[band]
    peak = int(np.argmax(corrected)) if band.size else -1
    if peak < 0 or freqs[band[peak]] > edge - 2.0 * freqs[1]:
        return None, (f"strongest spectral peak at the IRF band edge {edge:.3g} GHz, "
                      f"where the IRF keeps {_IRF_MIN_TRANSFER:.0%} of an oscillation")
    noise = math.sqrt(np.sum(np.hanning(n_inner) ** 2 * np.maximum(values, 1.0)))
    if mag[band[peak]] < _PEAK_NOISE_RATIO * noise:
        return None, None
    return parabolic_refine(freqs[band], corrected, peak)[0], None


def _through_irf(message: str, irf_sigma: float) -> str:
    """A failed Rabi fit's message, naming the detector response if there is one."""
    if irf_sigma == 0.0:
        return message
    return f"{message}; no oscillation survives the IRF (irf_sigma_ns={irf_sigma:g})"


def fit_rabi(data: TimeTrace, t1_fixed: float, irf_sigma: float = 0.0) -> FitResult:
    """Reconvolution fit of a Rabi trace or g2 curve, Poisson-weighted.

    The model is :func:`rabi_model` through the detector response of
    width ``irf_sigma`` (ns), built once by :func:`photostats.irf_kernel`:
    the forward map that ``synth`` and ``g2`` apply.  Free parameters:
    omega_ghz, t2_ns, scale_a, offset_dg, dt_ns; t1 is a measured input,
    never fitted.  The start frequency is the strongest spectral peak; where
    that covers fewer than 3 periods through an IRF, :func:`_irf_omega`
    searches again with the IRF divided out.  Non-oscillatory data, a
    spectral peak at the edge of the band the IRF lets through, and a
    fitted frequency above the Nyquist frequency of the sampling (an
    oscillation the IRF washed out) come back with ``converged=False`` and
    a diagnostic instead of raising.
    """
    x = data.grid.times()
    y = data.values
    size = 2 * irf_half_width(irf_sigma, data.grid.dt) + 1
    if size >= x.size:
        raise ModelError(f"irf sigma {irf_sigma} ns: its {size}-sample kernel "
                         f"does not fit in the {x.size} data points")
    kernel = irf_kernel(irf_sigma, data.grid.dt)
    init = {"omega_ghz": 1.0, "t2_ns": t1_fixed, "scale_a": 1.0,
            "offset_dg": 0.0, "dt_ns": 0.0}
    omega0 = _estimate_omega(x, y)
    span = float(x[-1] - x[0])
    if irf_sigma > 0.0 and (omega0 is None or span * omega0 < 3.0):
        # the plain spectrum peaks at the edges that the IRF smears
        irf_omega0, why = _irf_omega(data, irf_sigma, kernel.size // 2)
        if why is not None:
            return _failed(init, _through_irf(why, irf_sigma))
        if irf_omega0 is not None:
            omega0 = irf_omega0
    if omega0 is None:
        return _failed(init, _through_irf("non-oscillatory data: no spectral peak found",
                                          irf_sigma))
    if span * omega0 < 3.0:
        return _failed(init, _through_irf(
            f"data covers only {span * omega0:.2f} oscillation periods (< 3)", irf_sigma))
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

    # the Jacobian columns of scale_a and offset_dg reuse the convolved
    # shape of the point they differentiate at
    @functools.lru_cache(maxsize=8)
    def shape(omega_ghz, t2_ns, dt_ns):
        return rabi_model(x, omega_ghz, t2_ns, 1.0, 0.0, dt_ns, t1_ns=t1_fixed, kernel=kernel)

    def model(xv, omega_ghz, t2_ns, scale_a, offset_dg, dt_ns):  # xv is x
        return scale_a * shape(omega_ghz, t2_ns, dt_ns) + offset_dg

    result = lm_fit(
        model, x, y, init, weights=1.0 / np.sqrt(np.maximum(y, 1.0)),
        positive=("omega_ghz", "t2_ns", "scale_a"),
    )
    nyquist = 0.5 / data.grid.dt
    if result.converged and result["omega_ghz"] > nyquist:
        result.converged = False
        result.message = _through_irf(
            f"fitted omega_ghz={result['omega_ghz']:.4g} is above the Nyquist "
            f"frequency {nyquist:.4g} GHz of the sampling", irf_sigma)
    result.extra["t1_ns_fixed"] = t1_fixed
    result.extra["irf_sigma_ns"] = irf_sigma
    return result


# -- simple models --------------------------------------------------------------


def fit_linear_sqrtp(power_nw, omega_ghz) -> FitResult:
    """Linear regression of frequency versus sqrt(power).

    Closed-form solution; ``extra["r_squared"]`` reports the goodness of
    the linear trend.  Sums of squares beyond float64 raise NumericFailure.
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
    chi2 = _sum_sq(resid)
    with np.errstate(over="ignore"):
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if not (math.isfinite(chi2) and math.isfinite(ss_tot)):
        raise NumericFailure(_OVERFLOW.format("the sum of squares"))
    dof = max(x.size - 2, 1)
    chi2_red = chi2 / dof
    cov = np.linalg.inv(design.T @ design) * chi2_red
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
