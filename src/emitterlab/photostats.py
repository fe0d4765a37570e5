"""Photon-statistics observables of the driven emitter.

g2 correlation curves via the quantum regression theorem, Gaussian
detector-response convolution, windowed FFT peak extraction for Rabi
traces, and the incoherent resonance-fluorescence (Mollow) spectrum.
:func:`g2_curve` and :func:`apply_irf` return a :class:`TimeTrace` on the
grid they build; :func:`irf_kernel` is the detector response that
:func:`apply_irf` and the reconvolution fit of :mod:`fitkit` share;
:func:`hann_spectrum` is the windowed magnitude spectrum that
:func:`fft_peaks` searches, which returns the sorted peaks and the bin width;
:func:`emission_spectrum` returns the intensity at each requested
frequency.
"""

from __future__ import annotations

import math

import numpy as np

from . import peaks, qdyn, tls
from .errors import ModelError, NumericFailure
from .qdyn import TimeGrid, TimeTrace
from .tls import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    TWO_PI,
    Drive,
    TlsParams,
)

# Gaussian IRF kernels are truncated at this many standard deviations; the
# excluded mass (~6e-7) stays within the integral-preservation tolerance.
_KERNEL_CUTOFF_SIGMAS = 5.0


def g2_curve(params: TlsParams, drive: Drive, grid: TimeGrid) -> TimeTrace:
    """Second-order correlation g2(tau), two-sided by even reflection.

    g2(tau) = Tr[P_e exp(L tau)(sigma- rho_ss sigma+)] / rho_ee_ss^2 for
    tau >= 0 on ``grid`` (which must start at 0), mirrored to negative
    delays.  g2(0) = 0 for this single emitter and g2 -> 1 at large delay.
    """
    if abs(grid.t_start) > 1e-12:
        raise ModelError("g2 grid must start at tau = 0")
    g2 = tls.normalized_correlator(params, drive, grid)
    if np.min(g2) < -1e-9:
        raise NumericFailure(f"g2 went negative: min {np.min(g2):.3e}")
    g2 = np.maximum(g2, 0.0)
    values = np.concatenate([g2[:0:-1], g2])
    full_grid = TimeGrid(-grid.t_end, grid.t_end, 2 * grid.n_points - 1)
    return TimeTrace(grid=full_grid, values=values)


def irf_half_width(sigma: float, dt: float) -> int:
    """Samples on each side of the centre of :func:`irf_kernel`: ``ceil(5 sigma / dt)``."""
    if not 0.0 <= sigma < math.inf:
        raise ModelError(f"irf sigma must be finite and >= 0, got {sigma}")
    return int(math.ceil(_KERNEL_CUTOFF_SIGMAS * sigma / dt))


def irf_kernel(sigma: float, dt: float) -> np.ndarray:
    """Unit-area Gaussian detector response sampled at spacing ``dt``.

    Truncated at ``_KERNEL_CUTOFF_SIGMAS`` standard deviations, so it has
    ``2 h + 1`` samples for ``h =`` :func:`irf_half_width`; ``sigma = 0``
    gives the identity kernel ``[1.0]``.
    """
    half_width = irf_half_width(sigma, dt)
    if half_width == 0:
        return np.ones(1)
    offsets = np.arange(-half_width, half_width + 1) * dt
    with np.errstate(over="ignore"):  # a sigma far below dt: exp(-inf) = 0 is the limit
        kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    return kernel / kernel.sum()


def apply_irf(trace: TimeTrace, sigma: float) -> TimeTrace:
    """Convolve a trace with the unit-area Gaussian detector response :func:`irf_kernel`.

    The data is zero-extended, so the output grid grows by the kernel
    half-width on each side and the total integral is preserved.
    ``sigma = 0`` returns an identical copy.
    """
    span = trace.grid.t_end - trace.grid.t_start
    if sigma > span / 4.0:
        raise ModelError(
            f"irf sigma {sigma} exceeds a quarter of the trace span {span}"
        )
    kernel = irf_kernel(sigma, trace.grid.dt)
    half_width = kernel.size // 2
    dt = trace.grid.dt
    grid = TimeGrid(
        trace.grid.t_start - half_width * dt,
        trace.grid.t_end + half_width * dt,
        trace.grid.n_points + 2 * half_width,
    )
    return TimeTrace(grid=grid, values=np.convolve(trace.values, kernel, mode="full"))


def hann_spectrum(trace: TimeTrace) -> tuple:
    """(freqs_ghz, magnitude) of a trace: mean removed, Hann window, FFT zero-padded 4x."""
    y = trace.values - np.mean(trace.values)
    n_fft = 4 * y.size
    mag = np.abs(np.fft.rfft(y * np.hanning(y.size), n_fft))
    return np.fft.rfftfreq(n_fft, d=trace.grid.dt), mag


def fft_peaks(trace: TimeTrace):
    """Peaks of the :func:`hann_spectrum` of a trace, and its bin width.

    Peaks are interior local maxima above 5% of the global maximum,
    refined by 3-point parabolic interpolation.

    Returns
    -------
    (list of (freq_ghz, magnitude), float)
        The peaks sorted by magnitude (ties toward lower frequency) and the
        frequency bin width in GHz.
    """
    freqs, mag = hann_spectrum(trace)
    found = [peaks.parabolic_refine(freqs, mag, i)
             for i in peaks.local_maxima(mag, min_fraction=0.05)]
    found.sort(key=lambda fm: (-fm[1], fm[0]))
    return found, freqs[1]


def emission_spectrum(params: TlsParams, drive: Drive, freq_range) -> np.ndarray:
    """Incoherent resonance-fluorescence spectrum at each frequency of the range.

    Transform of the stationary dipole correlator <sigma+(tau) sigma-(0)>
    minus its coherent (mean-field) part, in closed form as the resolvent
    S(w) = 2 Re Tr[sigma+ (i w - L + Q)^-1 x] with x = sigma- rho_ss -
    <sigma-> rho_ss and Q = |rho_ss>><<1| regularising the zero mode
    (Johansson, Nation & Nori, CPC 184, 1234 (2013)).  All requested
    frequencies f (GHz, relative to the transition; w = 2 pi (f - Delta))
    are one stacked solve.  Under strong drive this produces the
    three-peaked Mollow structure at Delta and Delta +/- Omega_g.
    """
    freq = np.asarray(freq_range, dtype=float)
    if freq.size < 3 or np.any(np.diff(freq) <= 0):
        raise ModelError("freq_range must be increasing with at least 3 points")
    l = tls.tls_liouvillian(params, drive)
    rho_ss = qdyn.steady_state(l)
    x = SIGMA_MINUS @ rho_ss - np.trace(SIGMA_MINUS @ rho_ss) * rho_ss
    q = np.outer(rho_ss.reshape(-1), np.eye(2).reshape(-1))
    omega_rot = TWO_PI * (freq - drive.detuning_ghz)
    lhs = 1j * omega_rot[:, None, None] * np.eye(4) - l + q
    y = np.linalg.solve(lhs, np.broadcast_to(x.reshape(4, 1), (freq.size, 4, 1)))
    s = 2.0 * np.real(y[..., 0] @ SIGMA_PLUS.T.reshape(-1))
    floor = -1e-6 * max(np.max(s), 1e-300)
    if np.min(s) < floor:
        raise NumericFailure(
            f"emission spectrum went negative beyond tolerance: {np.min(s):.3e}"
        )
    return np.maximum(s, 0.0)
