"""Driven two-level-system models.

Basis convention: index 0 is the ground state, index 1 the excited state.
Public interfaces take ordinary frequencies in GHz (Omega/2pi) and convert
to angular rad/ns exactly once, here.

The damped-Rabi population formula implemented by
:func:`rabi_population_analytic`,

    P(tau) = 1 - exp(-eta|tau|) (cos(mu|tau|) + (eta/mu) sin(mu|tau|)),

with eta = 1/(2 T1) + 1/(2 T2), carries a sign ambiguity in
mu = sqrt(Omega_g^2 +/- (1/(2 T1) - 1/(2 T2))^2).  Rather than hard-coding
one sign, :func:`mu_mode_oracle` discriminates the two candidates against
the Lindblad engine once per process and the winning mode is used wherever
``mu_mode="auto"`` is requested.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qdyn
from .errors import ModelError, NumericFailure
from .qdyn import TimeGrid, TimeTrace

GROUND = 0
EXCITED = 1

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_PLUS = SIGMA_MINUS.conj().T
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PROJ_EXCITED = np.diag([0.0, 1.0]).astype(complex)
# The detuning enters the rotating-frame Hamiltonian only as Delta * DETUNING.
DETUNING = np.diag([0.0, -1.0]).astype(complex)
RHO_GROUND = np.diag([1.0, 0.0]).astype(complex)

TWO_PI = 2.0 * math.pi

# Gaussian pulses are centered this many FWHMs after their period start so
# the truncated leading tail is negligible (< 2e-5 of the peak).
_GAUSS_CENTER_FWHM = 2.0


@dataclass(frozen=True)
class TlsParams:
    """Emitter constants: lifetime t1 and optical coherence time t2 (ns).

    Pure dephasing is derived: gamma_phi = 1/t2 - 1/(2 t1) >= 0, which
    requires 0 < t2 <= 2 t1.
    """

    t1: float
    t2: float

    def __post_init__(self):
        if not self.t1 > 0:
            raise ModelError(f"t1 must be positive, got {self.t1}")
        if not 0 < self.t2 <= 2.0 * self.t1 + 1e-12:
            raise ModelError(
                f"need 0 < t2 <= 2*t1 (physicality), got t2={self.t2}, t1={self.t1}"
            )

    @property
    def gamma_phi(self) -> float:
        """Pure dephasing rate 1/t2 - 1/(2 t1) in rad/ns."""
        return max(1.0 / self.t2 - 0.5 / self.t1, 0.0)


@dataclass(frozen=True)
class Drive:
    """cw drive: Rabi frequency Omega/2pi and detuning Delta/2pi, both GHz.

    Detuning is laser frequency minus transition frequency.
    """

    rabi_ghz: float
    detuning_ghz: float = 0.0

    def __post_init__(self):
        if self.rabi_ghz < 0:
            raise ModelError(f"rabi_ghz must be >= 0, got {self.rabi_ghz}")


@dataclass(frozen=True)
class PulseEnvelope:
    """Periodic pulse envelope with unit peak amplitude.

    ``duration`` is the on-time for square pulses and the FWHM for gaussian
    ones; ``rise_time`` applies a cosine ramp to each square edge (0 keeps
    the edges exactly sharp, which the integrator handles by splitting
    steps at the discontinuities).
    """

    shape: str = "square"
    duration: float = 5.0
    period: float = 15.0
    rise_time: float = 0.0

    def __post_init__(self):
        if self.shape not in ("square", "gaussian"):
            raise ModelError(f"unknown pulse shape '{self.shape}'")
        if not 0 < self.duration < self.period:
            raise ModelError(
                f"need 0 < duration < period, got {self.duration}, {self.period}"
            )
        if self.rise_time < 0 or 2.0 * self.rise_time > self.duration:
            raise ModelError("rise_time must satisfy 0 <= 2*rise_time <= duration")

    def area_factor(self) -> float:
        """Integral of one envelope period (ns); pulse area = Omega * this."""
        if self.shape == "square":
            return self.duration - self.rise_time
        sigma = self.duration / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        return sigma * math.sqrt(2.0 * math.pi)

    def on_end(self) -> float:
        """Time within one period after which the envelope is (essentially) off."""
        if self.shape == "square":
            return self.duration
        return min(2.0 * _GAUSS_CENTER_FWHM * self.duration, self.period)


@dataclass(frozen=True)
class PowerCalib:
    """Saturation-power calibration: s = P/p_sat with s = Omega^2 T1 T2."""

    p_sat_nw: float

    def __post_init__(self):
        if not self.p_sat_nw > 0:
            raise ModelError(f"p_sat_nw must be positive, got {self.p_sat_nw}")


# -- generator construction --------------------------------------------------


def decay_jumps(params: TlsParams) -> list:
    """Radiative decay plus a pure-dephasing jump on the excited projector.

    The dephasing rate is fixed so the off-diagonal Lindblad decay equals
    exactly 1/t2.
    """
    jumps = [math.sqrt(1.0 / params.t1) * SIGMA_MINUS]
    if params.gamma_phi > 0:
        jumps.append(math.sqrt(2.0 * params.gamma_phi) * PROJ_EXCITED)
    return jumps


def drive_hamiltonian(drive: Drive) -> np.ndarray:
    """Rotating-frame Hamiltonian in rad/ns: -Delta|e><e| + (Omega/2) sigma_x."""
    delta = TWO_PI * drive.detuning_ghz
    omega = TWO_PI * drive.rabi_ghz
    return delta * DETUNING + 0.5 * omega * SIGMA_X


def tls_liouvillian(params: TlsParams, drive: Drive) -> np.ndarray:
    return qdyn.build_liouvillian(drive_hamiltonian(drive), decay_jumps(params))


def _detuned_liouvillians(params: TlsParams, rabi_ghz: float, detunings) -> np.ndarray:
    """(N, 4, 4) generators at the detunings (GHz): affine in Delta * DETUNING."""
    l0 = tls_liouvillian(params, Drive(rabi_ghz=rabi_ghz))
    delta = TWO_PI * np.asarray(detunings, dtype=float)
    return l0 + delta[:, None, None] * qdyn.hamiltonian_superop(DETUNING)


def internal_step(params: TlsParams, omega_angular: float) -> float:
    """Fixed internal RK4 step: min(t1, t2, 2pi/Omega_g)/200."""
    scales = [params.t1, params.t2]
    if omega_angular > 0:
        scales.append(TWO_PI / omega_angular)
    return min(scales) / 200.0


# -- operations ---------------------------------------------------------------


def generalized_rabi(drive: Drive) -> float:
    """Oscillation frequency sqrt(detuning^2 + rabi^2) in GHz."""
    return math.hypot(drive.detuning_ghz, drive.rabi_ghz)


@dataclass(frozen=True)
class MuModeOracle:
    """Outcome of the one-shot sign discrimination for the damped-Rabi mu."""

    mode: str
    rms_minus: float
    rms_plus: float


def _population_formula(t1, t2, omega_g_angular, tau, mode):
    """Damped-Rabi population, normalized to 1 at large tau.

    Valid for any t1, t2 > 0 (no physicality constraint), which lets it
    double as an unconstrained fit model.
    """
    tau = np.abs(np.asarray(tau, dtype=float))
    eta = 0.5 / t1 + 0.5 / t2
    delta_rate = 0.5 / t1 - 0.5 / t2
    if mode == "plus":
        mu_sq = omega_g_angular**2 + delta_rate**2
    elif mode == "minus":
        mu_sq = omega_g_angular**2 - delta_rate**2
    else:
        raise ModelError(f"unknown mu_mode '{mode}'")
    env = np.exp(-eta * tau)
    if mu_sq > 0:
        mu = math.sqrt(mu_sq)
        inner = np.cos(mu * tau) + (eta / mu) * np.sin(mu * tau)
    elif mu_sq < 0:
        m = math.sqrt(-mu_sq)
        inner = np.cosh(m * tau) + (eta / m) * np.sinh(m * tau)
    else:
        inner = 1.0 + eta * tau
    return 1.0 - env * inner


def normalized_correlator(params: TlsParams, drive: Drive, grid: TimeGrid) -> np.ndarray:
    """One-sided g2 on ``grid`` (tau >= 0), normalized to 1 at large delay.

    Regression theorem: Tr[P_e exp(L tau)(sigma- rho_ss sigma+)] / rho_ee_ss^2.
    """
    l = tls_liouvillian(params, drive)
    rho_ss = qdyn.steady_state(l)
    p_ee = rho_ss[EXCITED, EXCITED].real
    if p_ee < 1e-12:
        raise ModelError("undriven emitter has no correlation function")
    corr = qdyn.regression_correlator(
        l,
        rho_ss,
        PROJ_EXCITED,
        SIGMA_MINUS,
        SIGMA_PLUS,
        grid,
        dt_int=internal_step(params, TWO_PI * generalized_rabi(drive)),
    )
    if np.max(np.abs(corr.imag)) > 1e-8:
        raise NumericFailure("g2 correlator acquired an imaginary part")
    return corr.real / p_ee**2


@functools.lru_cache(maxsize=1)
def mu_mode_oracle() -> MuModeOracle:
    """Discriminate the two mu-sign candidates against the Lindblad engine.

    Runs once per process at Omega/2pi = 1 GHz, t1 = 1.85 ns, t2 = 1.62 ns
    on resonance and returns whichever mode agrees with the numeric
    correlator below 1e-6 RMS.  Raises if neither candidate passes or the
    two are not separated by at least three orders of magnitude.
    """
    params = TlsParams(t1=1.85, t2=1.62)
    drive = Drive(rabi_ghz=1.0, detuning_ghz=0.0)
    grid = TimeGrid(0.0, 10.0, 501)
    numeric = normalized_correlator(params, drive, grid)
    tau = grid.times()
    omega_g = TWO_PI * generalized_rabi(drive)
    rms = {}
    for mode in ("minus", "plus"):
        analytic = _population_formula(params.t1, params.t2, omega_g, tau, mode)
        rms[mode] = float(np.sqrt(np.mean((analytic - numeric) ** 2)))
    winner = min(rms, key=rms.get)
    loser = "plus" if winner == "minus" else "minus"
    if rms[winner] >= 1e-6:
        raise NumericFailure(
            f"neither mu mode matches the Lindblad oracle (best RMS {rms[winner]:.2e})"
        )
    if rms[loser] < 1e3 * rms[winner]:
        raise NumericFailure(
            "mu-mode oracle cannot discriminate the sign candidates "
            f"(RMS {rms['minus']:.2e} vs {rms['plus']:.2e})"
        )
    return MuModeOracle(mode=winner, rms_minus=rms["minus"], rms_plus=rms["plus"])


def resolve_mu_mode(mu_mode: str = "auto") -> str:
    if mu_mode == "auto":
        return mu_mode_oracle().mode
    if mu_mode not in ("plus", "minus"):
        raise ModelError(f"mu_mode must be 'plus', 'minus' or 'auto', got '{mu_mode}'")
    return mu_mode


def rabi_population_analytic(
    params: TlsParams, drive: Drive, tau, mu_mode: str = "auto"
):
    """Damped-Rabi excited-state population at delay tau (ns).

    Normalized so P -> 1 as tau -> infinity; P(0) = 0.  ``tau`` may be a
    scalar or array and enters through |tau|.  Exact on resonance; for
    detuned drive the generalized Rabi frequency is substituted, which is
    an approximation (simulate numerically when the detuning matters).
    """
    mode = resolve_mu_mode(mu_mode)
    omega_g = TWO_PI * generalized_rabi(drive)
    return _population_formula(params.t1, params.t2, omega_g, tau, mode)


# -- pulsed drive -------------------------------------------------------------


def _square_segments(pulse: PulseEnvelope, k: int) -> list:
    """Segments of one square pulse starting at k*period, unit amplitude."""
    start = k * pulse.period
    r = pulse.rise_time
    if r == 0.0:
        return [(start, start + pulse.duration, 1.0)]

    def up(t, t0=start, rr=r):
        return 0.5 * (1.0 - np.cos(math.pi * (t - t0) / rr))

    def down(t, t0=start + pulse.duration - r, rr=r):
        return 0.5 * (1.0 + np.cos(math.pi * (t - t0) / rr))

    return [
        (start, start + r, up),
        (start + r, start + pulse.duration - r, 1.0),
        (start + pulse.duration - r, start + pulse.duration, down),
    ]


def _gaussian_segments(pulse: PulseEnvelope, k: int) -> list:
    start = k * pulse.period
    center = start + _GAUSS_CENTER_FWHM * pulse.duration
    sigma = pulse.duration / (2.0 * math.sqrt(2.0 * math.log(2.0)))

    def env(t, c=center, s=sigma):
        return np.exp(-0.5 * ((t - c) / s) ** 2)

    return [(start, start + pulse.period, env)]


def envelope_segments(pulse: PulseEnvelope, t_end: float) -> list:
    """Unit-amplitude drive segments covering [0, t_end].

    Shaped envelopes (gaussian pulses, cosine ramps) are callables that take
    a numpy array of times and return the envelope elementwise.
    """
    segs = []
    k = 0
    while k * pulse.period < t_end:
        if pulse.shape == "square":
            segs.extend(_square_segments(pulse, k))
        else:
            segs.extend(_gaussian_segments(pulse, k))
        k += 1
    return segs


def rabi_traces(
    params: TlsParams, rabi_ghz: float, detunings, pulse: PulseEnvelope, grid: TimeGrid
) -> np.ndarray:
    """Excited-state population under pulsed drive, from the ground state, at
    each detuning (GHz) of ``detunings``; shape (N, n_points).

    Lindblad evolution with Omega(t) = Omega * envelope(t); the detuning
    stays on throughout.  All detunings are one verified propagation at the
    step of the largest generalized Rabi frequency.  The grid must start at
    0 and span at least one pulse period.
    """
    if abs(grid.t_start) > 1e-12:
        raise ModelError("rabi_trace_numeric grid must start at t = 0")
    if grid.t_end - grid.t_start < pulse.period - 1e-9:
        raise ModelError("grid must span at least one pulse period")
    fastest = max((generalized_rabi(Drive(rabi_ghz, float(d))) for d in detunings),
                  default=rabi_ghz)
    rhos = qdyn.evolve_driven(
        _detuned_liouvillians(params, 0.0, detunings), 0.5 * TWO_PI * rabi_ghz * SIGMA_X,
        envelope_segments(pulse, grid.t_end), RHO_GROUND, grid,
        dt_int=internal_step(params, TWO_PI * fastest),
    )
    return rhos[..., EXCITED, EXCITED].real


def rabi_trace_numeric(
    params: TlsParams, drive: Drive, pulse: PulseEnvelope, grid: TimeGrid
) -> TimeTrace:
    """:func:`rabi_traces` at the one detuning of ``drive``, as a trace."""
    values = rabi_traces(params, drive.rabi_ghz, [drive.detuning_ghz], pulse, grid)[0]
    return TimeTrace(grid=grid, values=values)


def excitation_lineshape(
    params: TlsParams, rabi_ghz: float, detuning_range: Sequence[float]
) -> np.ndarray:
    """Steady-state excited population at each laser detuning (GHz) of the range.

    The range must bracket the half-maximum on both sides; combine with
    ``fitkit.fit_lorentzian_fwhm`` for the linewidth.
    """
    detunings = np.asarray(detuning_range, dtype=float)
    if detunings.size < 5:
        raise ModelError("detuning range needs at least 5 points")
    stack = _detuned_liouvillians(params, rabi_ghz, detunings)
    pops = qdyn.steady_states(stack)[:, EXCITED, EXCITED].real
    half = 0.5 * np.max(pops)
    if pops[0] > half or pops[-1] > half:
        raise ModelError(
            "detuning range too narrow: endpoints do not fall below half maximum"
        )
    return pops


def power_to_rabi(calib: PowerCalib, params: TlsParams, p_nw: float) -> float:
    """Rabi frequency Omega/2pi (GHz) at excitation power p (nW).

    Uses s = P/p_sat with s = Omega^2 T1 T2, i.e. Omega/2pi grows exactly
    as sqrt(P).
    """
    if p_nw < 0:
        raise ModelError(f"power must be >= 0, got {p_nw}")
    omega_angular = math.sqrt((p_nw / calib.p_sat_nw) / (params.t1 * params.t2))
    return omega_angular / TWO_PI


def pulsed_rabi_scan(
    params: TlsParams,
    pulse: PulseEnvelope,
    power_range: Sequence[float],
    calib: PowerCalib,
) -> np.ndarray:
    """Post-pulse excited population at each power (nW) of the range.

    One pulse per power, all powers in one verified propagation at the
    step of the strongest drive; the population is read immediately after
    the envelope turns off.  For pulse durations much shorter than t1 the
    curve approaches sin^2(theta/2) with pulse area theta proportional to
    sqrt(P).
    """
    powers = np.asarray(power_range, dtype=float)
    t_read = pulse.on_end()
    omegas = np.array([TWO_PI * power_to_rabi(calib, params, p) for p in powers])
    rhos = qdyn.evolve_driven(
        qdyn.build_liouvillian(np.zeros((2, 2)), decay_jumps(params)),
        0.5 * omegas[:, None, None] * SIGMA_X, envelope_segments(pulse, t_read),
        RHO_GROUND, TimeGrid(0.0, t_read, 9),
        dt_int=internal_step(params, float(np.max(omegas, initial=0.0))),
    )
    return rhos[:, -1, EXCITED, EXCITED].real
