"""Driven two-level-system models.

Basis convention: index 0 is the ground state, index 1 the excited state.
Public interfaces take ordinary frequencies in GHz (Omega/2pi) and convert
to angular rad/ns exactly once, here.

The damped-Rabi population formula implemented by
:func:`rabi_population_analytic`,

    P(tau) = 1 - exp(-eta|tau|) (cos(mu|tau|) + (eta/mu) sin(mu|tau|)),

has eta = 1/(2 T1) + 1/(2 T2) and mu^2 = Omega_g^2 - (1/(2 T1) - 1/(2 T2))^2:
on resonance the optical Bloch equations split into u, which decays alone
at 1/T2, and a (v, w) pair with eigenvalues -eta +/- i mu (Torrey,
Phys. Rev. 76, 1059 (1949); Allen & Eberly, Optical Resonance and
Two-Level Atoms (1975)).
"""

from __future__ import annotations

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


def drive_coupling(omega, phase=None) -> np.ndarray:
    """(Omega/2)(cos(phase) sigma_x + sin(phase) sigma_y) for the angular Rabi
    frequency ``omega`` (rad/ns); without a phase, (Omega/2) sigma_x alone.
    Array arguments give a stack of couplings."""
    half = 0.5 * omega
    if phase is None:
        return half * SIGMA_X
    return half * (np.cos(phase) * SIGMA_X + np.sin(phase) * SIGMA_Y)


def drive_hamiltonian(drive: Drive) -> np.ndarray:
    """Rotating-frame Hamiltonian in rad/ns: -Delta|e><e| + (Omega/2) sigma_x."""
    delta = TWO_PI * drive.detuning_ghz
    return delta * DETUNING + drive_coupling(TWO_PI * drive.rabi_ghz)


def tls_liouvillian(params: TlsParams, drive: Drive) -> np.ndarray:
    return qdyn.build_liouvillian(drive_hamiltonian(drive), decay_jumps(params))


def _detuned_liouvillians(params: TlsParams, rabi_ghz: float, detunings) -> np.ndarray:
    """(N, 4, 4) generators at the detunings (GHz): affine in Delta * DETUNING."""
    l0 = tls_liouvillian(params, Drive(rabi_ghz=rabi_ghz))
    delta = TWO_PI * np.asarray(detunings, dtype=float)
    return l0 + delta[:, None, None] * qdyn.hamiltonian_superop(DETUNING)


# -- operations ---------------------------------------------------------------


def generalized_rabi(drive: Drive) -> float:
    """Oscillation frequency sqrt(detuning^2 + rabi^2) in GHz."""
    return math.hypot(drive.detuning_ghz, drive.rabi_ghz)


def steady_population(params: TlsParams, rabi_ghz: float, detuning_ghz=0.0):
    """Closed-form steady-state excited population (s/2)/(1 + s + (Delta T2)^2)
    with s = Omega^2 T1 T2, at each detuning (GHz)."""
    s = (TWO_PI * rabi_ghz) ** 2 * params.t1 * params.t2
    return 0.5 * s / (1.0 + s + (TWO_PI * np.asarray(detuning_ghz) * params.t2) ** 2)


def _population_formula(t1, t2, omega_g_angular, tau):
    """Damped-Rabi population, normalized to 1 at large tau.

    Valid for any t1, t2 > 0 (no physicality constraint), which lets it
    double as an unconstrained fit model.
    """
    tau = np.abs(np.asarray(tau, dtype=float))
    eta = 0.5 / t1 + 0.5 / t2
    delta_rate = 0.5 / t1 - 0.5 / t2
    mu_sq = omega_g_angular**2 - delta_rate**2
    if mu_sq < 0:
        # decays at eta -+ m, which cannot overflow; eta^2 + mu_sq =
        # omega^2 + 1/(t1 t2) exactly, and expm1 is exact as m -> 0
        m = math.sqrt(-mu_sq)
        slow = np.exp(-(omega_g_angular**2 + 1.0 / (t1 * t2)) / (eta + m) * tau)
        return 1.0 - slow - 0.5 * (1.0 - eta / m) * np.expm1(-2.0 * m * tau) * slow
    if mu_sq > 0:
        mu = math.sqrt(mu_sq)
        inner = np.cos(mu * tau) + (eta / mu) * np.sin(mu * tau)
    else:
        inner = 1.0 + eta * tau
    return 1.0 - np.exp(-eta * tau) * inner


def normalized_correlator(params: TlsParams, drive: Drive, grid: TimeGrid) -> np.ndarray:
    """One-sided g2 on ``grid`` (tau >= 0), normalized to 1 at large delay.

    Regression theorem: Tr[P_e exp(L tau)(sigma- rho_ss sigma+)] / rho_ee_ss^2.
    """
    l = tls_liouvillian(params, drive)
    rho_ss = qdyn.steady_state(l)
    p_ee = rho_ss[EXCITED, EXCITED].real
    if p_ee < 1e-12:
        raise ModelError("undriven emitter has no correlation function")
    corr = qdyn.regression_correlator(l, rho_ss, PROJ_EXCITED, SIGMA_MINUS, SIGMA_PLUS, grid)
    if np.max(np.abs(corr.imag)) > 1e-8:
        raise NumericFailure("g2 correlator acquired an imaginary part")
    return corr.real / p_ee**2


def closed_form_g2_rms() -> float:
    """RMS difference of :func:`rabi_population_analytic` from the Lindblad g2
    on resonance at Omega/2pi = 1 GHz, t1 = 1.85 ns, t2 = 1.62 ns, over 501
    delays to 10 ns: the first ``reproduce-all`` row."""
    params = TlsParams(t1=1.85, t2=1.62)
    drive = Drive(rabi_ghz=1.0)
    grid = TimeGrid(0.0, 10.0, 501)
    numeric = normalized_correlator(params, drive, grid)
    analytic = rabi_population_analytic(params, drive, grid.times())
    return float(np.sqrt(np.mean((analytic - numeric) ** 2)))


# perfbench traces the row above as a layer under this name; nothing else uses it
mu_mode_oracle = closed_form_g2_rms


def resolve_mu_mode(_mode: str = "auto") -> str:
    """Always "minus", the one damped-Rabi sign; runs nothing.  perfbench's
    set-up is its only caller."""
    return "minus"


def rabi_population_analytic(params: TlsParams, drive: Drive, tau):
    """Damped-Rabi excited-state population at delay tau (ns).

    Normalized so P -> 1 as tau -> infinity; P(0) = 0.  ``tau`` may be a
    scalar or array and enters through |tau|.  Exact on resonance; for
    detuned drive the generalized Rabi frequency is substituted, which is
    an approximation (simulate numerically when the detuning matters).
    """
    omega_g = TWO_PI * generalized_rabi(drive)
    return _population_formula(params.t1, params.t2, omega_g, tau)


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
    stays on throughout.  All detunings are one verified propagation.  The
    grid must start at 0 and span at least one pulse period.
    """
    if abs(grid.t_start) > 1e-12:
        raise ModelError("rabi_trace_numeric grid must start at t = 0")
    if grid.t_end - grid.t_start < pulse.period - 1e-9:
        raise ModelError("grid must span at least one pulse period")
    rhos = qdyn.evolve_driven(
        _detuned_liouvillians(params, 0.0, detunings), drive_coupling(TWO_PI * rabi_ghz),
        envelope_segments(pulse, grid.t_end), RHO_GROUND, grid,
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
    l0, shift = qdyn.bloch(np.stack([tls_liouvillian(params, Drive(rabi_ghz=rabi_ghz)),
                                     qdyn.hamiltonian_superop(DETUNING)]))
    stack = l0 + TWO_PI * detunings[:, None, None] * shift
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

    One pulse per power, all powers in one verified propagation; the
    population is read immediately after the envelope turns off.  For pulse
    durations much shorter than t1 the curve approaches sin^2(theta/2) with
    pulse area theta proportional to sqrt(P).
    """
    powers = np.asarray(power_range, dtype=float)
    t_read = pulse.on_end()
    omegas = np.array([TWO_PI * power_to_rabi(calib, params, p) for p in powers])
    rhos = qdyn.evolve_driven(
        qdyn.build_liouvillian(np.zeros((2, 2)), decay_jumps(params)),
        drive_coupling(omegas[:, None, None]), envelope_segments(pulse, t_read),
        RHO_GROUND, TimeGrid(0.0, t_read, 9),
    )
    return rhos[:, -1, EXCITED, EXCITED].real
