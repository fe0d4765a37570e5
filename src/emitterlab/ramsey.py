"""Two-pulse Ramsey interferometry on the optical transition.

The experiment's fringes come from the optical carrier phase picked up
over a path delay; in the rotating frame that is represented exactly by a
relative field phase on the second pulse, so the fine-delay oscillation is
reproduced by scanning ``relative_phase`` over 2 pi without simulating the
carrier.

Free-evolution coherence decay is whatever ``TlsParams.t2`` says; Ramsey
visibility may be configured with its own, shorter coherence time than the
driven-Rabi fits use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qdyn, tls
from .errors import ModelError
from .qdyn import Curve, TimeGrid
from .tls import EXCITED, PROJ_EXCITED, RHO_GROUND, SIGMA_X, SIGMA_Y, TWO_PI

PULSE_AREA = 0.5 * math.pi


@dataclass(frozen=True)
class RamseySequence:
    """Two pi/2 pulses separated by ``delay_tau`` ns.

    ``relative_phase`` is the optical phase of the second pulse relative to
    the first (radians); the pulse amplitude is derived from the envelope
    so each pulse has exactly pi/2 area.
    """

    pulse: tls.PulseEnvelope
    delay_tau: float
    relative_phase: float = 0.0

    def __post_init__(self):
        if self.delay_tau < 0:
            raise ModelError(f"delay_tau must be >= 0, got {self.delay_tau}")


def _pulse_amplitude(pulse: tls.PulseEnvelope, area: float = PULSE_AREA) -> float:
    """Peak angular Rabi frequency giving the requested pulse area."""
    return area / pulse.area_factor()


def _run_pulse(l0, params, pulse, omega, phase, rho):
    coupling = 0.5 * (math.cos(phase) * SIGMA_X + math.sin(phase) * SIGMA_Y)
    t_end = pulse.on_end()
    segments = tls.drive_segments(pulse, omega, t_end)
    grid = TimeGrid(0.0, t_end, 5)
    rhos = qdyn.evolve_driven(
        l0, coupling, segments, rho, grid, dt_int=tls.internal_step(params, omega)
    )
    return rhos[-1]


def ramsey_population(
    params: tls.TlsParams, seq: RamseySequence, detuning: float = 0.0
) -> float:
    """Excited population after pulse - free evolution - phased pulse.

    ``detuning`` is the laser detuning in GHz; it acts during the pulses
    and the free-evolution window.  Decay and dephasing stay on throughout.
    """
    omega = _pulse_amplitude(seq.pulse)
    l0 = qdyn.build_liouvillian(
        -TWO_PI * detuning * PROJ_EXCITED, tls.decay_jumps(params)
    )
    rho = _run_pulse(l0, params, seq.pulse, omega, 0.0, RHO_GROUND)
    if seq.delay_tau > 0:
        free = qdyn.evolve(
            l0,
            rho,
            TimeGrid(0.0, seq.delay_tau, 5),
            dt_int=tls.internal_step(params, 0.0),
        )
        rho = free[-1]
    rho = _run_pulse(l0, params, seq.pulse, omega, seq.relative_phase, rho)
    return float(rho[EXCITED, EXCITED].real)


def visibility_curve(
    params: tls.TlsParams,
    pulse: tls.PulseEnvelope,
    tau_range,
    n_phases: int = 16,
    detuning: float = 0.0,
) -> Curve:
    """Ramsey fringe visibility V = (max - min)/(max + min) versus delay.

    For each delay the relative phase is scanned over ``n_phases`` >= 16
    equally spaced values in [0, 2 pi) and the fringe extrema extracted.
    """
    if n_phases < 16:
        raise ModelError("visibility extraction needs at least 16 phases")
    taus = np.asarray(tau_range, dtype=float)
    phases = np.arange(n_phases) * (2.0 * math.pi / n_phases)
    vis = np.empty(taus.size)
    for i, tau in enumerate(taus):
        pops = [
            ramsey_population(
                params, RamseySequence(pulse, float(tau), float(ph)), detuning
            )
            for ph in phases
        ]
        hi, lo = max(pops), min(pops)
        if hi + lo <= 0:
            raise ModelError(f"vanishing fringe signal at tau = {tau}")
        vis[i] = (hi - lo) / (hi + lo)
    meta = {
        "t1_ns": params.t1,
        "t2_ns": params.t2,
        "pulse_ns": pulse.duration,
        "n_phases": n_phases,
        "detuning_ghz": detuning,
        "ylabel": "visibility",
    }
    return Curve(x=taus, y=vis, xlabel="tau_ns", meta=meta)
