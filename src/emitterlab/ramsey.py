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
from .qdyn import TimeGrid
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


def population_table(
    params: tls.TlsParams, pulse: tls.PulseEnvelope, taus, phases, detuning: float = 0.0
) -> np.ndarray:
    """Excited population after pulse - free evolution - phased pulse.

    Returns shape (len(taus), len(phases)): row i is the fringe at delay
    ``taus[i]`` (ns) over the relative phases ``phases`` (radians).
    ``detuning`` is the laser detuning in GHz; it acts during the pulses
    and the free-evolution window.  Decay and dephasing stay on throughout.

    Every piece is a verified evolution: the first-pulse state once, one
    free evolution per nonzero delay and one batched :func:`qdyn.propagator`
    call for the second-pulse maps of all phases; the stack of composed
    final states passes :func:`qdyn.check_density_matrix`.
    """
    taus = np.asarray(taus, dtype=float)
    for tau in taus:
        if tau < 0:
            raise ModelError(f"delay_tau must be >= 0, got {tau}")
    omega = PULSE_AREA / pulse.area_factor()  # peak angular Rabi frequency
    l0 = qdyn.build_liouvillian(
        -TWO_PI * detuning * PROJ_EXCITED, tls.decay_jumps(params)
    )
    t_end = pulse.on_end()
    segments = tls.envelope_segments(pulse, t_end)
    dt_pulse = tls.internal_step(params, omega)
    # drive couplings at phase 0 (first pulse), then at each relative phase
    ph = np.concatenate([[0.0], phases])[:, None, None]
    couplings = 0.5 * omega * (np.cos(ph) * SIGMA_X + np.sin(ph) * SIGMA_Y)
    first = qdyn.evolve_driven(
        l0, couplings[0], segments, RHO_GROUND, TimeGrid(0.0, t_end, 5), dt_int=dt_pulse
    )[-1]
    free = np.array([
        qdyn.evolve(
            l0, first, TimeGrid(0.0, tau, 5), dt_int=tls.internal_step(params, 0.0)
        )[-1] if tau > 0 else first
        for tau in taus
    ])
    d = math.isqrt(l0.shape[-1])
    maps = qdyn.propagator(l0, couplings[1:], segments, t_end, dt_int=dt_pulse)
    finals = (maps[None] @ free.reshape(taus.size, 1, d * d, 1)).reshape(-1, d, d)
    qdyn.check_density_matrix(finals, "Ramsey final state")
    return finals[:, EXCITED, EXCITED].real.reshape(taus.size, len(maps))


def ramsey_population(
    params: tls.TlsParams, seq: RamseySequence, detuning: float = 0.0
) -> float:
    """Excited population of one sequence: :func:`population_table` at one
    delay and one phase."""
    table = population_table(
        params, seq.pulse, [seq.delay_tau], [seq.relative_phase], detuning
    )
    return float(table[0, 0])


def visibility_curve(
    params: tls.TlsParams,
    pulse: tls.PulseEnvelope,
    tau_range,
    n_phases: int = 16,
    detuning: float = 0.0,
) -> np.ndarray:
    """Ramsey fringe visibility V = (max - min)/(max + min) at each delay (ns).

    For each delay the relative phase is scanned over ``n_phases`` >= 16
    equally spaced values in [0, 2 pi) and the fringe extrema extracted.
    """
    if n_phases < 16:
        raise ModelError("visibility extraction needs at least 16 phases")
    taus = np.asarray(tau_range, dtype=float)
    phases = np.arange(n_phases) * (2.0 * math.pi / n_phases)
    pops = population_table(params, pulse, taus, phases, detuning)
    hi, lo = pops.max(axis=1), pops.min(axis=1)
    vanishing = hi + lo <= 0
    if np.any(vanishing):
        raise ModelError(f"vanishing fringe signal at tau = {taus[vanishing][0]}")
    return (hi - lo) / (hi + lo)
