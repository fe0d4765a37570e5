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

import numpy as np

from . import qdyn, tls
from .errors import ModelError, NumericFailure
from .tls import EXCITED, PROJ_EXCITED, RHO_GROUND, TWO_PI

PULSE_AREA = 0.5 * math.pi


def population_table(
    params: tls.TlsParams, pulse: tls.PulseEnvelope, taus, phases, detuning: float = 0.0
) -> np.ndarray:
    """Excited population after pulse - free evolution - phased pulse.

    Returns shape (len(taus), len(phases)): row i is the fringe at delay
    ``taus[i]`` (ns) over the relative phases ``phases`` (radians).
    ``detuning`` is the laser detuning in GHz; it acts during the pulses
    and the free-evolution window.  Decay and dephasing stay on throughout.
    Each pulse has exactly pi/2 area: its peak amplitude is derived from
    the envelope.

    Two propagations: one batched :func:`qdyn.propagator` gives the pulse
    maps at phase 0 (first pulse) and at every relative phase (second
    pulse), and one :func:`qdyn.evolve` of the stack ``tau * L0`` over unit
    time gives every delay through its exact map exp(tau L0).  The state
    after the first pulse, and the composed final states, pass
    :func:`qdyn.check_density_matrix`.
    """
    taus = np.asarray(taus, dtype=float)
    if np.any(taus < 0):
        raise ModelError(f"delay_tau must be >= 0, got {taus[taus < 0][0]}")
    omega = PULSE_AREA / pulse.area_factor()  # peak angular Rabi frequency
    l0 = qdyn.build_liouvillian(-TWO_PI * detuning * PROJ_EXCITED, tls.decay_jumps(params))
    t_end = pulse.on_end()
    # drive couplings at phase 0 (first pulse), then at each relative phase
    ph = np.concatenate([[0.0], phases])[:, None, None]
    maps = qdyn.propagator(l0, tls.drive_coupling(omega, ph),
                           tls.envelope_segments(pulse, t_end), t_end)
    d = math.isqrt(l0.shape[-1])
    first = (maps[0] @ RHO_GROUND.reshape(-1)).reshape(d, d)
    qdyn.check_density_matrix(first, "Ramsey first-pulse state", error=NumericFailure)
    free = qdyn.evolve(taus[:, None, None] * l0, first, qdyn.TimeGrid(0.0, 1.0, 2))[:, -1]
    finals = (maps[None, 1:] @ free.reshape(taus.size, 1, d * d, 1)).reshape(-1, d, d)
    qdyn.check_density_matrix(finals, "Ramsey final state")
    return finals[:, EXCITED, EXCITED].real.reshape(taus.size, len(maps) - 1)


def ramsey_population(
    params: tls.TlsParams, pulse: tls.PulseEnvelope, tau: float, phase: float,
    detuning: float = 0.0,
) -> float:
    """Excited population of one sequence: :func:`population_table` at the
    one delay ``tau`` (ns) and relative phase ``phase`` (radians)."""
    return float(population_table(params, pulse, [tau], [phase], detuning)[0, 0])


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
