"""Three-level lambda system: strongly pumped transition C probed on D.

Basis: |g_C> = 0, |g_D> = 1, |e> = 2.  The two ground states couple to the
shared excited state; a doubly rotating frame with the rotating-wave
approximation leaves only detunings and Rabi couplings.  Steady-state
fluorescence scans show the coherent-population-trapping dip at two-photon
resonance and, under strong pumping, the Autler-Townes doublet.

All rates are configuration values.  The defaults are modeling choices:
equal branching gamma_c = gamma_d = 1/(2 t1), ground-state relaxation
1/40 ns^-1 (the slow cryogenic ground-state scale), no excited-state or
ground-coherence pure dephasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import peaks, qdyn
from .errors import ModelError

TWO_PI = 2.0 * math.pi

G_C, G_D, E = 0, 1, 2

_DEFAULT_T1 = 1.85


def _proj(i: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[i, i] = 1.0
    return m


def _lower(to: int, frm: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[to, frm] = 1.0
    return m


@dataclass(frozen=True)
class LambdaParams:
    """Decay, relaxation and dephasing rates of the lambda system.

    gamma_c, gamma_d: radiative decay e -> g_C, e -> g_D (ns^-1).
    gamma_ground: relaxation g_D -> g_C (ns^-1).
    gamma_phi_e: excited-state pure dephasing (rad/ns).
    gamma_phi_g: ground-coherence pure dephasing (rad/ns); nonzero values
    fill in the dark-state dip.
    """

    gamma_c: float = 0.5 / _DEFAULT_T1
    gamma_d: float = 0.5 / _DEFAULT_T1
    gamma_ground: float = 1.0 / 40.0
    gamma_phi_e: float = 0.0
    gamma_phi_g: float = 0.0

    def __post_init__(self):
        for name in ("gamma_c", "gamma_d", "gamma_ground", "gamma_phi_e", "gamma_phi_g"):
            if getattr(self, name) < 0:
                raise ModelError(f"{name} must be >= 0")
        if self.gamma_c + self.gamma_d <= 0:
            raise ModelError("total radiative decay gamma_c + gamma_d must be > 0")

    @property
    def t1(self) -> float:
        return 1.0 / (self.gamma_c + self.gamma_d)


@dataclass(frozen=True)
class LambdaDrive:
    """Pump (C) and probe (D) Rabi frequencies and detunings, GHz."""

    omega_c_ghz: float
    delta_c_ghz: float = 0.0
    omega_d_ghz: float = 0.0
    delta_d_ghz: float = 0.0

    def __post_init__(self):
        if self.omega_c_ghz < 0 or self.omega_d_ghz < 0:
            raise ModelError("Rabi frequencies must be >= 0")


# The detunings enter the Hamiltonian only as delta_C * DETUNING_C +
# delta_D * DETUNING_D (rad/ns), so the generator is affine in them.
DETUNING_C = np.diag([0.0, -1.0, -1.0]).astype(complex)
DETUNING_D = np.diag([0.0, 1.0, 0.0]).astype(complex)

# Grid points per stacked steady-state solve in :func:`at_map2d`.
_MAP_BLOCK = 1024


def lambda_liouvillian(params: LambdaParams, drive: LambdaDrive) -> np.ndarray:
    """Doubly-rotating-frame RWA generator of the driven lambda system."""
    o_c = TWO_PI * drive.omega_c_ghz
    o_d = TWO_PI * drive.omega_d_ghz
    h = (
        TWO_PI * drive.delta_c_ghz * DETUNING_C
        + TWO_PI * drive.delta_d_ghz * DETUNING_D
        + 0.5 * o_c * (_lower(E, G_C) + _lower(G_C, E))
        + 0.5 * o_d * (_lower(E, G_D) + _lower(G_D, E))
    )
    jumps = []
    if params.gamma_c > 0:
        jumps.append(math.sqrt(params.gamma_c) * _lower(G_C, E))
    if params.gamma_d > 0:
        jumps.append(math.sqrt(params.gamma_d) * _lower(G_D, E))
    if params.gamma_ground > 0:
        jumps.append(math.sqrt(params.gamma_ground) * _lower(G_C, G_D))
    if params.gamma_phi_e > 0:
        jumps.append(math.sqrt(2.0 * params.gamma_phi_e) * _proj(E))
    if params.gamma_phi_g > 0:
        jumps.append(math.sqrt(2.0 * params.gamma_phi_g) * _proj(G_D))
    return qdyn.build_liouvillian(h, jumps)


def probe_scan(
    params: LambdaParams,
    omega_c: float,
    delta_c: float,
    omega_d: float,
    delta_d_range: Sequence[float],
) -> np.ndarray:
    """Steady-state fluorescence at each probe detuning (GHz), normalized to its peak."""
    signal = at_map2d(params, omega_c, omega_d, [delta_c], delta_d_range)[0]
    peak = np.max(signal)
    if peak <= 0:
        raise ModelError("no fluorescence in scan; check drive amplitudes")
    return signal / peak


def at_map2d(
    params: LambdaParams,
    omega_c: float,
    omega_d: float,
    delta_c_range: Sequence[float],
    delta_d_range: Sequence[float],
) -> np.ndarray:
    """Steady-state fluorescence (gamma_c + gamma_d) rho_ee on a detuning grid.

    Rows follow ``delta_c_range`` (delta_C, GHz) ascending, columns
    ``delta_d_range`` (delta_D, GHz) ascending.  Each grid point's generator
    is the zero-detuning generator plus delta_C and delta_D times their
    detuning superoperators, all three converted to the real
    :func:`qdyn.bloch` basis once per call.  The grid is solved in row-major
    blocks of ``_MAP_BLOCK`` points, one stacked :func:`qdyn.steady_states`
    solve per block, so memory stays bounded for any grid size.
    """
    dcs = TWO_PI * np.asarray(delta_c_range, dtype=float)
    dds = TWO_PI * np.asarray(delta_d_range, dtype=float)
    l0, a, b = qdyn.bloch(np.stack([
        lambda_liouvillian(params, LambdaDrive(omega_c, omega_d_ghz=omega_d)),
        qdyn.hamiltonian_superop(DETUNING_C),
        qdyn.hamiltonian_superop(DETUNING_D),
    ]))
    fluor = np.empty(dcs.size * dds.size)
    for start in range(0, fluor.size, _MAP_BLOCK):
        point = np.arange(start, min(start + _MAP_BLOCK, fluor.size))
        stack = (
            l0
            + dcs[point // dds.size, None, None] * a
            + dds[point % dds.size, None, None] * b
        )
        rhos = qdyn.steady_states(stack)
        fluor[point] = (params.gamma_c + params.gamma_d) * rhos[:, E, E].real
    return fluor.reshape(dcs.size, dds.size)


def dip_splitting(x, y) -> float:
    """Separation (GHz) of the two fluorescence maxima of a probe scan y(x).

    Each maximum is refined by parabolic interpolation.  Raises
    :class:`ModelError` when the scan is not in the two-maxima
    Autler-Townes regime.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    maxima = peaks.local_maxima(y, min_fraction=0.05)
    if len(maxima) < 2:
        raise ModelError(
            "not in Autler-Townes regime: fewer than two fluorescence maxima"
        )
    maxima.sort(key=lambda i: -y[i])
    left, right = sorted(maxima[:2])
    if not np.any(y[left : right + 1] < min(y[left], y[right])):
        raise ModelError("no dip between the two fluorescence maxima")
    x1, _ = peaks.parabolic_refine(x, y, left)
    x2, _ = peaks.parabolic_refine(x, y, right)
    return abs(x2 - x1)
