"""Deterministic synthetic photon-count histograms.

Counts are drawn per bin from a Poisson distribution whose mean is the
IRF-convolved, scaled model curve plus a background level.  Randomness
comes from a counter-based generator keyed by (seed, bin index): the same
seed reproduces the histogram bit-for-bit and bins are independent, so
parallel generation in any order gives identical output.

Poisson sampling uses CDF inversion for means below ``_INVERSION_CUTOFF``
(= 10 counts) and a rounded normal approximation above; at the boundary
the approximation error is far below shot noise.  A bin mean above
``_MAX_MEAN`` (= 2**53) raises :class:`NumericFailure`, since a float no
longer holds every integer count there.  :func:`synth_counts` returns the
IRF-extended time grid and the int64 counts on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericFailure
from .photostats import apply_irf
from .qdyn import TimeTrace

_INVERSION_CUTOFF = 10.0
_MAX_MEAN = 2.0**53
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class NoiseSpec:
    """Detection-chain model: seed, background level, scale and IRF width."""

    seed: int
    scale: float
    background_rate: float = 0.0
    irf_sigma: float = 0.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ModelError(f"scale must be > 0, got {self.scale}")
        if self.background_rate < 0:
            raise ModelError("background_rate must be >= 0")
        if self.irf_sigma < 0:
            raise ModelError("irf_sigma must be >= 0")


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64."""
    z = (x + _GOLDEN).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniforms(seed: int, bins: np.ndarray, stream: int) -> np.ndarray:
    """One U(0,1) per bin, from stream ``stream`` of the per-bin sequence."""
    key = _mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ (bins.astype(np.uint64) * _GOLDEN))
    bits = _mix(key + np.uint64(stream))
    # 53-bit mantissa in (0, 1); offset keeps exact zeros out.
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) / 9007199254740992.0


def _poisson_inversion(means: np.ndarray, u: np.ndarray) -> np.ndarray:
    counts = np.zeros(means.size, dtype=np.int64)
    p = np.exp(-means)
    cdf = p.copy()
    active = u > cdf
    k = 0
    while np.any(active) and k < 200:
        k += 1
        p = p * means / k
        cdf = cdf + p
        counts[active] = k
        active = u > cdf
    return counts


def _poisson_normal(means: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    return np.maximum(np.floor(means + np.sqrt(means) * z + 0.5), 0.0).astype(np.int64)


def poisson_counts(means: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic Poisson draw per bin, keyed by (seed, bin index)."""
    means = np.asarray(means, dtype=float)
    if np.any(means > _MAX_MEAN):
        raise NumericFailure(f"count mean {np.max(means):.3e} exceeds 2**53, beyond "
                             "which a float no longer holds every integer count")
    bins = np.arange(means.size, dtype=np.uint64)
    counts = np.zeros(means.size, dtype=np.int64)
    low = means < _INVERSION_CUTOFF
    if np.any(low):
        counts[low] = _poisson_inversion(means[low], _uniforms(seed, bins[low], 1))
    high = ~low
    if np.any(high):
        counts[high] = _poisson_normal(
            means[high], _uniforms(seed, bins[high], 1), _uniforms(seed, bins[high], 2)
        )
    return counts


def synth_counts(model_curve: TimeTrace, noise: NoiseSpec) -> tuple:
    """Noisy counts: Poisson(scale * irf(model) + background) per bin.

    Returns the IRF-extended grid and the int64 counts on it.
    """
    if np.any(model_curve.values < 0):
        raise ModelError("model curve must be nonnegative")
    smeared = apply_irf(model_curve, noise.irf_sigma)
    with np.errstate(over="ignore"):  # an infinite mean fails in poisson_counts
        means = noise.scale * smeared.values + noise.background_rate
    return smeared.grid, poisson_counts(means, noise.seed)
