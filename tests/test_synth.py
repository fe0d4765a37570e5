import numpy as np
import pytest

from emitterlab import synth
from emitterlab.errors import ModelError
from emitterlab.qdyn import TimeGrid, TimeTrace


def flat_trace(n=1000, value=1.0):
    return TimeTrace(TimeGrid(0.0, 1.0, n), np.full(n, value))


class TestSynthCounts:
    def test_zero_model_zero_counts(self):
        _, counts = synth.synth_counts(
            flat_trace(value=0.0), synth.NoiseSpec(seed=1, scale=100.0)
        )
        assert np.all(counts == 0)

    def test_fixed_seed_reproduces_bit_for_bit(self):
        trace = flat_trace()
        spec = synth.NoiseSpec(seed=42, scale=20.0, background_rate=1.0)
        _, c1 = synth.synth_counts(trace, spec)
        _, c2 = synth.synth_counts(trace, spec)
        assert np.array_equal(c1, c2)

    def test_seed_changes_output(self):
        trace = flat_trace()
        _, base = synth.synth_counts(trace, synth.NoiseSpec(seed=1, scale=20.0))
        _, other_seed = synth.synth_counts(trace, synth.NoiseSpec(seed=2, scale=20.0))
        assert not np.array_equal(base, other_seed)

    def test_large_sample_mean(self):
        _, counts = synth.synth_counts(
            flat_trace(n=100000), synth.NoiseSpec(seed=7, scale=50.0)
        )
        sigma = np.sqrt(50.0 / 100000)
        assert abs(counts.mean() - 50.0) < 3.0 * sigma

    def test_background_adds_to_mean(self):
        _, counts = synth.synth_counts(
            flat_trace(n=50000, value=0.0),
            synth.NoiseSpec(seed=3, scale=10.0, background_rate=7.0),
        )
        assert abs(counts.mean() - 7.0) < 3.0 * np.sqrt(7.0 / 50000)

    def test_negative_model_rejected(self):
        trace = TimeTrace(TimeGrid(0.0, 1.0, 10), np.linspace(-0.1, 1.0, 10))
        with pytest.raises(ModelError, match="nonnegative"):
            synth.synth_counts(trace, synth.NoiseSpec(seed=1, scale=10.0))

    def test_irf_smears_before_sampling(self):
        n = 401
        values = np.zeros(n)
        values[200] = 1.0
        trace = TimeTrace(TimeGrid(0.0, 4.0, n), values)
        _, counts = synth.synth_counts(
            trace, synth.NoiseSpec(seed=5, scale=2e4, irf_sigma=0.1)
        )
        occupied = np.nonzero(counts > 10)[0]
        assert occupied.size > 10  # the spike spreads over many bins


class TestPoissonStatistics:
    @pytest.mark.parametrize("lam", [4.0, 50.0])
    def test_variance_over_mean_near_unity(self, lam):
        # 100 seeds, one fixed bin; both the inversion (lam < 10) and the
        # normal-approximation branch
        vals = np.array([
            synth.poisson_counts(np.full(20, lam), seed)[5] for seed in range(100)
        ])
        ratio = vals.var() / vals.mean()
        assert 0.9 < ratio < 1.1

    @pytest.mark.parametrize("lam", [4.0, 50.0])
    def test_pooled_variance_ratio(self, lam):
        draws = np.array([
            synth.poisson_counts(np.full(200, lam), seed) for seed in range(100)
        ])
        ratios = draws.var(axis=0) / draws.mean(axis=0)
        assert abs(ratios.mean() - 1.0) < 0.05

    def test_branch_boundary_continuity(self):
        # means just below and above the inversion cutoff have sane stats
        for lam in (9.5, 10.5):
            vals = np.array([
                synth.poisson_counts(np.array([lam]), seed)[0]
                for seed in range(600)
            ])
            assert abs(vals.mean() - lam) < 3.0 * np.sqrt(lam / 600)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ModelError):
            synth.NoiseSpec(seed=1, scale=0.0)
        with pytest.raises(ModelError):
            synth.NoiseSpec(seed=1, scale=1.0, background_rate=-1.0)
