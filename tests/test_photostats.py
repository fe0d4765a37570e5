import numpy as np
import pytest

from emitterlab import peaks, photostats, qdyn, tls
from emitterlab.errors import ModelError, NumericFailure
from emitterlab.qdyn import TimeGrid, TimeTrace


def make_g2(rabi_ghz=0.906, tau_max=10.0, n=501):
    return photostats.g2_curve(
        tls.TlsParams(1.85, 1.62), tls.Drive(rabi_ghz), TimeGrid(0.0, tau_max, n)
    )


class TestG2Curve:
    def test_antibunched_at_zero_delay(self):
        g2 = make_g2()
        assert g2.values[g2.grid.n_points // 2] == 0.0

    def test_decorrelates_at_long_delay(self):
        g2 = make_g2(rabi_ghz=0.5, tau_max=18.5, n=401)
        assert g2.values[-1] == pytest.approx(1.0, abs=1e-4)

    def test_undriven_emitter_rejected(self):
        with pytest.raises(ModelError, match="undriven"):
            make_g2(rabi_ghz=0.0)

    def test_matches_analytic_population(self):
        params = tls.TlsParams(1.85, 1.62)
        drive = tls.Drive(0.906)
        grid = TimeGrid(0.0, 10.0, 501)
        g2 = photostats.g2_curve(params, drive, grid)
        analytic = tls.rabi_population_analytic(params, drive, g2.grid.times())
        assert np.sqrt(np.mean((g2.values - analytic) ** 2)) < 1e-6

    def test_even_and_nonnegative(self):
        g2 = make_g2()
        assert np.array_equal(g2.values, g2.values[::-1])
        assert np.all(g2.values >= 0.0)

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ModelError, match="start"):
            photostats.g2_curve(
                tls.TlsParams(1.85, 1.62), tls.Drive(0.9), TimeGrid(-1.0, 1.0, 11)
            )

    def test_negative_correlator_is_a_numeric_failure(self, monkeypatch):
        monkeypatch.setattr(tls, "normalized_correlator",
                            lambda params, drive, grid: np.linspace(1.0, -1e-6, grid.n_points))
        with pytest.raises(NumericFailure, match="g2 went negative: min -1.000e-06"):
            make_g2()


class TestApplyIrf:
    def test_zero_sigma_is_identity(self):
        g2 = make_g2()
        out = photostats.apply_irf(g2, 0.0)
        assert np.array_equal(out.values, g2.values)
        assert out.grid == g2.grid

    def test_sigma_far_below_step_is_identity_on_the_grown_grid(self):
        # the kernel's square overflows to inf off centre, where exp gives 0
        g2 = make_g2()
        out = photostats.apply_irf(g2, 1e-300)
        assert out.grid.n_points == g2.grid.n_points + 2
        assert np.array_equal(out.values, np.concatenate([[0.0], g2.values, [0.0]]))

    def test_integral_preserved(self):
        g2 = make_g2()
        out = photostats.apply_irf(g2, 0.15)
        before = np.sum(g2.values) * g2.grid.dt
        after = np.sum(out.values) * out.grid.dt
        assert after == pytest.approx(before, rel=1e-6)

    def test_fills_in_the_antibunching_dip(self):
        g2 = make_g2()
        values_at_zero = []
        for sigma in (0.05, 0.15, 0.3):
            out = photostats.apply_irf(g2, sigma)
            i0 = np.argmin(np.abs(out.grid.times()))
            values_at_zero.append(out.values[i0])
        assert 0.0 < values_at_zero[0] < values_at_zero[1] < values_at_zero[2]

    def test_oversized_kernel_rejected(self):
        g2 = make_g2(tau_max=2.0, n=201)
        with pytest.raises(ModelError, match="span"):
            photostats.apply_irf(g2, 1.5)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        grid = TimeGrid(0.0, 5.0, 256)
        a = TimeTrace(grid, rng.random(256))
        b = TimeTrace(grid, rng.random(256))
        sab = photostats.apply_irf(TimeTrace(grid, 2.0 * a.values + b.values), 0.2)
        sa = photostats.apply_irf(a, 0.2)
        sb = photostats.apply_irf(b, 0.2)
        assert np.max(np.abs(sab.values - 2.0 * sa.values - sb.values)) < 1e-12


class TestFftPeaks:
    def test_constant_trace_has_no_peaks(self):
        trace = TimeTrace(TimeGrid(0.0, 10.0, 256), np.full(256, 3.3))
        found, _ = photostats.fft_peaks(trace)
        assert found == []

    def test_all_zero_trace_has_no_peaks(self):
        trace = TimeTrace(TimeGrid(0.0, 10.0, 256), np.zeros(256))
        found, _ = photostats.fft_peaks(trace)
        assert found == []

    def test_pure_tone_located_within_a_bin(self):
        grid = TimeGrid(0.0, 20.0, 1024)
        trace = TimeTrace(grid, np.sin(2 * np.pi * 1.304 * grid.times()) + 1.0)
        found, bin_ghz = photostats.fft_peaks(trace)
        assert abs(found[0][0] - 1.304) <= bin_ghz

    def test_scale_invariance(self):
        grid = TimeGrid(0.0, 20.0, 1024)
        y = np.sin(2 * np.pi * 0.7 * grid.times()) ** 2
        f1 = photostats.fft_peaks(TimeTrace(grid, y))[0][:2]
        f2 = photostats.fft_peaks(TimeTrace(grid, 137.0 * y))[0][:2]
        assert np.allclose([f for f, _ in f1], [f for f, _ in f2], atol=1e-12)


def _reference_local_maxima(y, min_fraction):
    """The former per-index scan of ``peaks.local_maxima``."""
    y = np.asarray(y, dtype=float)
    if y.size < 3:
        return []
    floor = min_fraction * np.max(y)
    return [i for i in range(1, y.size - 1)
            if y[i] > y[i - 1] and y[i] > y[i + 1] and y[i] > floor]


class TestLocalMaxima:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_scan(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(0, 4)) if seed < 8 else int(rng.integers(4, 60))
        # few distinct levels give plateaus and equal neighbours
        y = rng.integers(0, 4, size).astype(float) - rng.choice([0.0, 1.5])
        if seed % 5 == 4 and size:
            y[rng.integers(0, size)] = np.nan
        for min_fraction in (0.0, 0.05, 0.5, -1.0):
            got = peaks.local_maxima(y, min_fraction)
            assert got == _reference_local_maxima(y, min_fraction)
            assert all(type(i) is int for i in got)


class TestEmissionSpectrum:
    def test_weak_resonant_drive_single_line(self):
        freqs = np.linspace(-1.0, 1.0, 401)
        spectrum = photostats.emission_spectrum(
            tls.TlsParams(1.85, 1.62), tls.Drive(0.02, 0.0), freqs
        )
        idx = peaks.local_maxima(spectrum, min_fraction=0.05)
        assert len(idx) == 1
        f, _ = peaks.parabolic_refine(freqs, spectrum, idx[0])
        assert abs(f) < 0.01

    def test_strong_drive_mollow_triplet(self):
        freqs = np.linspace(-4.0, 4.0, 1601)
        spectrum = photostats.emission_spectrum(
            tls.TlsParams(1.85, 3.7), tls.Drive(2.0, 0.0), freqs
        )
        idx = peaks.local_maxima(spectrum, min_fraction=0.05)
        refined = sorted(peaks.parabolic_refine(freqs, spectrum, i) for i in idx)
        assert len(refined) == 3
        assert refined[0][0] == pytest.approx(-2.0, rel=0.02)
        assert abs(refined[1][0]) < 0.02
        assert refined[2][0] == pytest.approx(2.0, rel=0.02)
        ratio = refined[1][1] / (0.5 * (refined[0][1] + refined[2][1]))
        assert ratio == pytest.approx(3.0, rel=0.10)

    def test_resonant_spectrum_symmetric(self):
        spectrum = photostats.emission_spectrum(
            tls.TlsParams(1.85, 1.62), tls.Drive(1.0, 0.0),
            np.linspace(-3.0, 3.0, 601),
        )
        m = spectrum
        assert np.max(np.abs(m - m[::-1])) < 0.01 * np.max(m)

    def test_matches_time_domain_transform(self):
        # reference: trapezoid transform of the regression correlator over
        # 40 T2 at d_tau = 0.0025 ns, the coherent part subtracted
        params = tls.TlsParams(1.85, 1.62)
        drive = tls.Drive(2.0, 0.3)
        freqs = np.linspace(-2.0, 2.6, 47)
        l = tls.tls_liouvillian(params, drive)
        rho_ss = qdyn.steady_state(l)
        grid = TimeGrid(0.0, 40.0 * params.t1, 29601)
        corr = qdyn.regression_correlator(
            l, rho_ss, tls.SIGMA_PLUS, tls.SIGMA_MINUS, np.eye(2), grid
        )
        c_inc = corr - np.trace(tls.SIGMA_PLUS @ rho_ss) * np.trace(
            tls.SIGMA_MINUS @ rho_ss
        )
        weights = np.full(grid.n_points, grid.dt)
        weights[[0, -1]] *= 0.5
        omega = 2 * np.pi * (freqs - drive.detuning_ghz)
        reference = 2.0 * np.real(
            np.exp(-1j * np.outer(omega, grid.times())) @ (c_inc * weights)
        )
        spectrum = photostats.emission_spectrum(params, drive, freqs)
        assert np.max(np.abs(spectrum - reference)) <= 1e-5 * reference.max()

    def test_negative_spectrum_is_a_numeric_failure(self, monkeypatch):
        # the projection on sigma+ negated: every intensity comes out below zero
        monkeypatch.setattr(photostats, "SIGMA_PLUS", -tls.SIGMA_PLUS)
        with pytest.raises(NumericFailure,
                           match="emission spectrum went negative beyond tolerance"):
            photostats.emission_spectrum(
                tls.TlsParams(1.85, 1.62), tls.Drive(1.0), np.linspace(-3.0, 3.0, 61)
            )

    def test_bad_frequency_axis_rejected(self):
        with pytest.raises(ModelError, match="increasing"):
            photostats.emission_spectrum(
                tls.TlsParams(1.85, 1.62), tls.Drive(1.0), np.array([1.0, 0.5, 2.0])
            )
