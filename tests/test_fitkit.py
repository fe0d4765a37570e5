import numpy as np
import pytest

from emitterlab import fitkit, qdyn, synth, tls
from emitterlab.errors import ModelError
from emitterlab.qdyn import TimeGrid, TimeTrace


def synthetic_rabi_trace(rabi_ghz=1.304, t2=1.62, n=801, tau_max=10.0,
                         scale=1.0, offset=0.0):
    grid = TimeGrid(0.0, tau_max, n)
    params = tls.TlsParams(1.85, t2)
    y = scale * tls.rabi_population_analytic(params, tls.Drive(rabi_ghz),
                                             grid.times()) + offset
    return TimeTrace(grid, y)


class TestLmFit:
    def test_exact_line(self):
        x = np.linspace(0.0, 5.0, 25)
        res = fitkit.lm_fit(lambda xv, m, b: m * xv + b, x, 2.0 * x + 1.0,
                            {"m": 0.3, "b": -2.0})
        assert res.converged
        assert res["m"] == pytest.approx(2.0, abs=1e-10)
        assert res["b"] == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_recovery_within_errors(self):
        rng = np.random.default_rng(11)
        x = np.linspace(-3.0, 3.0, 121)

        def gauss(xv, center, width, amp):
            return amp * np.exp(-0.5 * ((xv - center) / width) ** 2)

        y = gauss(x, 0.4, 0.8, 2.0) + rng.normal(0.0, 0.005, x.size)
        res = fitkit.lm_fit(gauss, x, y, {"center": 0.0, "width": 1.0, "amp": 1.5},
                            positive=("width", "amp"))
        assert res.converged
        for name, truth in (("center", 0.4), ("width", 0.8), ("amp", 2.0)):
            assert abs(res[name] - truth) < 3.0 * res.stderr[name]
        # covariance is symmetric positive semidefinite
        assert np.allclose(res.covariance, res.covariance.T)
        assert np.min(np.linalg.eigvalsh(res.covariance)) > -1e-15

    def test_underdetermined_rejected(self):
        with pytest.raises(ModelError, match="points"):
            fitkit.lm_fit(lambda xv, a, b, c: a * xv**2 + b * xv + c,
                          np.array([0.0, 1.0]), np.array([1.0, 2.0]),
                          {"a": 1.0, "b": 1.0, "c": 1.0})

    def test_singular_normal_equations_raise(self):
        from emitterlab.errors import NumericFailure

        # parameter b has no effect on the model: a permanently singular system
        x = np.linspace(0.0, 5.0, 20)
        with pytest.raises(NumericFailure, match="singular"):
            fitkit.lm_fit(lambda xv, a, b: a * xv, x, 2.0 * x + 0.01,
                          {"a": 1.0, "b": 1.0})

    def test_linear_model_reproduces_closed_form(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0.5, 9.0, 40)
        y = 1.7 * x + 0.3 + rng.normal(0.0, 0.2, x.size)
        res = fitkit.lm_fit(lambda xv, m, b: m * xv + b, x, y,
                            {"m": 1.0, "b": 0.0})
        coef = np.polyfit(x, y, 1)
        assert res["m"] == pytest.approx(coef[0], abs=1e-10)
        assert res["b"] == pytest.approx(coef[1], abs=1e-10)


class TestFitRabi:
    def test_noiseless_exact_recovery(self):
        trace = synthetic_rabi_trace()
        res = fitkit.fit_rabi(trace, t1_fixed=1.85)
        assert res.converged
        assert res["omega_ghz"] == pytest.approx(1.304, abs=1e-6)
        assert res["t2_ns"] == pytest.approx(1.62, abs=1e-5)
        assert res["scale_a"] == pytest.approx(1.0, abs=1e-6)
        assert abs(res["offset_dg"]) < 1e-6
        assert abs(res["dt_ns"]) < 1e-6

    def test_recovers_scale_offset_and_displacement(self):
        grid = TimeGrid(0.0, 10.0, 801)
        params = tls.TlsParams(1.85, 1.62)
        y = 740.0 * tls.rabi_population_analytic(
            params, tls.Drive(0.906), grid.times() - 0.05
        ) + 55.0
        res = fitkit.fit_rabi(TimeTrace(grid, y), t1_fixed=1.85)
        assert res["omega_ghz"] == pytest.approx(0.906, rel=1e-6)
        assert res["scale_a"] == pytest.approx(740.0, rel=1e-5)
        assert res["offset_dg"] == pytest.approx(55.0, abs=1e-2)
        assert res["dt_ns"] == pytest.approx(0.05, abs=1e-6)

    def test_rescaled_counts_same_frequency(self):
        trace = synthetic_rabi_trace()
        scaled = TimeTrace(trace.grid, 1234.5 * trace.values)
        res1 = fitkit.fit_rabi(trace, t1_fixed=1.85)
        res2 = fitkit.fit_rabi(scaled, t1_fixed=1.85)
        assert res1["omega_ghz"] == pytest.approx(res2["omega_ghz"], rel=1e-7)
        assert res2["scale_a"] == pytest.approx(1234.5 * res1["scale_a"], rel=1e-5)

    def test_offset_initial_guess_reaches_same_optimum(self):
        trace = synthetic_rabi_trace(rabi_ghz=1.0)
        baseline = fitkit.fit_rabi(trace, t1_fixed=1.85)
        mode = tls.resolve_mu_mode("auto")

        def model(xv, omega_ghz, t2_ns, scale_a, offset_dg, dt_ns):
            return fitkit.rabi_model(xv, omega_ghz, t2_ns, scale_a, offset_dg,
                                     dt_ns, t1_ns=1.85, mu_mode=mode)

        shifted = {"omega_ghz": 1.3, "t2_ns": 1.62 * 0.7, "scale_a": 1.3,
                   "offset_dg": 0.0, "dt_ns": 0.0}
        res = fitkit.lm_fit(model, trace.grid.times(), trace.values, shifted,
                            weights=1.0 / np.sqrt(np.maximum(trace.values, 1.0)),
                            positive=("omega_ghz", "t2_ns", "scale_a"))
        assert res["omega_ghz"] == pytest.approx(baseline["omega_ghz"], rel=1e-6)
        assert res["t2_ns"] == pytest.approx(baseline["t2_ns"], rel=1e-4)

    def test_poisson_noise_round_trip(self):
        # smoke version of the acceptance statistics, 3 seeds
        trace = synthetic_rabi_trace()
        for seed in range(3):
            grid, counts = synth.synth_counts(trace, synth.NoiseSpec(seed=seed, scale=1e4))
            noisy = TimeTrace(grid, counts.astype(float))
            res = fitkit.fit_rabi(noisy, t1_fixed=1.85)
            assert res["omega_ghz"] == pytest.approx(1.304, rel=0.02)
            assert res["t2_ns"] == pytest.approx(1.62, rel=0.10)

    def test_non_oscillatory_data_flagged(self):
        grid = TimeGrid(0.0, 10.0, 101)
        res = fitkit.fit_rabi(TimeTrace(grid, np.full(101, 0.5)), t1_fixed=1.85)
        assert not res.converged
        assert "oscilla" in res.message

    def test_too_few_periods_flagged(self):
        # clean 2.4-period tone: the spectral peak exists but the span is short
        grid = TimeGrid(0.0, 8.0, 201)
        y = np.sin(2 * np.pi * 0.3 * grid.times() / 2.0) ** 2
        res = fitkit.fit_rabi(TimeTrace(grid, y), t1_fixed=1.85)
        assert not res.converged
        assert "periods" in res.message


class TestFitLinearSqrtp:
    def test_exact_calibration_data(self):
        params = tls.TlsParams(1.85, 1.62)
        calib = tls.PowerCalib(20.0)
        powers = np.linspace(5.0, 500.0, 9)
        omegas = [tls.power_to_rabi(calib, params, p) for p in powers]
        res = fitkit.fit_linear_sqrtp(powers, omegas)
        assert abs(res["intercept"]) < 1e-10
        assert res.extra["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_noisy_slope_within_five_percent(self):
        rng = np.random.default_rng(2)
        powers = np.linspace(10.0, 800.0, 15)
        slope = 0.02
        omegas = slope * np.sqrt(powers) * (1.0 + rng.normal(0.0, 0.05, 15))
        res = fitkit.fit_linear_sqrtp(powers, omegas)
        assert res["slope"] == pytest.approx(slope, rel=0.05)
        assert abs(res["intercept"]) < 2.0 * res.stderr["intercept"] + 1e-3

    def test_degenerate_powers_rejected(self):
        with pytest.raises(ModelError, match="degenerate"):
            fitkit.fit_linear_sqrtp([5.0, 5.0, 5.0], [0.1, 0.2, 0.3])


class TestFitLorentzian:
    def test_exact_recovery(self):
        x = np.linspace(-1.0, 1.0, 201)
        y = fitkit.lorentzian_model(x, 0.0, 0.219, 1.0, 0.0)
        res = fitkit.fit_lorentzian_fwhm(x, y)
        assert res["fwhm"] == pytest.approx(0.219, abs=1e-8)

    def test_offset_does_not_change_width(self):
        x = np.linspace(-1.0, 1.0, 201)
        y = fitkit.lorentzian_model(x, 0.1, 0.3, 2.0, 0.0)
        res1 = fitkit.fit_lorentzian_fwhm(x, y)
        res2 = fitkit.fit_lorentzian_fwhm(x, y + 5.0)
        assert res1["fwhm"] == pytest.approx(res2["fwhm"], rel=1e-8)

    def test_unbracketed_peak_rejected(self):
        x = np.linspace(-0.05, 0.05, 41)
        y = fitkit.lorentzian_model(x, 0.0, 0.5, 1.0, 0.0)
        with pytest.raises(ModelError, match="bracket"):
            fitkit.fit_lorentzian_fwhm(x, y)


class TestFitExpDecay:
    @pytest.mark.parametrize("tau", [1.85, 0.78])
    def test_exact_recovery(self, tau):
        x = np.linspace(0.0, 8.0, 80)
        res = fitkit.fit_exp_decay(x, 2.5 * np.exp(-x / tau) + 0.1)
        assert res.converged
        assert res["tau_ns"] == pytest.approx(tau, abs=1e-8)

    def test_constant_data_flagged(self):
        x = np.linspace(0.0, 8.0, 40)
        res = fitkit.fit_exp_decay(x, np.full(40, 1.5))
        assert not res.converged

    def test_short_span_rejected(self):
        x = np.linspace(0.0, 0.5, 20)
        with pytest.raises(ModelError, match="decay constant"):
            fitkit.fit_exp_decay(x, np.exp(-x / 2.0))


class TestFitSineSqrtp:
    def test_exact_recovery(self):
        x = np.linspace(0.0, 3.0, 70)
        y = fitkit.sine_sqrtp_model(x, 2.2, 1.3, 0.4, 0.1)
        res = fitkit.fit_sine_sqrtp(x, y)
        assert res.converged
        assert res["period"] == pytest.approx(1.3, abs=1e-8)
        assert res["amplitude"] == pytest.approx(2.2, abs=1e-8)

    def test_zero_amplitude_flagged(self):
        x = np.linspace(0.0, 3.0, 30)
        res = fitkit.fit_sine_sqrtp(x, np.full(30, 0.7))
        assert (not res.converged) or res["amplitude"] < 1e-6


class TestUncertaintyScaling:
    def test_stderr_shrinks_with_replication(self):
        # concatenating 4 independently noised copies halves the errors
        x = np.linspace(0.0, 8.0, 60)

        def one(n_copies, seed0):
            xs, ys = [], []
            for k in range(n_copies):
                rng = np.random.default_rng(seed0 + k)
                xs.append(x)
                ys.append(2.0 * np.exp(-x / 1.5) + 0.2
                          + rng.normal(0.0, 0.02, x.size))
            res = fitkit.fit_exp_decay(np.concatenate(xs), np.concatenate(ys))
            return res.stderr["tau_ns"]

        ratio = one(4, 100) / one(1, 100)
        assert 0.35 < ratio < 0.65
