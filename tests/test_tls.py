import numpy as np
import pytest

from emitterlab import fitkit, photostats, qdyn, tls
from emitterlab.errors import ModelError
from emitterlab.qdyn import TimeGrid, TimeTrace


class TestTypes:
    def test_t2_bounded_by_twice_t1(self):
        tls.TlsParams(1.85, 3.7)  # boundary allowed
        with pytest.raises(ModelError):
            tls.TlsParams(1.85, 3.8)
        with pytest.raises(ModelError):
            tls.TlsParams(1.85, 0.0)

    def test_gamma_phi_derivation(self, emitter_params):
        assert emitter_params.gamma_phi == pytest.approx(1 / 1.62 - 0.5 / 1.85)
        assert tls.TlsParams(1.85, 3.7).gamma_phi == 0.0

    def test_negative_rabi_rejected(self):
        with pytest.raises(ModelError):
            tls.Drive(-0.1)

    def test_pulse_envelope_validation(self):
        with pytest.raises(ModelError):
            tls.PulseEnvelope("square", 20.0, 15.0)
        with pytest.raises(ModelError):
            tls.PulseEnvelope("triangle", 5.0, 15.0)
        with pytest.raises(ModelError):
            tls.PowerCalib(0.0)


class TestGeneralizedRabi:
    def test_three_four_five(self):
        assert tls.generalized_rabi(tls.Drive(0.3, 0.4)) == pytest.approx(0.5)

    def test_resonant_is_bare(self):
        assert tls.generalized_rabi(tls.Drive(1.304, 0.0)) == pytest.approx(1.304)

    def test_detuned_value(self):
        assert tls.generalized_rabi(tls.Drive(1.304, 1.0)) == pytest.approx(
            1.6432, abs=1e-4
        )

    def test_lower_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            om, det = rng.uniform(0, 3), rng.uniform(-3, 3)
            fg = tls.generalized_rabi(tls.Drive(om, det))
            assert fg >= max(om, abs(det)) - 1e-12
        assert tls.generalized_rabi(tls.Drive(0.7, 0.0)) == pytest.approx(0.7)
        assert tls.generalized_rabi(tls.Drive(0.0, -0.7)) == pytest.approx(0.7)


class TestAnalyticPopulation:
    def test_zero_delay_zero_infinity_one(self, emitter_params):
        drive = tls.Drive(0.906)
        assert tls.rabi_population_analytic(emitter_params, drive, 0.0) == 0.0
        assert tls.rabi_population_analytic(emitter_params, drive, 1e4) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_mu_oracle_selects_and_discriminates(self):
        oracle = tls.mu_mode_oracle()
        assert oracle.mode in ("minus", "plus")
        rms = {"minus": oracle.rms_minus, "plus": oracle.rms_plus}
        assert rms[oracle.mode] < 1e-6
        other = "plus" if oracle.mode == "minus" else "minus"
        assert rms[other] >= 1e3 * rms[oracle.mode]

    @pytest.mark.parametrize("rabi_ghz", [0.906, 1.304, 1.854])
    def test_matches_lindblad_correlator(self, emitter_params, rabi_ghz):
        drive = tls.Drive(rabi_ghz)
        grid = TimeGrid(0.0, 10.0, 501)
        numeric = tls.normalized_correlator(emitter_params, drive, grid)
        analytic = tls.rabi_population_analytic(emitter_params, drive, grid.times())
        assert np.sqrt(np.mean((numeric - analytic) ** 2)) < 1e-6

    def test_overdamped_continuation_is_finite(self):
        # obe-mode mu is imaginary when Omega_g < |1/(2T1) - 1/(2T2)|
        params = tls.TlsParams(t1=10.0, t2=0.2)
        weak = tls.Drive(0.001)
        tau = np.linspace(0.0, 5.0, 200)
        p = tls.rabi_population_analytic(params, weak, tau, mu_mode="minus")
        assert np.all(np.isfinite(p))
        assert np.all(np.diff(p) >= -1e-12)  # no oscillation when overdamped

    def test_mu_zero_limit_continuous(self):
        params = tls.TlsParams(t1=1.0, t2=1.0)
        eps = tls.Drive(1e-9 / (2 * np.pi))
        zero = tls.Drive(0.0)
        tau = np.linspace(0.0, 4.0, 50)
        a = tls.rabi_population_analytic(params, eps, tau, mu_mode="minus")
        b = tls.rabi_population_analytic(params, zero, tau, mu_mode="minus")
        assert np.max(np.abs(a - b)) < 1e-9

    def test_invalid_mode_rejected(self, emitter_params):
        with pytest.raises(ModelError):
            tls.rabi_population_analytic(emitter_params, tls.Drive(1.0), 1.0, "guess")


class TestRabiTrace:
    def test_no_drive_no_population(self, emitter_params):
        trace = tls.rabi_trace_numeric(
            emitter_params, tls.Drive(0.0), tls.PulseEnvelope("square", 5.0, 15.0),
            TimeGrid(0.0, 15.0, 301),
        )
        assert np.max(np.abs(trace.values)) < 1e-12

    def test_square_pulse_oscillates_then_decays(self, emitter_params):
        grid = TimeGrid(0.0, 15.0, 1501)
        trace = tls.rabi_trace_numeric(
            emitter_params, tls.Drive(1.854), tls.PulseEnvelope("square", 5.0, 15.0),
            grid,
        )
        # during-pulse frequency from the FFT matches the drive
        n_on = int(5.0 / grid.dt)
        sub = TimeTrace(TimeGrid(0.0, (n_on - 1) * grid.dt, n_on),
                        trace.values[:n_on])
        found, bin_ghz = photostats.fft_peaks(sub)
        assert abs(found[0][0] - 1.854) <= bin_ghz
        # post-pulse decay is a clean T1 exponential
        t = grid.times()
        tail = (t > 6.0) & (t < 14.0)
        slope = np.polyfit(t[tail], np.log(trace.values[tail]), 1)[0]
        assert -1.0 / slope == pytest.approx(1.85, rel=1e-3)

    def test_fft_peak_matches_generalized_rabi_when_detuned(self, emitter_params):
        grid = TimeGrid(0.0, 20.5, 2049)
        trace = tls.rabi_trace_numeric(
            emitter_params, tls.Drive(1.304, 1.0),
            tls.PulseEnvelope("square", 20.0, 20.5), grid,
        )
        n_on = int(20.0 / grid.dt)
        sub = TimeTrace(TimeGrid(0.0, (n_on - 1) * grid.dt, n_on),
                        trace.values[:n_on])
        found, bin_ghz = photostats.fft_peaks(sub)
        expected = tls.generalized_rabi(tls.Drive(1.304, 1.0))
        assert abs(found[0][0] - expected) <= bin_ghz

    def test_grid_must_cover_a_period(self, emitter_params):
        with pytest.raises(ModelError, match="period"):
            tls.rabi_trace_numeric(
                emitter_params, tls.Drive(1.0), tls.PulseEnvelope("square", 5.0, 15.0),
                TimeGrid(0.0, 10.0, 101),
            )

    def test_gaussian_pulse_smooth_drive(self, emitter_params):
        trace = tls.rabi_trace_numeric(
            emitter_params, tls.Drive(1.0),
            tls.PulseEnvelope("gaussian", 0.5, 6.0), TimeGrid(0.0, 6.0, 301),
        )
        assert np.max(trace.values) > 0.1
        assert np.all(trace.values >= -1e-12)


class TestLineshape:
    def test_transform_limited_width(self, radiative_params):
        # s = 0.01: FWHM = sqrt(1 + s) / (pi T2) ~ 86 MHz for T2 = 2 T1
        omega = np.sqrt(0.01 / (1.85 * 3.7)) / (2 * np.pi)
        x = np.linspace(-0.4, 0.4, 161)
        fit = fitkit.fit_lorentzian_fwhm(x, tls.excitation_lineshape(radiative_params, omega, x))
        assert fit["fwhm"] == pytest.approx(0.086, rel=0.03)

    def test_power_broadening_sqrt_law(self, radiative_params):
        # at s = 1 the width grows by sqrt(2): ~122 MHz in the radiative limit
        omega = np.sqrt(1.0 / (1.85 * 3.7)) / (2 * np.pi)
        x = np.linspace(-0.6, 0.6, 161)
        fit = fitkit.fit_lorentzian_fwhm(x, tls.excitation_lineshape(radiative_params, omega, x))
        assert fit["fwhm"] == pytest.approx(0.086 * np.sqrt(2.0), rel=0.03)

    def test_symmetric_in_detuning(self, emitter_params):
        pops = tls.excitation_lineshape(
            emitter_params, 0.1, np.linspace(-0.8, 0.8, 41)
        )
        assert np.max(np.abs(pops - pops[::-1])) < 1e-10

    def test_fwhm_monotone_in_rabi(self, emitter_params):
        widths = []
        for omega in (0.03, 0.1, 0.2):
            x = np.linspace(-1.5, 1.5, 201)
            pops = tls.excitation_lineshape(emitter_params, omega, x)
            widths.append(fitkit.fit_lorentzian_fwhm(x, pops)["fwhm"])
        assert widths[0] <= widths[1] <= widths[2]

    def test_narrow_range_rejected(self, emitter_params):
        with pytest.raises(ModelError, match="half maximum"):
            tls.excitation_lineshape(emitter_params, 0.5, np.linspace(-0.05, 0.05, 11))


class TestPowerCalibration:
    def test_zero_power(self, emitter_params):
        calib = tls.PowerCalib(20.0)
        assert tls.power_to_rabi(calib, emitter_params, 0.0) == 0.0

    def test_saturation_point(self, emitter_params):
        calib = tls.PowerCalib(20.0)
        expected = 1.0 / (2 * np.pi * np.sqrt(1.85 * 1.62))
        assert tls.power_to_rabi(calib, emitter_params, 20.0) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(0.0919, abs=1e-4)

    def test_300_times_saturation(self, emitter_params):
        # s = 300 gives an angular Rabi frequency near 10 rad/ns, within 20%
        # of the 12 rad/ns strong-drive calibration point
        calib = tls.PowerCalib(20.0)
        omega_angular = 2 * np.pi * tls.power_to_rabi(calib, emitter_params, 300 * 20.0)
        assert omega_angular == pytest.approx(10.005, abs=1e-3)
        assert abs(omega_angular - 12.0) / 12.0 < 0.20

    def test_exactly_linear_in_sqrt_power(self, emitter_params):
        calib = tls.PowerCalib(20.0)
        for p in (1.0, 7.3, 120.0):
            assert tls.power_to_rabi(calib, emitter_params, 4 * p) == pytest.approx(
                2 * tls.power_to_rabi(calib, emitter_params, p), rel=1e-15
            )


class TestPulsedRabiScan:
    def test_zero_power_zero_population(self, emitter_params):
        # alone, and as one member of a batched scan at the finest step
        for shape in ("square", "gaussian"):
            pulse = tls.PulseEnvelope(shape, 0.2, 12.5)
            for powers in ([0.0], [0.0, 5000.0, 15000.0]):
                pops = tls.pulsed_rabi_scan(emitter_params, pulse, powers,
                                            tls.PowerCalib(20.0))
                assert pops[0] == 0.0
                assert np.all(pops[1:] > 0.1)

    def test_pi_pulse_reaches_near_unity(self, radiative_params):
        # decay during a 200 ps pulse costs at most ~5% of the flip
        pulse = tls.PulseEnvelope("square", 0.2, 12.5)
        omega_pi = np.pi / pulse.area_factor()
        p_pi = omega_pi**2 * 1.85 * 3.7 * 20.0
        pops = tls.pulsed_rabi_scan(radiative_params, pulse, [p_pi],
                                    tls.PowerCalib(20.0))
        assert 1.0 - pops[0] <= 1.0 - np.exp(-0.2 / 1.85 * 0.5) + 0.01

    def test_oscillation_fits_sine(self, emitter_params):
        pulse = tls.PulseEnvelope("square", 0.2, 12.5)
        omega_top = 4.2 * np.pi / pulse.area_factor()
        p_max = omega_top**2 * 1.85 * 1.62 * 20.0
        powers = np.linspace(0.0, p_max, 60)
        pops = tls.pulsed_rabi_scan(emitter_params, pulse, powers,
                                    tls.PowerCalib(20.0))
        fit = fitkit.fit_sine_sqrtp(np.sqrt(powers), pops)
        assert fit.converged
        expected_period = 2.0 * np.sqrt((np.pi / 0.2) ** 2 * 1.85 * 1.62 * 20.0)
        assert fit["period"] == pytest.approx(expected_period, rel=0.05)
