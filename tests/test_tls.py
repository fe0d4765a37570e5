import decimal

import numpy as np
import pytest

from emitterlab import fitkit, photostats, qdyn, tls
from emitterlab.errors import ModelError, NumericFailure
from emitterlab.qdyn import TimeGrid, TimeTrace


def _exact_overdamped_population(t1, t2, omega_g_angular, tau):
    """1 - e^(-eta tau)(cosh m tau + eta/m sinh m tau) in 40-digit decimal arithmetic."""
    ctx = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    with decimal.localcontext(ctx):
        t1, t2, w, t = (decimal.Decimal(x) for x in (t1, t2, omega_g_angular, tau))
        eta = (1 / t1 + 1 / t2) / 2
        delta = (1 / t1 - 1 / t2) / 2
        m = (delta * delta - w * w).sqrt()
        grow, shrink = (m * t).exp(), (-m * t).exp()
        inner = (grow + shrink) / 2 + eta / m * (grow - shrink) / 2
        return float(1 - (-eta * t).exp() * inner)


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


class TestDriveCoupling:
    def test_sigma_x_at_phase_zero(self):
        # bit for bit the (Omega/2) sigma_x that every drive site built before
        omega = 2 * np.pi * 1.304
        assert np.array_equal(tls.drive_coupling(omega), 0.5 * omega * tls.SIGMA_X)
        assert not np.any(np.signbit(tls.drive_coupling(omega).imag))

    def test_sigma_y_at_quarter_phase_and_stacks(self):
        phases = np.array([0.0, np.pi / 2])[:, None, None]
        stack = tls.drive_coupling(np.array([2.0, 4.0])[:, None, None], phases)
        assert stack.shape == (2, 2, 2)
        assert np.allclose(stack[1], 2.0 * tls.SIGMA_Y, atol=1e-15)
        assert np.array_equal(stack[0], tls.SIGMA_X)


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

    @pytest.mark.parametrize("rabi_ghz", [0.906, 1.304, 1.854])
    def test_matches_lindblad_correlator(self, emitter_params, rabi_ghz):
        drive = tls.Drive(rabi_ghz)
        grid = TimeGrid(0.0, 10.0, 501)
        numeric = tls.normalized_correlator(emitter_params, drive, grid)
        analytic = tls.rabi_population_analytic(emitter_params, drive, grid.times())
        assert np.sqrt(np.mean((numeric - analytic) ** 2)) < 1e-6

    def test_imaginary_correlator_is_a_numeric_failure(self, emitter_params, monkeypatch):
        original = qdyn.regression_correlator
        monkeypatch.setattr(qdyn, "regression_correlator",
                            lambda *args: original(*args) + 1e-6j)
        with pytest.raises(NumericFailure, match="g2 correlator acquired an imaginary part"):
            tls.normalized_correlator(emitter_params, tls.Drive(0.906),
                                      TimeGrid(0.0, 10.0, 101))

    def test_overdamped_continuation_is_finite(self):
        # obe-mode mu is imaginary when Omega_g < |1/(2T1) - 1/(2T2)|
        params = tls.TlsParams(t1=10.0, t2=0.2)
        weak = tls.Drive(0.001)
        tau = np.linspace(0.0, 5.0, 200)
        p = tls.rabi_population_analytic(params, weak, tau)
        assert np.all(np.isfinite(p))
        assert np.all(np.diff(p) >= -1e-12)  # no oscillation when overdamped

    def test_strongly_overdamped_population_is_finite(self):
        # T2 = 1e-9 ns puts m tau near 1e10: cosh and sinh would overflow,
        # and inf * 0 would give nan.  eta^2 ~ 2.5e17 but eta^2 + mu^2 ~ 5e8:
        # forming the slow decay rate from the difference would lose 7 digits
        params = tls.TlsParams(t1=1.85, t2=1e-9)
        tau = np.linspace(0.0, 10.0, 501)
        p = tls.rabi_population_analytic(params, tls.Drive(0.906), tau)
        assert p[0] == 0.0
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert np.all(np.diff(p) >= 0.0)
        exact = [_exact_overdamped_population(1.85, 1e-9, 2 * np.pi * 0.906, t)
                 for t in tau[[25, 100, 500]]]
        assert np.max(np.abs(p[[25, 100, 500]] - exact)) < 1e-14

    def test_near_critical_damping_matches_critical_branch(self):
        # t1 = 1, t2 = 0.5, Omega_g = 0.5 make mu^2 exactly 0; one ulp either
        # side gives |mu^2| ~ 6e-17, so m ~ 7e-9 in the overdamped branch
        tau = np.linspace(0.0, 10.0, 101)
        critical = tls._population_formula(1.0, 0.5, 0.5, tau)
        for omega in (np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)):
            p = tls._population_formula(1.0, 0.5, omega, tau)
            assert np.max(np.abs(p - critical)) < 1e-14

    def test_mu_zero_limit_continuous(self):
        params = tls.TlsParams(t1=1.0, t2=1.0)
        eps = tls.Drive(1e-9 / (2 * np.pi))
        zero = tls.Drive(0.0)
        tau = np.linspace(0.0, 4.0, 50)
        a = tls.rabi_population_analytic(params, eps, tau)
        b = tls.rabi_population_analytic(params, zero, tau)
        assert np.max(np.abs(a - b)) < 1e-9


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

    def test_detuning_member_equals_lone_run(self, emitter_params):
        # the default detuning_map scan: each member's exact maps are scaled
        # and squared alone, so a detuning run alone gives the same bits
        pulse = tls.PulseEnvelope("square", 20.0, 20.5)
        grid = TimeGrid(0.0, 20.5, 2049)
        detunings = np.linspace(-2.0, 2.0, 21)
        traces = tls.rabi_traces(emitter_params, 1.304, detunings, pulse, grid)
        for k in (0, 7, 10, 20):
            lone = tls.rabi_traces(emitter_params, 1.304, [detunings[k]], pulse, grid)[0]
            assert np.array_equal(traces[k], lone)

    def test_gaussian_members_equal_lone_runs(self, emitter_params):
        # sampled shaped runs: the piece maps of a member and their prefix
        # windows do not depend on the batch, so a gaussian scan member run
        # alone gives the same bits
        short = tls.PulseEnvelope("gaussian", 0.2, 12.5)
        calib = tls.PowerCalib(20.0)
        p_top = (4.2 * np.pi / short.area_factor())**2 * 1.85 * 1.62 * calib.p_sat_nw
        powers = np.linspace(0.0, p_top, 70)
        pops = tls.pulsed_rabi_scan(emitter_params, short, powers, calib)
        assert pops[-1] == tls.pulsed_rabi_scan(emitter_params, short, powers[-1:], calib)[0]
        pulse = tls.PulseEnvelope("gaussian", 5.0, 15.0)
        grid = TimeGrid(0.0, 15.0, 1501)
        detunings = [-0.5, 0.0, 0.5]
        traces = tls.rabi_traces(emitter_params, 0.906, detunings, pulse, grid)
        for k in (0, 2):
            lone = tls.rabi_traces(emitter_params, 0.906, detunings[k:k + 1], pulse, grid)[0]
            assert np.array_equal(traces[k], lone)

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
