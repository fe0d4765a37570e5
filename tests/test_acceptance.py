"""Acceptance suite: every headline quantitative claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them
all); tolerances are pinned here, not configurable.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from emitterlab import (
    cli,
    fitkit,
    lambda_system,
    peaks,
    photostats,
    qdyn,
    ramsey,
    synth,
    tls,
)
from emitterlab.qdyn import TimeGrid, TimeTrace


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_01_transform_limited_linewidth():
    with criterion("01 transform-limited linewidth 86 MHz +/- 3%"):
        params = tls.TlsParams(t1=1.85, t2=3.7)
        omega = math.sqrt(0.01 / (1.85 * 3.7)) / (2 * math.pi)  # s = 0.01
        x = np.linspace(-0.4, 0.4, 161)
        fit = fitkit.fit_lorentzian_fwhm(x, tls.excitation_lineshape(params, omega, x))
        assert fit.converged
        assert abs(fit["fwhm"] - 0.086) <= 0.03 * 0.086


def test_02_analytic_vs_lindblad_oracle():
    with criterion("02 damped-Rabi formula vs Lindblad oracle (RMS < 1e-6)"):
        rms = tls.closed_form_g2_rms()
        assert rms < 1e-6
        params = tls.TlsParams(1.85, 1.62)
        grid = TimeGrid(0.0, 10.0, 501)
        tau = grid.times()
        # the other sign, mu^2 = Omega^2 + (1/(2 T1) - 1/(2 T2))^2, at the same point
        eta, delta_rate = 0.5 / 1.85 + 0.5 / 1.62, 0.5 / 1.85 - 0.5 / 1.62
        mu = math.sqrt((2 * math.pi) ** 2 + delta_rate**2)
        plus = 1.0 - np.exp(-eta * tau) * (np.cos(mu * tau) + eta / mu * np.sin(mu * tau))
        numeric = tls.normalized_correlator(params, tls.Drive(1.0), grid)
        assert np.sqrt(np.mean((plus - numeric) ** 2)) >= 1e3 * rms  # 3 orders of magnitude
        for rabi_ghz in (0.906, 1.304, 1.854):
            drive = tls.Drive(rabi_ghz)
            numeric = tls.normalized_correlator(params, drive, grid)
            analytic = tls.rabi_population_analytic(params, drive, tau)
            assert np.sqrt(np.mean((numeric - analytic) ** 2)) < 1e-6


def test_03_mollow_fft_components():
    with criterion("03 FFT components at sqrt(Omega^2 + Delta^2), one bin"):
        params = tls.TlsParams(1.85, 1.62)
        pulse = tls.PulseEnvelope("square", 20.0, 20.5)
        grid = TimeGrid(0.0, 20.5, 2049)
        n_on = int(20.0 / grid.dt)
        for det in (-2.0, -1.0, 0.0, 1.0, 2.0):
            trace = tls.rabi_trace_numeric(params, tls.Drive(1.304, det), pulse, grid)
            sub = TimeTrace(TimeGrid(0.0, (n_on - 1) * grid.dt, n_on),
                            trace.values[:n_on])
            found, bin_ghz = photostats.fft_peaks(sub)
            expected = math.hypot(1.304, det)
            assert found, f"no oscillation peak at detuning {det}"
            assert abs(found[0][0] - expected) <= bin_ghz


def test_04_emission_spectrum_triplet():
    with criterion("04 Mollow triplet: peaks +/-2 GHz (2%), heights 3:1 (10%)"):
        freqs = np.linspace(-4.0, 4.0, 1601)
        spectrum = photostats.emission_spectrum(
            tls.TlsParams(1.85, 3.7), tls.Drive(2.0, 0.0), freqs
        )
        idx = peaks.local_maxima(spectrum, min_fraction=0.05)
        refined = sorted(peaks.parabolic_refine(freqs, spectrum, i) for i in idx)
        assert len(refined) == 3
        assert abs(refined[0][0] - (-2.0)) <= 0.02 * 2.0
        assert abs(refined[1][0]) <= 0.02 * 2.0
        assert abs(refined[2][0] - 2.0) <= 0.02 * 2.0
        ratio = refined[1][1] / (0.5 * (refined[0][1] + refined[2][1]))
        assert abs(ratio - 3.0) <= 0.10 * 3.0


def test_05_g2_fundamentals():
    with criterion("05 g2(0) = 0, g2(10 T1) = 1, IRF fills the dip"):
        params = tls.TlsParams(1.85, 1.62)
        g2 = photostats.g2_curve(params, tls.Drive(0.906),
                                 TimeGrid(0.0, 18.5, 926))
        mid = g2.grid.n_points // 2
        assert g2.values[mid] < 1e-6
        assert abs(g2.values[-1] - 1.0) <= 1e-3
        dips = []
        for sigma in (0.05, 0.15, 0.3):
            smeared = photostats.apply_irf(g2, sigma)
            i0 = int(np.argmin(np.abs(smeared.grid.times())))
            dips.append(smeared.values[i0])
        assert 0.0 < dips[0] < dips[1] < dips[2]


def test_06_autler_townes_splitting():
    with criterion("06 Autler-Townes: splitting = Omega_C (5%), linear in "
                   "sqrt(P), diagonal dark valley"):
        params = lambda_system.LambdaParams()
        x = np.linspace(-0.9, 0.9, 361)
        powers, splittings = [], []
        for omega_c in (0.3, 0.5, 0.8):
            y = lambda_system.probe_scan(params, omega_c, 0.0, 0.02, x)
            splitting = lambda_system.dip_splitting(x, y)
            assert abs(splitting - omega_c) <= 0.05 * omega_c
            powers.append(omega_c**2 * 1.85 * 1.62 * 20.0)
            splittings.append(splitting)
        fit = fitkit.fit_linear_sqrtp(powers, splittings)
        assert fit.extra["r_squared"] > 0.99
        assert abs(fit["intercept"]) < 0.02  # consistent with zero

        omega_sat = 1.0 / (2 * math.pi * math.sqrt(1.85 * 1.62))
        dcs = np.linspace(-1.5, 1.5, 61)
        dds = np.linspace(-1.5, 1.5, 61)
        fluor = lambda_system.at_map2d(
            params, math.sqrt(20.0) * omega_sat, math.sqrt(2.5) * omega_sat,
            dcs, dds,
        )
        step = dds[1] - dds[0]
        for i, dc in enumerate(dcs):
            window = np.where(np.abs(dds - dc) <= 0.35)[0]
            j = window[np.argmin(fluor[i, window])]
            assert abs(dds[j] - dc) <= step * 1.001


def test_07_round_trip_fits():
    with criterion("07 Poisson round-trip fits (Omega 2%, T2 10%, 19/20 seeds); "
                   "exact decay constants to 1%"):
        params = tls.TlsParams(1.85, 1.62)
        grid = TimeGrid(0.0, 10.0, 801)
        rabi_curve = TimeTrace(
            grid,
            tls.rabi_population_analytic(params, tls.Drive(1.304), grid.times()),
        )
        g2_curve = photostats.g2_curve(params, tls.Drive(1.304),
                                       TimeGrid(0.0, 6.0, 601))
        for curve in (rabi_curve, g2_curve):
            scale = 1e4 / np.max(curve.values)
            good = 0
            for seed in range(20):
                counts_grid, counts = synth.synth_counts(
                    curve, synth.NoiseSpec(seed=seed, scale=scale)
                )
                noisy = TimeTrace(counts_grid, counts.astype(float))
                fit = fitkit.fit_rabi(noisy, t1_fixed=1.85)
                if (
                    fit.converged
                    and abs(fit["omega_ghz"] - 1.304) <= 0.02 * 1.304
                    and abs(fit["t2_ns"] - 1.62) <= 0.10 * 1.62
                ):
                    good += 1
            assert good >= 19, f"only {good}/20 seeds recovered the parameters"
        x = np.linspace(0.0, 8.0, 200)
        for tau in (1.85, 0.78):
            fit = fitkit.fit_exp_decay(x, np.exp(-x / tau))
            assert abs(fit["tau_ns"] - tau) <= 0.01 * tau


def test_08_ramsey_visibility():
    with criterion("08 Ramsey visibility decay 0.78 ns (5%), V(0) > 0.95"):
        params = tls.TlsParams(t1=1.85, t2=0.78)
        pulse = tls.PulseEnvelope("square", 0.01, 1.0)
        taus = np.linspace(0.0, 2.4, 13)
        vis = ramsey.visibility_curve(params, pulse, taus)
        assert vis[0] > 0.95
        fit = fitkit.fit_exp_decay(taus, vis)
        assert fit.converged
        assert abs(fit["tau_ns"] - 0.78) <= 0.05 * 0.78


def test_09_pulsed_rabi_oscillations():
    with criterion("09 pulsed Rabi: >= 2 sin^2 oscillations, first max >= 0.93"):
        params = tls.TlsParams(1.85, 1.62)
        pulse = tls.PulseEnvelope("square", 0.2, 12.5)
        omega_top = 4.2 * math.pi / pulse.area_factor()
        p_max = omega_top**2 * 1.85 * 1.62 * 20.0
        powers = np.linspace(0.0, p_max, 80)
        y = tls.pulsed_rabi_scan(params, pulse, powers, tls.PowerCalib(20.0))
        maxima = [
            i for i in range(1, y.size - 1)
            if y[i] > y[i - 1] and y[i] > y[i + 1] and y[i] > 0.3
        ]
        assert len(maxima) >= 2
        assert y[maxima[0]] >= 0.93
        fit = fitkit.fit_sine_sqrtp(np.sqrt(powers), y)
        assert fit.converged


def test_10_engine_properties(tmp_path):
    with criterion("10 invariants on 1000 random generators; steady-state "
                   "residual < 1e-10; byte-identical CLI reruns"):
        rng = np.random.default_rng(2024)
        grid = TimeGrid(0.0, 3.0, 31)
        for case in range(1000):
            if case % 10 < 7:
                t1 = rng.uniform(0.3, 5.0)
                t2 = rng.uniform(0.05, 2.0 * t1)
                params = tls.TlsParams(t1, t2)
                drive = tls.Drive(rng.uniform(0.0, 2.5), rng.uniform(-2.5, 2.5))
                l = tls.tls_liouvillian(params, drive)
                rho0 = np.diag([1.0, 0.0]).astype(complex)
            else:
                params3 = lambda_system.LambdaParams(
                    gamma_c=rng.uniform(0.05, 1.0),
                    gamma_d=rng.uniform(0.05, 1.0),
                    gamma_ground=rng.uniform(0.01, 0.5),
                    gamma_phi_e=rng.uniform(0.0, 0.5),
                    gamma_phi_g=rng.uniform(0.0, 0.5),
                )
                drive3 = lambda_system.LambdaDrive(
                    rng.uniform(0.0, 1.5), rng.uniform(-1.5, 1.5),
                    rng.uniform(0.05, 1.5), rng.uniform(-1.5, 1.5),
                )
                l = lambda_system.lambda_liouvillian(params3, drive3)
                rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
            rho_ss = qdyn.steady_state(l)
            assert np.linalg.norm(l @ rho_ss.reshape(-1)) < 1e-10
            rhos = qdyn.evolve(l, rho0, grid)
            traces = np.trace(rhos, axis1=1, axis2=2)
            assert np.max(np.abs(traces - 1.0)) < 1e-9
            assert np.max(np.abs(rhos - np.conj(np.swapaxes(rhos, 1, 2)))) < 1e-10
            assert np.min(np.linalg.eigvalsh(rhos)) > -1e-9

        cfg = tmp_path / "det.cfg"
        cfg.write_text("experiment = g2\nn_points = 201\ntau_max_ns = 6\n")
        assert cli.run(config_path=cfg, outdir=tmp_path / "a") == 0
        assert cli.run(config_path=cfg, outdir=tmp_path / "b") == 0
        assert (tmp_path / "a" / "g2.csv").read_bytes() == (
            tmp_path / "b" / "g2.csv"
        ).read_bytes()


def test_11_irf_round_trip():
    with criterion("11 reconvolution fit of IRF-broadened g2 at 15, 30, 60 Psat "
                   "(Omega 2%, T2 10%)"):
        params = tls.TlsParams(1.85, 1.62)
        grid = TimeGrid(0.0, 10.0, 501)
        for k, psat in enumerate((15.0, 30.0, 60.0)):
            rabi = tls.power_to_rabi(tls.PowerCalib(20.0), params, psat * 20.0)
            g2 = photostats.g2_curve(params, tls.Drive(rabi), grid)
            for sigma in (0.05, 0.1, 0.15, 0.3):
                counts_grid, counts = synth.synth_counts(
                    g2, synth.NoiseSpec(seed=100 + k, scale=1e4, irf_sigma=sigma)
                )
                fit = fitkit.fit_rabi(TimeTrace(counts_grid, counts.astype(float)),
                                      t1_fixed=1.85, irf_sigma=sigma)
                assert fit.converged, (psat, sigma, fit.message)
                assert abs(fit["omega_ghz"] - rabi) <= 0.02 * rabi, (psat, sigma)
                assert abs(fit["t2_ns"] - 1.62) <= 0.10 * 1.62, (psat, sigma)
