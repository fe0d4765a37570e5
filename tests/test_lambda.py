import tracemalloc

import numpy as np
import pytest

from emitterlab import lambda_system as lam
from emitterlab import qdyn, tls
from emitterlab.errors import ModelError

OMEGA_SAT = 1.0 / (2 * np.pi * np.sqrt(1.85 * 1.62))


class TestLambdaLiouvillian:
    def test_undriven_relaxes_to_lower_ground(self):
        l = lam.lambda_liouvillian(lam.LambdaParams(), lam.LambdaDrive(0.0))
        rho = qdyn.steady_state(l)
        assert np.max(np.abs(rho - np.diag([1.0, 0.0, 0.0]))) < 1e-10

    def test_hamiltonian_is_hermitian(self):
        # -i[H, rho] and the dissipator keep a Hermitian rho's d(rho)/dt
        # Hermitian only when H is Hermitian
        l = lam.lambda_liouvillian(
            lam.LambdaParams(gamma_phi_e=0.1, gamma_phi_g=0.05),
            lam.LambdaDrive(0.4, 0.2, 0.1, -0.3),
        )
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T)
        drho = (l @ rho.reshape(-1)).reshape(3, 3)
        assert np.max(np.abs(drho)) > 0.1
        assert np.max(np.abs(drho - drho.conj().T)) < 1e-12

    def test_dark_state_dip_at_two_photon_resonance(self):
        # with gamma_phi_g = 0 the fluorescence has a local minimum where
        # delta_D = delta_C
        params = lam.LambdaParams(gamma_phi_g=0.0)

        def fluor(dd):
            drive = lam.LambdaDrive(0.1, 0.05, 0.08, dd)
            rho = qdyn.steady_state(lam.lambda_liouvillian(params, drive))
            return rho[lam.E, lam.E].real

        at_resonance = fluor(0.05)
        assert fluor(0.05 - 0.04) > at_resonance
        assert fluor(0.05 + 0.04) > at_resonance
        # five linewidths away the dark state no longer suppresses emission
        assert fluor(0.05 + 0.5) > at_resonance

    def test_population_conserved_in_steady_states(self):
        rng = np.random.default_rng(4)
        params = lam.LambdaParams()
        for _ in range(20):
            drive = lam.LambdaDrive(
                rng.uniform(0.05, 1.0), rng.uniform(-1, 1),
                rng.uniform(0.01, 0.5), rng.uniform(-1, 1),
            )
            rho = qdyn.steady_state(lam.lambda_liouvillian(params, drive))
            assert abs(np.trace(rho).real - 1.0) < 1e-9

    def test_reduces_to_the_two_level_system(self):
        # gamma_d = 0 and Omega_D = 0 leave |g_C>, |e> a TLS with T1 = 1/gamma_c
        # and T2 = 1/(gamma_c/2 + gamma_phi_e); g_D relaxes into g_C and empties
        params = lam.LambdaParams(gamma_c=0.6, gamma_d=0.0, gamma_phi_e=0.2)
        emitter = tls.TlsParams(1.0 / 0.6, 1.0 / (0.3 + 0.2))
        for omega_c in (0.1, 0.4, 1.2):
            for delta_c in (-0.7, 0.0, 0.25):
                l = lam.lambda_liouvillian(params, lam.LambdaDrive(omega_c, delta_c))
                rho = qdyn.steady_state(l)
                expected = tls.steady_population(emitter, omega_c, delta_c)
                assert abs(rho[lam.E, lam.E].real - expected) < 1e-9
                assert abs(rho[lam.G_D, lam.G_D]) < 1e-9

    def test_invalid_rates_rejected(self):
        with pytest.raises(ModelError):
            lam.LambdaParams(gamma_c=-0.1)
        with pytest.raises(ModelError):
            lam.LambdaDrive(-0.5)


class TestProbeScan:
    def test_weak_pump_single_dip_at_pump_detuning(self):
        x = np.linspace(-0.5, 0.7, 241)
        y = lam.probe_scan(
            lam.LambdaParams(), omega_c=0.03, delta_c=0.1, omega_d=0.01, delta_d_range=x
        )
        interior = slice(40, 200)
        i_min = np.argmin(y[interior]) + 40
        assert x[i_min] == pytest.approx(0.1, abs=0.01)

    def test_strong_pump_doublet_at_half_rabi(self):
        x = np.linspace(-0.7, 0.7, 281)
        y = lam.probe_scan(
            lam.LambdaParams(), omega_c=0.5, delta_c=0.0, omega_d=0.02, delta_d_range=x
        )
        maxima = sorted(np.argsort(y)[-2:], key=lambda i: x[i])
        assert x[maxima[0]] == pytest.approx(-0.25, abs=0.02)
        assert x[maxima[1]] == pytest.approx(0.25, abs=0.02)
        assert lam.dip_splitting(x, y) == pytest.approx(0.5, rel=0.05)

    def test_symmetric_when_pump_resonant(self):
        y = lam.probe_scan(
            lam.LambdaParams(), omega_c=0.5, delta_c=0.0, omega_d=0.02,
            delta_d_range=np.linspace(-0.7, 0.7, 141),
        )
        assert np.max(np.abs(y - y[::-1])) < 1e-8

    def test_normalized_to_unit_maximum(self):
        y = lam.probe_scan(
            lam.LambdaParams(), 0.5, 0.0, 0.02, np.linspace(-0.7, 0.7, 81)
        )
        assert np.max(y) == pytest.approx(1.0)


class TestDipSplitting:
    @pytest.mark.parametrize("omega_c", [0.3, 0.5, 0.8])
    def test_splitting_tracks_pump_rabi(self, omega_c):
        x = np.linspace(-0.9, 0.9, 361)
        y = lam.probe_scan(lam.LambdaParams(), omega_c, 0.0, 0.02, x)
        assert lam.dip_splitting(x, y) == pytest.approx(omega_c, rel=0.05)

    def test_linear_in_sqrt_pump_power(self):
        from emitterlab import fitkit

        x = np.linspace(-0.9, 0.9, 361)
        powers, splittings = [], []
        for omega_c in (0.3, 0.5, 0.8):
            y = lam.probe_scan(lam.LambdaParams(), omega_c, 0.0, 0.02, x)
            powers.append(omega_c**2 * 1.85 * 1.62 * 20.0)  # s = Omega^2 T1 T2 convention
            splittings.append(lam.dip_splitting(x, y))
        fit = fitkit.fit_linear_sqrtp(powers, splittings)
        assert fit.extra["r_squared"] > 0.99
        assert abs(fit["intercept"]) < 0.02

    def test_symmetric_curve_maxima_equidistant(self):
        x = np.linspace(-0.9, 0.9, 361)
        y = lam.probe_scan(lam.LambdaParams(), 0.5, 0.0, 0.02, x)
        maxima = sorted(np.argsort(y)[-2:])
        mid = np.argmin(y[maxima[0] : maxima[1] + 1]) + maxima[0]
        left = x[mid] - x[maxima[0]]
        right = x[maxima[1]] - x[mid]
        assert abs(left - right) <= x[1] - x[0] + 1e-12

    def test_not_in_regime_rejected(self):
        x = np.linspace(-0.5, 0.5, 101)
        with pytest.raises(ModelError, match="Autler-Townes"):
            lam.dip_splitting(x, np.exp(-((x / 0.1) ** 2)))


class TestAtMap2d:
    def test_dark_valley_follows_diagonal(self):
        params = lam.LambdaParams()
        dcs = np.linspace(-1.0, 1.0, 41)
        dds = np.linspace(-1.0, 1.0, 41)
        fluor = lam.at_map2d(params, np.sqrt(20) * OMEGA_SAT,
                             np.sqrt(2.5) * OMEGA_SAT, dcs, dds)
        step = dds[1] - dds[0]
        for i, dc in enumerate(dcs):
            window = np.where(np.abs(dds - dc) <= 0.3)[0]
            j = window[np.argmin(fluor[i, window])]
            assert abs(dds[j] - dc) <= step * 1.001

    def test_map_conjugation_symmetry(self):
        params = lam.LambdaParams()
        dcs = np.linspace(-0.8, 0.8, 17)
        dds = np.linspace(-0.8, 0.8, 17)
        fluor = lam.at_map2d(params, 0.4, 0.15, dcs, dds)
        assert np.max(np.abs(fluor - fluor[::-1, ::-1])) < 1e-8

    def test_central_row_splitting_grows_with_pump(self):
        params = lam.LambdaParams()
        dds = np.linspace(-0.9, 0.9, 181)
        splittings = []
        for omega_c in (0.4, 0.8):
            row = lam.at_map2d(params, omega_c, 0.02, [0.0], dds)[0]
            splittings.append(lam.dip_splitting(dds, row / row.max()))
        assert splittings[1] > splittings[0]

    def test_relabeling_symmetry(self):
        # swapping pump/probe roles and branching rates mirrors the map
        # (needs gamma_ground = 0, which has no preferred ground state)
        params = lam.LambdaParams(gamma_c=0.2, gamma_d=0.34, gamma_ground=0.0)
        swapped = lam.LambdaParams(gamma_c=0.34, gamma_d=0.2, gamma_ground=0.0)
        dcs = np.linspace(-0.6, 0.6, 9)
        dds = np.linspace(-0.6, 0.6, 11)
        m1 = lam.at_map2d(params, 0.5, 0.21, dcs, dds)
        m2 = lam.at_map2d(swapped, 0.21, 0.5, dds, dcs)
        assert np.max(np.abs(m1 - m2.T)) < 1e-8


class TestStackedSweeps:
    """The stacked sweeps equal a per-point ``qdyn.steady_state`` loop."""

    def test_at_map2d_matches_per_point_loop(self):
        params = lam.LambdaParams(gamma_phi_g=0.01)
        dcs = np.linspace(-1.0, 1.0, 7)
        dds = np.linspace(-1.2, 1.2, 9)
        expected = np.array([
            [(params.gamma_c + params.gamma_d) * qdyn.steady_state(
                lam.lambda_liouvillian(params, lam.LambdaDrive(0.6, dc, 0.2, dd))
            )[2, 2].real for dd in dds]
            for dc in dcs
        ])
        fluor = lam.at_map2d(params, 0.6, 0.2, dcs, dds)
        assert np.max(np.abs(fluor - expected)) <= 1e-14

    def test_probe_scan_matches_per_point_loop(self):
        params = lam.LambdaParams()
        dds = np.linspace(-0.7, 0.7, 29)
        signal = np.array([
            qdyn.steady_state(
                lam.lambda_liouvillian(params, lam.LambdaDrive(0.5, 0.1, 0.02, dd))
            )[2, 2].real
            for dd in dds
        ])
        fluor = lam.probe_scan(params, 0.5, 0.1, 0.02, dds)
        assert np.max(np.abs(fluor - signal / signal.max())) <= 1e-14

    def test_excitation_lineshape_matches_per_point_loop(self):
        params = tls.TlsParams(1.85, 1.62)
        detunings = np.linspace(-0.6, 0.6, 41)
        pops = np.array([
            qdyn.steady_state(tls.tls_liouvillian(params, tls.Drive(0.1, d)))[1, 1].real
            for d in detunings
        ])
        lineshape = tls.excitation_lineshape(params, 0.1, detunings)
        assert np.max(np.abs(lineshape - pops)) <= 1e-14

    def test_blocked_map_matches_per_point_loop(self, monkeypatch):
        # blocks of 10 points split rows of 9, so block edges fall mid-row
        monkeypatch.setattr(lam, "_MAP_BLOCK", 10)
        params = lam.LambdaParams(gamma_phi_e=0.02)
        dcs = np.linspace(-1.0, 1.0, 7)
        dds = np.linspace(-1.2, 1.2, 9)
        expected = np.array([
            [(params.gamma_c + params.gamma_d) * qdyn.steady_state(
                lam.lambda_liouvillian(params, lam.LambdaDrive(0.6, dc, 0.2, dd))
            )[2, 2].real for dd in dds]
            for dc in dcs
        ])
        fluor = lam.at_map2d(params, 0.6, 0.2, dcs, dds)
        assert np.max(np.abs(fluor - expected)) <= 1e-14

    def test_map_memory_bounded(self):
        # One stack over the whole 150x150 grid peaked at 75.5 MB (tracemalloc).
        axis = np.linspace(-1.0, 1.0, 150)
        tracemalloc.start()
        try:
            lam.at_map2d(lam.LambdaParams(), 0.6, 0.2, axis, axis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 75.5e6 / 4
