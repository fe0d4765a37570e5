import math

import numpy as np
import pytest

from emitterlab import fitkit, qdyn, ramsey, tls
from emitterlab.errors import ModelError, NumericFailure
from emitterlab.qdyn import TimeGrid

PULSE = tls.PulseEnvelope("square", 0.01, 1.0)


class TestRamseyPopulation:
    def test_back_to_back_pulses_invert(self):
        params = tls.TlsParams(1.85, 1.62)
        assert ramsey.ramsey_population(params, PULSE, 0.0, 0.0) > 0.97

    def test_opposed_pulses_cancel(self):
        params = tls.TlsParams(1.85, 1.62)
        assert ramsey.ramsey_population(params, PULSE, 0.0, np.pi) < 0.03

    def test_phase_scan_is_sinusoidal(self):
        params = tls.TlsParams(1.85, 1.62)
        phases = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
        pops = np.array([
            ramsey.ramsey_population(params, PULSE, 0.4, p) for p in phases
        ])
        # project onto the fundamental: residual of mean + cos + sin is tiny
        design = np.column_stack([np.ones_like(phases), np.cos(phases),
                                  np.sin(phases)])
        coef, *_ = np.linalg.lstsq(design, pops, rcond=None)
        residual = pops - design @ coef
        assert np.max(np.abs(residual)) < 1e-4
        assert np.hypot(coef[1], coef[2]) > 0.1

    def test_two_pi_periodic(self):
        params = tls.TlsParams(1.85, 1.62)
        a = ramsey.ramsey_population(params, PULSE, 0.5, 1.234)
        b = ramsey.ramsey_population(params, PULSE, 0.5, 1.234 + 2 * np.pi)
        assert abs(a - b) < 1e-10

    def test_negative_delay_rejected(self):
        with pytest.raises(ModelError, match="delay_tau"):
            ramsey.ramsey_population(tls.TlsParams(1.85, 1.62), PULSE, -0.1, 0.0)


class TestVisibilityCurve:
    def test_values_in_unit_interval_and_nonincreasing(self):
        params = tls.TlsParams(1.85, 0.78)
        vis = ramsey.visibility_curve(params, PULSE, np.linspace(0.0, 2.0, 9))
        assert np.all(vis >= 0.0) and np.all(vis <= 1.0)
        assert np.all(np.diff(vis) <= 1e-10)

    def test_full_visibility_at_zero_delay(self):
        params = tls.TlsParams(1.85, 0.78)
        vis = ramsey.visibility_curve(params, PULSE, [0.0])
        assert vis[0] > 0.95

    def test_decay_constant_recovered(self):
        # coherence decay 1/0.78 ns^-1 during free evolution
        params = tls.TlsParams(1.85, 0.78)
        taus = np.linspace(0.0, 2.4, 13)
        fit = fitkit.fit_exp_decay(taus, ramsey.visibility_curve(params, PULSE, taus))
        assert fit.converged
        assert fit["tau_ns"] == pytest.approx(0.78, rel=0.05)

    def test_more_dephasing_less_visibility(self):
        taus = np.linspace(0.3, 1.5, 4)
        # doubling the pure dephasing rate at fixed t1
        base = tls.TlsParams(1.85, 1.0)
        gamma2 = 2 * base.gamma_phi + 0.5 / 1.85
        stronger = tls.TlsParams(1.85, 1.0 / gamma2)
        v1 = ramsey.visibility_curve(base, PULSE, taus)
        v2 = ramsey.visibility_curve(stronger, PULSE, taus)
        assert np.all(v2 < v1)

    def test_too_few_phases_rejected(self):
        with pytest.raises(ModelError, match="16"):
            ramsey.visibility_curve(tls.TlsParams(1.85, 0.78), PULSE, [0.5],
                                    n_phases=8)


def _chained_population(params, pulse, tau, phase, detuning):
    """Pulse - free evolution - phased pulse as three verified state evolutions."""
    omega = ramsey.PULSE_AREA / pulse.area_factor()
    l0 = qdyn.build_liouvillian(
        -tls.TWO_PI * detuning * tls.PROJ_EXCITED, tls.decay_jumps(params)
    )
    t_end = pulse.on_end()
    segments = tls.envelope_segments(pulse, t_end)

    def run_pulse(ph, rho):
        coupling = 0.5 * omega * (math.cos(ph) * tls.SIGMA_X + math.sin(ph) * tls.SIGMA_Y)
        return qdyn.evolve_driven(l0, coupling, segments, rho, TimeGrid(0.0, t_end, 5))[-1]

    rho = run_pulse(0.0, tls.RHO_GROUND)
    if tau > 0:
        rho = qdyn.evolve(l0, rho, TimeGrid(0.0, tau, 5))[-1]
    return run_pulse(phase, rho)[1, 1].real


class TestComposedMaps:
    """Composed pulse maps equal the chain of per-point state evolutions."""

    def test_visibility_curve_matches_chain(self):
        params = tls.TlsParams(1.85, 0.78)
        phases = np.arange(16) * (2.0 * np.pi / 16)
        # a uniform grid from 0, and unsorted non-uniform delays around 0
        for taus in (np.linspace(0.0, 2.4, 5), [0.3, 0.0, 2.4, 1.1]):
            pops = np.array([
                [_chained_population(params, PULSE, tau, ph, 0.2) for ph in phases]
                for tau in taus
            ])
            expected = (pops.max(axis=1) - pops.min(axis=1)) / (pops.max(axis=1) + pops.min(axis=1))
            vis = ramsey.visibility_curve(params, PULSE, taus, detuning=0.2)
            assert np.max(np.abs(vis - expected)) <= 1e-9

    def test_fringe_scan_matches_chain(self):
        params = tls.TlsParams(1.85, 0.78)
        pulse = tls.PulseEnvelope("gaussian", 0.05, 1.0)
        phases = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        expected = [_chained_population(params, pulse, 0.5, ph, -0.1) for ph in phases]
        table = ramsey.population_table(params, pulse, [0.5], phases, -0.1)
        assert table.shape == (1, 64)
        assert np.max(np.abs(table[0] - expected)) <= 1e-9
        single = ramsey.ramsey_population(params, pulse, 0.5, phases[5], -0.1)
        assert single == table[0, 5]

    @pytest.mark.parametrize("t2", [0.78, 1.0, 1.62])
    @pytest.mark.parametrize("fwhm", [0.03, 0.05, 0.07])
    def test_scan_member_equals_lone_run(self, t2, fwhm):
        # a phase of the 64-phase scan, run alone, gives the same bits: the
        # shaped pulse chains each member's steps alike in any batch
        params = tls.TlsParams(1.85, t2)
        pulse = tls.PulseEnvelope("gaussian", fwhm, 1.0)
        phases = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        for detuning in (-0.1, 0.0, 0.25):
            table = ramsey.population_table(params, pulse, [0.5], phases, detuning)
            for k in (5, 21, 42):
                single = ramsey.ramsey_population(params, pulse, 0.5, phases[k], detuning)
                assert single == table[0, k], (detuning, k)

    def test_negative_delay_in_scan_rejected(self):
        with pytest.raises(ModelError, match="delay_tau"):
            ramsey.visibility_curve(tls.TlsParams(1.85, 0.78), PULSE, [0.5, -0.1])

    def test_invalid_final_state_rejected(self, monkeypatch):
        # second-pulse maps that double the trace; the first-pulse map is kept
        propagator = qdyn.propagator

        def doubled(*args, **kwargs):
            maps = propagator(*args, **kwargs)
            maps[1:] *= 2.0
            return maps

        monkeypatch.setattr(qdyn, "propagator", doubled)
        with pytest.raises(ModelError,
                           match="Ramsey final state trace differs from 1 by 1.000e"):
            ramsey.population_table(tls.TlsParams(1.85, 0.78), PULSE, [0.5], [0.1])

    def test_invalid_first_pulse_state_rejected(self, monkeypatch):
        # a first-pulse map that doubles the trace; the second-pulse maps are kept
        propagator = qdyn.propagator

        def doubled(*args, **kwargs):
            maps = propagator(*args, **kwargs)
            maps[0] *= 2.0
            return maps

        monkeypatch.setattr(qdyn, "propagator", doubled)
        with pytest.raises(NumericFailure, match="Ramsey first-pulse state trace differs "
                                                 "from 1 by 1.000e"):
            ramsey.population_table(tls.TlsParams(1.85, 0.78), PULSE, [0.5], [0.1])

    def test_empty_scans_give_empty_tables(self):
        params = tls.TlsParams(1.85, 0.78)
        assert ramsey.population_table(params, PULSE, [0.5, 1.0], []).shape == (2, 0)
        assert ramsey.population_table(params, PULSE, [], [0.1]).shape == (0, 1)
