import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from emitterlab import lambda_system as lam
from emitterlab import qdyn, tls
from emitterlab.errors import ModelError, NumericFailure
from emitterlab.qdyn import TimeGrid

T1 = 1.85
RHO_E = np.diag([0.0, 1.0]).astype(complex)
RHO_G = np.diag([1.0, 0.0]).astype(complex)


def drive_liouvillian(t1, t2, rabi_ghz):
    return tls.tls_liouvillian(tls.TlsParams(t1, t2), tls.Drive(rabi_ghz))


def eig_expm(m):
    """exp of each matrix of a stack through its eigendecomposition: a
    reference that shares no code with qdyn's Padé exponential."""
    w, v = np.linalg.eig(m)
    return (v * np.exp(w)[..., None, :]) @ np.linalg.inv(v)


class TestCheckDensityMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_non_finite_entries_rejected(self, bad, stacked):
        rho = np.full((2, 2), bad, dtype=complex)
        if stacked:
            rho = np.array([RHO_G, rho, RHO_E])
        with pytest.raises(ModelError, match="non-finite"):
            qdyn.check_density_matrix(rho)

    def test_stack_hermiticity_at_given_tolerance(self):
        stack = np.array([RHO_G, 0.5 * RHO_G + 0.5 * RHO_E, RHO_E])
        assert qdyn.check_density_matrix(stack).shape == (3, 2, 2)
        stack[1, 0, 1] = 1e-11
        with pytest.raises(NumericFailure, match="Hermitian"):
            qdyn.check_density_matrix(stack, "trajectory", 1e-12, NumericFailure)
        qdyn.check_density_matrix(stack, "trajectory", 1e-10, NumericFailure)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_negative_eigenvalue_rejected(self, d, stacked):
        # finite, unit trace and Hermitian, but one eigenvalue is -1e-6
        populations = np.full(d, 1.0 / (d - 1))
        populations[0] = -1e-6
        populations[1:] += 1e-6 / (d - 1)
        rho = _rotated(populations, np.random.default_rng(d))
        if stacked:
            mixed = np.eye(d, dtype=complex) / d
            rho = np.array([mixed, rho, mixed])
        with pytest.raises(ModelError, match=r"has an eigenvalue -1\.000e-06 below -1e-09"):
            qdyn.check_density_matrix(rho)

    @pytest.mark.parametrize("seed", range(5))
    def test_closed_form_two_level_eigenvalue_matches_eigvalsh(self, seed):
        # random PSD and near-PSD 2x2 states, the smaller population spread
        # over [-1e-6, 0.5]; the upper triangle is off by up to 1e-11, which
        # both read past (eigvalsh reads the lower triangle)
        rng = np.random.default_rng(seed)
        low = np.concatenate([rng.uniform(-1e-6, 1e-6, 500), rng.uniform(0.0, 0.5, 500)])
        rhos = np.array([_rotated(np.array([p, 1.0 - p]), rng) for p in low])
        rhos[:, 0, 1] += 1e-11 * rng.standard_normal((low.size, 2)) @ [1.0, 1.0j]
        closed = qdyn._min_eigenvalue(rhos)
        assert np.max(np.abs(closed - np.linalg.eigvalsh(rhos)[:, 0])) <= 1e-15


    @pytest.mark.parametrize("stacked", [False, True])
    def test_three_level_positivity_at_the_tolerance(self, stacked):
        # the Cholesky test of rho + 1e-9 I: an eigenvalue of -1e-8 fails it
        # and is reported by eigvalsh, one of -1e-10 passes it
        def state(low):
            rho = _rotated(np.array([low, 0.5, 0.5 - low]), np.random.default_rng(3))
            return np.array([np.eye(3) / 3, rho]) if stacked else rho

        with pytest.raises(ModelError, match=r"has an eigenvalue -1\.000e-08 below -1e-09"):
            qdyn.check_density_matrix(state(-1e-8))
        qdyn.check_density_matrix(state(-1e-10))


def _rotated(populations: np.ndarray, rng) -> np.ndarray:
    """Hermitian U diag(populations) U+ for a random unitary U."""
    d = populations.size
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rho = (u * populations) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


def _sample_generators():
    """TLS and lambda generators over drives, detunings and dephasings."""
    rng = np.random.default_rng(11)
    tls_ls = [tls.tls_liouvillian(tls.TlsParams(1.85, t2), tls.Drive(r, dt))
              for t2, r, dt in rng.uniform([0.3, 0.0, -2.0], [3.7, 5.0, 2.0], (20, 3))]
    lambda_ls = [lam.lambda_liouvillian(lam.LambdaParams(0.27, g, 0.025, pe, pg),
                                        lam.LambdaDrive(*drive))
                 for g, pe, pg, *drive in rng.uniform([0.0, 0.0, 0.0, 0.0, -1, 0.0, -1],
                                                      [0.5, 0.1, 0.05, 2.0, 1, 0.5, 1],
                                                      (20, 7))]
    return [np.array(tls_ls), np.array(lambda_ls)]


class TestBloch:
    @pytest.mark.parametrize("d", [2, 3])
    def test_basis_is_unitary_and_hermitian(self, d):
        t = qdyn._bloch_basis(d)
        assert np.max(np.abs(t.conj().T @ t - np.eye(d * d))) <= 1e-15
        assert np.array_equal(t[:, 0], np.eye(d).reshape(-1) / math.sqrt(d))
        g = t.T.reshape(d * d, d, d)
        assert np.array_equal(g, np.conj(np.swapaxes(g, 1, 2)))
        assert qdyn._bloch_basis(d) is t

    def test_generators_are_real_with_a_zero_first_row(self):
        for stack in _sample_generators():
            t = qdyn._bloch_basis(math.isqrt(stack.shape[-1]))
            exact = t.conj().T @ stack @ t
            scale = np.linalg.norm(stack, axis=(1, 2))[:, None, None]
            assert np.all(np.abs(exact.imag) <= 1e-15 * scale)
            assert np.all(np.abs(exact[:, 0, :]) <= 1e-15 * scale[:, 0])
            assert np.array_equal(qdyn.bloch(stack), exact.real)

    def test_steady_states_match_the_complex_null_vector(self):
        for stack in _sample_generators():
            d = math.isqrt(stack.shape[-1])
            null = np.linalg.svd(stack)[2][:, -1, :].conj().reshape(-1, d, d)
            null /= np.trace(null, axis1=1, axis2=2)[:, None, None]
            assert np.max(np.abs(qdyn.steady_states(qdyn.bloch(stack)) - null)) <= 1e-12

    def test_complex_generators_rejected(self):
        l = drive_liouvillian(1.85, 1.62, 0.5)
        with pytest.raises(ModelError, match="real Bloch-basis generators"):
            qdyn.steady_states(l[None])


class TestBuildLiouvillian:
    def test_zero_generator_maps_to_zero(self):
        l = qdyn.build_liouvillian(np.zeros((2, 2)), [])
        rho = np.array([[0.3, 0.1j], [-0.1j, 0.7]])
        assert np.max(np.abs(l @ rho.reshape(-1))) == 0.0

    def test_coherence_decay_rate_is_half_gamma(self, decay_liouvillian):
        # d(rho_ge)/dt = -rho_ge / (2 T1) for pure radiative decay
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        rhos = qdyn.evolve(decay_liouvillian, rho, TimeGrid(0.0, 2.0, 3))
        ratio = abs(rhos[-1][0, 1]) / 0.5
        assert ratio == pytest.approx(np.exp(-2.0 / (2.0 * T1)), abs=1e-9)
        assert 1.0 / (2.0 * T1) == pytest.approx(0.2703, abs=1e-4)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ModelError, match="shape"):
            qdyn.build_liouvillian(np.zeros((2, 2)), [np.zeros((3, 3))])

    def test_non_hermitian_hamiltonian_rejected(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ModelError, match="Hermitian"):
            qdyn.build_liouvillian(h, [])


class TestEvolve:
    def test_zero_generator_constant_trajectory(self):
        l = qdyn.build_liouvillian(np.zeros((2, 2)), [])
        rho0 = np.array([[0.25, 0.2], [0.2, 0.75]], dtype=complex)
        rhos = qdyn.evolve(l, rho0, TimeGrid(0.0, 5.0, 11))
        assert np.max(np.abs(rhos - rho0)) < 1e-14

    def test_undriven_decay_is_exponential(self, decay_liouvillian):
        rhos = qdyn.evolve(decay_liouvillian, RHO_E, TimeGrid(0.0, T1, 2))
        # rho_ee(T1) = 1/e = 0.3679
        assert rhos[-1][1, 1].real == pytest.approx(np.exp(-1.0), abs=1e-6)
        grid = TimeGrid(0.0, 10.0, 101)
        rhos = qdyn.evolve(decay_liouvillian, RHO_E, grid)
        expected = np.exp(-grid.times() / T1)
        assert np.max(np.abs(rhos[:, 1, 1].real - expected)) < 1e-8

    def test_long_time_matches_steady_state(self):
        l = drive_liouvillian(1.85, 1.62, 0.906)
        rho_ss = qdyn.steady_state(l)
        rhos = qdyn.evolve(l, RHO_G, TimeGrid(0.0, 60.0, 61))
        assert np.max(np.abs(rhos[-1] - rho_ss)) < 1e-6

    def test_invalid_initial_state_rejected(self, decay_liouvillian):
        with pytest.raises(ModelError, match="trace"):
            qdyn.evolve(decay_liouvillian, 2.0 * RHO_E, TimeGrid(0.0, 1.0, 2))

    def test_driven_rho0_dimension_mismatch_rejected(self):
        l0, segments, _, omega = _driven_case("square")
        with pytest.raises(ModelError, match="dim"):
            qdyn.evolve_driven(l0, 0.5 * omega * tls.SIGMA_X, segments, np.eye(3) / 3,
                               GRID_20)

    def test_trajectory_invariants(self):
        # trace, Hermiticity and positivity at every sample
        l = drive_liouvillian(1.85, 1.62, 1.854)
        rhos = qdyn.evolve(l, RHO_G, TimeGrid(0.0, 12.0, 241))
        traces = np.trace(rhos, axis1=1, axis2=2)
        assert np.max(np.abs(traces - 1.0)) < 1e-9
        assert np.max(np.abs(rhos - np.conj(np.swapaxes(rhos, 1, 2)))) < 1e-10
        assert np.min(np.linalg.eigvalsh(rhos)) > -1e-9

    def test_rk4_convergence_order(self):
        # shaped pieces take fixed RK4 steps: one pass of the kernel, no step
        # halving, has a global error that scales as dt^4.  A sigma_z drive
        # commutes with pure decay, so under the ramp a(t) = t on [0, 1] the
        # exact map is exp(L0 + C/2).
        jump = np.sqrt(1.0 / 0.5) * tls.SIGMA_MINUS
        l0 = qdyn.build_liouvillian(np.zeros((2, 2)), [jump])
        c = qdyn.hamiltonian_superop(3.0 * np.diag([1.0, -1.0]))
        grid = TimeGrid(0.0, 1.0, 2)
        segments = [(0.0, 1.0, lambda t: t)]
        v0 = np.full((4, 1), 0.5, dtype=complex)
        exact = eig_expm(l0 + 0.5 * c) @ v0[:, 0]
        # the kernel runs in the real coordinates of the populations and coherences
        m0, m1 = qdyn._real_form(np.array([l0, c]))[:, None]
        x0 = (qdyn._coordinates(2)[1] @ v0).real
        dts = np.array([0.1, 0.05, 0.025, 0.0125, 0.00625])
        errs = []
        for dt in dts:
            runs = qdyn._schedule(grid, segments, dt)
            traj = qdyn._propagate(m0, m1, runs, x0, grid.n_points, 1)
            errs.append(np.max(np.abs(qdyn._rebuild(traj[-1, 0], 1)[:, 0] - exact)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 3.5 < slope < 4.5

    def test_matches_per_sample_loop(self):
        # a constant run is one exact map applied by doubling; the reference
        # applies the eigendecomposition's exponential sample by sample
        l = drive_liouvillian(1.85, 1.62, 1.304)
        grid = TimeGrid(0.0, 12.0, 1201)
        v = RHO_G.reshape(-1)
        step = eig_expm(grid.dt * l)
        expected = [v]
        for _ in range(grid.n_points - 1):
            v = step @ v
            expected.append(v)
        rhos = qdyn.evolve(l, RHO_G, grid)
        assert np.max(np.abs(rhos.reshape(grid.n_points, -1) - expected)) < 1e-12


def _reference_evolve_driven(m0, coupling, segments, rho0, grid, dt_int):
    """Piece by piece: the eigendecomposition's exponential over a constant
    piece, a per-step RK4 loop over a shaped one, with step halving when a
    segment is shaped."""
    c = qdyn.hamiltonian_superop(coupling)
    samples = np.round(grid.times(), 15)
    pts = set(samples.tolist())
    for t0, t1, _ in segments:
        for t in (t0, t1):
            if grid.t_start < t < grid.t_end:
                pts.add(round(float(t), 15))
    pts = sorted(pts)

    def amplitude(ta, tb):
        mid = 0.5 * (ta + tb)
        for t0, t1, a in segments:
            if t0 <= mid < t1:
                return a
        return 0.0

    def run(scale):
        v = rho0.reshape(-1).astype(complex)
        out = [v]
        for ta, tb in zip(pts[:-1], pts[1:]):
            amp = amplitude(ta, tb)
            if callable(amp):
                n_steps = max(1, math.ceil((tb - ta) / dt_int)) * scale
                h = (tb - ta) / n_steps
                t = ta
                for _ in range(n_steps):
                    m_a = m0 + amp(t) * c
                    m_b = m0 + amp(t + 0.5 * h) * c
                    m_c = m0 + amp(t + h) * c
                    k1 = m_a @ v
                    k2 = m_b @ (v + 0.5 * h * k1)
                    k3 = m_b @ (v + 0.5 * h * k2)
                    k4 = m_c @ (v + h * k3)
                    v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    t += h
            else:
                v = eig_expm((tb - ta) * (m0 + amp * c)) @ v
            if len(out) < grid.n_points and abs(tb - samples[len(out)]) <= 1e-12:
                out.append(v)
        assert len(out) == grid.n_points
        return np.array(out)

    prev = run(1)
    if not any(callable(a) for _, _, a in segments):
        return prev.reshape(grid.n_points, *rho0.shape)
    for refinement in range(1, qdyn._MAX_STEP_REFINEMENTS + 1):
        cur = run(2**refinement)
        if np.max(np.abs(cur - prev)) < qdyn.STEP_HALVING_TOL:
            return cur.reshape(grid.n_points, *rho0.shape)
        prev = cur
    raise AssertionError("reference did not converge")


# Square, cosine-ramped and gaussian pulse trains; no sample of GRID_20 hits
# a segment edge (0, 1, 4, 5, 15, 16, 19 ns).
PULSES = {
    "square": tls.PulseEnvelope("square", 5.0, 15.0),
    "ramped": tls.PulseEnvelope("square", 5.0, 15.0, rise_time=1.0),
    "gaussian": tls.PulseEnvelope("gaussian", 2.0, 15.0),
}
GRID_20 = TimeGrid(0.0, 20.0, 98)


def _qdyn_step(l0, coupling):
    """The base RK4 step qdyn takes under a unit-envelope drive: the
    undriven and the fully driven generators of the batch are candidates."""
    driven = l0 + qdyn.hamiltonian_superop(coupling)
    return qdyn._rk4_step(np.linalg.eigvals(np.stack([l0, driven])))


def _driven_case(shape):
    params = tls.TlsParams(1.85, 1.62)
    drive = tls.Drive(rabi_ghz=0.906, detuning_ghz=0.3)
    l0 = tls.tls_liouvillian(params, tls.Drive(0.0, drive.detuning_ghz))
    omega = tls.TWO_PI * drive.rabi_ghz
    segments = tls.envelope_segments(PULSES[shape], GRID_20.t_end)
    return l0, segments, _qdyn_step(l0, 0.5 * omega * tls.SIGMA_X), omega


class TestDrivenKernel:
    @pytest.mark.parametrize("shape", sorted(PULSES))
    def test_matches_per_step_loop(self, shape):
        l0, segments, dt_int, omega = _driven_case(shape)
        coupling = 0.5 * omega * tls.SIGMA_X
        expected = _reference_evolve_driven(l0, coupling, segments, RHO_G, GRID_20, dt_int)
        rhos = qdyn.evolve_driven(l0, coupling, segments, RHO_G, GRID_20)
        assert np.max(np.abs(rhos - expected)) < 1e-12

    def test_pulse_refined_twice_matches_per_step_loop(self):
        # the 4.2 pi gaussian pulse of the default pulsed_rabi scan: the first
        # halving still moves its samples by more than STEP_HALVING_TOL, so
        # both the engine and the reference take a second one
        params = tls.TlsParams(1.85, 1.62)
        pulse = tls.PulseEnvelope("gaussian", 0.2, 12.5)
        p_top = (4.2 * np.pi / pulse.area_factor())**2 * 1.85 * 1.62 * 20.0
        coupling = tls.drive_coupling(tls.TWO_PI * tls.power_to_rabi(tls.PowerCalib(20.0),
                                                                      params, p_top))
        l0 = qdyn.build_liouvillian(np.zeros((2, 2)), tls.decay_jumps(params))
        segments = tls.envelope_segments(pulse, pulse.on_end())
        grid = TimeGrid(0.0, pulse.on_end(), 9)
        expected = _reference_evolve_driven(l0, coupling, segments, RHO_G, grid,
                                            _qdyn_step(l0, coupling))
        rhos = qdyn.evolve_driven(l0, coupling, segments, RHO_G, grid)
        assert np.max(np.abs(rhos - expected)) < 1e-12

    @pytest.mark.parametrize("shape", sorted(PULSES))
    def test_propagator_matches_evolve_driven(self, shape):
        l0, segments, _, omega = _driven_case(shape)
        coupling = 0.5 * omega * tls.SIGMA_Y
        rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        grid = TimeGrid(0.0, GRID_20.t_end, 2)
        last = qdyn.evolve_driven(l0, coupling, segments, rho0, grid)[-1]
        m = qdyn.propagator(l0, coupling, segments, grid.t_end)
        assert m.shape == (4, 4)
        assert np.max(np.abs(m @ rho0.reshape(-1) - last.reshape(-1))) < 1e-12

    def test_gaussian_trace_memory_bounded(self):
        # Shaped runs build their step maps in fixed-size blocks, counted
        # over batch members too.  The per-step loop engine peaked at
        # 3.37 MB (tracemalloc) on the long trace.
        params = tls.TlsParams(1.85, 1.62)
        pulse = tls.PulseEnvelope("gaussian", 5.0, 15.0)
        tls.rabi_trace_numeric(params, tls.Drive(0.906), pulse, TimeGrid(0.0, 15.0, 11))
        short = tls.PulseEnvelope("gaussian", 0.2, 12.5)
        # the default scan: 70 powers, pulse areas up to 4.2 pi
        powers = np.linspace(0.0, (4.2 * np.pi / short.area_factor())**2 * 1.85 * 1.62 * 20, 70)
        tracemalloc.start()
        try:
            tls.rabi_trace_numeric(
                params, tls.Drive(0.906), pulse, TimeGrid(0.0, 150.0, 15001)
            )
            trace_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            tls.pulsed_rabi_scan(params, short, powers, tls.PowerCalib(20.0))
            scan_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace_peak <= 2 * 3.37e6
        assert scan_peak <= 2 * 3.37e6

    @pytest.mark.parametrize("shape", sorted(PULSES))
    def test_batched_members_match_reference(self, shape):
        # members differ in detuning and in drive strength; the batch runs
        # at the finest member's step and refines on the worst member
        params = tls.TlsParams(1.85, 1.62)
        drives = [tls.Drive(0.906, 0.3), tls.Drive(0.5, -0.6), tls.Drive(1.2, 0.0)]
        l0 = np.array([tls.tls_liouvillian(params, tls.Drive(0.0, d.detuning_ghz))
                       for d in drives])
        couplings = np.array([0.5 * tls.TWO_PI * d.rabi_ghz * tls.SIGMA_X for d in drives])
        dt_int = _qdyn_step(l0, couplings)
        segments = tls.envelope_segments(PULSES[shape], GRID_20.t_end)
        rhos = qdyn.evolve_driven(l0, couplings, segments, RHO_G, GRID_20)
        assert rhos.shape == (3, GRID_20.n_points, 2, 2)
        for m0, coupling, member in zip(l0, couplings, rhos):
            expected = _reference_evolve_driven(m0, coupling, segments, RHO_G, GRID_20,
                                                dt_int)
            assert np.max(np.abs(member - expected)) < qdyn.STEP_HALVING_TOL

    def test_misaligned_samples_rejected(self):
        from emitterlab.errors import NumericFailure

        l0, segments, _, omega = _driven_case("square")
        grid = TimeGrid(0.0, 1e-14, 3)  # samples collapse when rounded
        with pytest.raises(NumericFailure, match="misalignment"):
            qdyn.evolve_driven(l0, 0.5 * omega * tls.SIGMA_X, segments, RHO_G, grid)


def _eigenvalue_null_count(stack):
    """The uniqueness count steady_states made before the rank test: the
    eigenvalue moduli below 1e-10 x max(largest modulus, 1), per generator."""
    eigs = np.linalg.eigvals(stack)
    scale = np.maximum(np.max(np.abs(eigs), axis=-1), 1.0)
    return np.sum(np.abs(eigs) < 1e-10 * scale[:, None], axis=-1)


def _weak_damping_ladder():
    """TLS and lambda generators, 8160 each: every rate scaled by 10^-k for
    k = 0, 0.05, ..., 16.95, over several drives and detunings."""
    scales = 10.0 ** -np.arange(0.0, 17.0, 0.05)[:, None, None]
    tls_stack, lambda_stack = [], []
    for rabi, detuning in itertools.product((0.0, 0.3, 1.0, 5.0), (0.0, 0.5, 2.0)):
        for t2_over_t1 in (2.0, 1.0):
            params = tls.TlsParams(1.85, t2_over_t1 * 1.85)
            damping = tls.tls_liouvillian(params, tls.Drive(0.0))
            driven = tls.tls_liouvillian(params, tls.Drive(rabi, detuning))
            tls_stack.append(driven - damping + scales * damping)
        for phi_g in (0.0, 0.01):
            params = lam.LambdaParams(0.27, 0.27, 1.0 / 40.0, 0.0, phi_g)
            damping = lam.lambda_liouvillian(params, lam.LambdaDrive(0.0))
            driven = lam.lambda_liouvillian(params, lam.LambdaDrive(rabi, 0.0, 0.1, detuning))
            lambda_stack.append(driven - damping + scales * damping)
    return np.concatenate(tls_stack), np.concatenate(lambda_stack)


def _singular_value_null_count(stack: np.ndarray) -> np.ndarray:
    """Singular values below STATIONARY_NULL_TOL x max(largest, 1), per generator."""
    sv = np.linalg.svd(stack, compute_uv=False)
    return np.sum(sv < qdyn.STATIONARY_NULL_TOL * np.maximum(sv[:, :1], 1.0), axis=1)


def _solve_off_by(monkeypatch, eps: float) -> None:
    """From now on np.linalg.solve returns column 0 off by ``eps`` below row 0,
    so a steady state keeps its trace but not its Bloch coordinates."""
    solve = np.linalg.solve

    def perturbed(a, b):
        x = solve(a, b)
        x[..., 1:, 0] += eps
        return x

    monkeypatch.setattr(np.linalg, "solve", perturbed)


def _count_eigvals_calls(monkeypatch) -> list:
    """Shapes of the arrays passed to np.linalg.eigvals from now on."""
    shapes, eigvals = [], np.linalg.eigvals

    def counted(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return shapes


class TestSteadyState:
    def test_undriven_decays_to_ground(self, decay_liouvillian):
        rho = qdyn.steady_state(decay_liouvillian)
        assert np.max(np.abs(rho - RHO_G)) < 1e-12

    def test_saturation_population(self):
        # s = Omega^2 T1 T2 = 1 gives rho_ee = s / (2 (1 + s)) = 0.25
        omega = 1.0 / np.sqrt(1.85 * 1.62) / (2 * np.pi)
        l = drive_liouvillian(1.85, 1.62, omega)
        rho = qdyn.steady_state(l)
        assert rho[1, 1].real == pytest.approx(0.25, abs=1e-12)
        # cross-check against long-time integration
        rhos = qdyn.evolve(l, RHO_G, TimeGrid(0.0, 80.0, 41))
        assert abs(rhos[-1][1, 1].real - 0.25) < 1e-6

    def test_strong_drive_saturates_to_half(self):
        l = drive_liouvillian(1.85, 1.62, 50.0)
        assert qdyn.steady_state(l)[1, 1].real == pytest.approx(0.5, abs=1e-3)

    def test_residual_below_tolerance(self):
        l = drive_liouvillian(1.85, 1.62, 0.5)
        rho = qdyn.steady_state(l)
        assert np.linalg.norm(l @ rho.reshape(-1)) < 1e-10

    def test_degenerate_subspace_rejected(self):
        # no jumps: every diagonal state is stationary
        l = qdyn.build_liouvillian(np.diag([0.0, 1.0]), [])
        with pytest.raises(ModelError, match="stationary"):
            qdyn.steady_state(l)

    def test_generator_without_stationary_state_rejected(self):
        # a trace-losing generator: every state decays, nothing is stationary
        l = drive_liouvillian(1.85, 1.62, 0.5) - 0.1 * np.eye(4)
        with pytest.raises(ModelError, match="stationary subspace has dimension 0;"):
            qdyn.steady_states(qdyn.bloch(np.array([drive_liouvillian(1.85, 1.62, 0.5), l])))

    def test_stack_with_degenerate_point_rejected(self):
        good = drive_liouvillian(1.85, 1.62, 0.5)
        degenerate = qdyn.build_liouvillian(np.diag([0.0, 1.0]), [])
        with pytest.raises(ModelError) as single:
            qdyn.steady_state(degenerate)
        stack = np.array([good, degenerate, good])
        with pytest.raises(ModelError) as stacked:
            qdyn.steady_states(qdyn.bloch(stack))
        assert str(stacked.value) == str(single.value)

    def test_stack_equals_single_solves(self):
        ls = [drive_liouvillian(1.85, 1.62, r) for r in (0.0, 0.3, 0.9)]
        rhos = qdyn.steady_states(qdyn.bloch(np.array(ls)))
        for l, rho in zip(ls, rhos):
            assert np.array_equal(rho, qdyn.steady_state(l))

    def test_failed_solve_on_unique_points_raises(self, monkeypatch):
        # the SVD calls both points unique, but no solve left a state: the
        # residual is nan, which fails, and nothing is integrated instead
        ls = [drive_liouvillian(1.85, 1.62, r) for r in (0.0, 0.5)]

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        eigvals_shapes = _count_eigvals_calls(monkeypatch)
        with pytest.raises(NumericFailure, match=r"^steady-state residual nan above 1e-10$"):
            qdyn.steady_states(qdyn.bloch(np.array(ls)))
        assert eigvals_shapes == []

    def test_huge_drive_residual_raises(self, monkeypatch):
        # at Omega/2pi = 1e7 GHz the real solve meets the tolerance, but a
        # state off by 1e-16 per coordinate, rounding size, misses it by far;
        # the error names the residual, not a propagation failure
        l = drive_liouvillian(1.85, 1.62, 1e7)
        assert qdyn.steady_state(l)[1, 1].real == pytest.approx(0.5, abs=1e-12)
        _solve_off_by(monkeypatch, 1e-16)
        assert qdyn.steady_state(drive_liouvillian(1.85, 1.62, 1.0)).shape == (2, 2)
        with pytest.raises(NumericFailure, match=r"^steady-state residual \S+ above 1e-10$"):
            qdyn.steady_state(l)

    def test_steady_states_never_calls_eigvals(self, monkeypatch):
        eigvals_shapes = _count_eigvals_calls(monkeypatch)
        ls = [drive_liouvillian(1.85, 1.62, r) for r in (0.0, 0.3, 0.9)]
        qdyn.steady_states(qdyn.bloch(np.array(ls)))
        lam.at_map2d(lam.LambdaParams(), 2.0, 0.1, [-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
        assert eigvals_shapes == []

    def test_rank_test_at_least_as_strict_as_eigenvalue_count(self):
        message = re.compile(
            r"stationary subspace has dimension (\d+); steady state is not unique\. "
            r"Integrate for a long time from a chosen initial state instead\."
        )
        for stack in _weak_damping_ladder():
            reference = _eigenvalue_null_count(stack)
            rejected = np.flatnonzero(reference != 1)
            assert rejected.size > 0
            for i in rejected:
                with pytest.raises(ModelError) as err:
                    qdyn.steady_states(qdyn.bloch(stack[i:i + 1]))
                dimension = message.fullmatch(str(err.value))
                assert dimension is not None, str(err.value)
                # the doubled cut may count one more near-null direction
                # than the eigenvalues do (108 of the 8182 rejections)
                assert int(dimension.group(1)) >= reference[i]

    def test_uniqueness_decisions_match_singular_value_count(self):
        # the certificate from the solve's inverse accepts exactly the points
        # that one singular value below the cut accepts, and a rejected point
        # reports the same dimension
        for stack in _weak_damping_ladder():
            reference = _singular_value_null_count(stack)
            accepted = np.flatnonzero(reference == 1)
            assert accepted.size > 0
            assert qdyn.steady_states(qdyn.bloch(stack[accepted])).shape[0] == accepted.size
            for i in np.flatnonzero(reference != 1):
                with pytest.raises(ModelError) as err:
                    qdyn.steady_states(qdyn.bloch(stack[i:i + 1]))
                assert str(err.value).startswith(
                    f"stationary subspace has dimension {reference[i]}; ")

    def test_fixed_point_stays_fixed(self):
        l = drive_liouvillian(1.85, 1.62, 0.906)
        rho_ss = qdyn.steady_state(l)
        rhos = qdyn.evolve(l, rho_ss, TimeGrid(0.0, 10.0 * T1, 38))
        assert np.max(np.abs(rhos - rho_ss)) < 1e-8


class TestRegressionCorrelator:
    def test_identity_operators_give_unity(self):
        l = drive_liouvillian(1.85, 1.62, 0.906)
        rho_ss = qdyn.steady_state(l)
        eye = np.eye(2, dtype=complex)
        corr = qdyn.regression_correlator(l, rho_ss, eye, eye, eye,
                                          TimeGrid(0.0, 10.0, 51))
        assert np.max(np.abs(corr - 1.0)) < 1e-9

    def test_projected_ground_cannot_emit_at_zero_delay(self):
        l = drive_liouvillian(1.85, 1.62, 0.906)
        rho_ss = qdyn.steady_state(l)
        corr = qdyn.regression_correlator(
            l, rho_ss, tls.PROJ_EXCITED, tls.SIGMA_MINUS, tls.SIGMA_PLUS,
            TimeGrid(0.0, 1.0, 3),
        )
        assert abs(corr[0]) < 1e-14

    def test_matches_g2_curve(self):
        from emitterlab import photostats

        params = tls.TlsParams(1.85, 1.62)
        drive = tls.Drive(0.906)
        grid = TimeGrid(0.0, 8.0, 201)
        l = tls.tls_liouvillian(params, drive)
        rho_ss = qdyn.steady_state(l)
        corr = qdyn.regression_correlator(
            l, rho_ss, tls.PROJ_EXCITED, tls.SIGMA_MINUS, tls.SIGMA_PLUS, grid
        )
        normalized = corr.real / rho_ss[1, 1].real ** 2
        g2 = photostats.g2_curve(params, drive, grid)
        positive_half = g2.values[g2.grid.n_points // 2 :]
        assert np.max(np.abs(normalized - positive_half)) < 1e-9

    def test_non_stationary_state_rejected(self):
        l = drive_liouvillian(1.85, 1.62, 0.906)
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ModelError, match="stationary"):
            qdyn.regression_correlator(l, RHO_G, eye, eye, eye,
                                       TimeGrid(0.0, 1.0, 3))


class TestNumericGuards:
    def test_step_underflow_rejected(self, monkeypatch):
        # only shaped pulses take RK4 steps
        l0, segments, _, omega = _driven_case("gaussian")
        for step in (0.0, math.nan):
            monkeypatch.setattr(qdyn, "_rk4_step", lambda eigs: step)
            with pytest.raises(NumericFailure, match=rf"^internal step underflow: dt_int={step}$"):
                qdyn.evolve_driven(l0, 0.5 * omega * tls.SIGMA_X, segments, RHO_G, GRID_20)

    @pytest.mark.parametrize("h", [1e300, math.inf, math.nan, 1e9])
    def test_overlong_piece_map_rejected(self, h, decay_liouvillian):
        # |h L|_1 beyond 2**25 theta_13 (1.8e8): the squarings would amplify
        # rounding past the step-halving tolerance
        with pytest.raises(NumericFailure, match=r"^piece map exp\(h L\) with \|h L\|_1 = "
                                                 r"\S+ \(h = \S+ ns\) needs more than 25 "
                                                 r"squarings$"):
            qdyn._expm(decay_liouvillian[None], h)

    def test_constant_drive_takes_no_step(self, monkeypatch):
        # no eigenvalues for a step, no RK4 step and one propagation pass
        def no_step(eigs):
            raise AssertionError("constant drive took an RK4 step")

        passes, propagate = [], qdyn._propagate

        def counted(*args):
            passes.append(args[-1])
            return propagate(*args)

        l0, segments, _, omega = _driven_case("square")
        coupling = 0.5 * omega * tls.SIGMA_X
        l = l0 + qdyn.hamiltonian_superop(coupling)
        rho_ss = qdyn.steady_state(l)
        monkeypatch.setattr(qdyn, "_rk4_step", no_step)
        monkeypatch.setattr(qdyn, "_propagate", counted)
        eigvals_shapes = _count_eigvals_calls(monkeypatch)
        qdyn.evolve(l0, RHO_G, GRID_20)
        qdyn.evolve_driven(l0, coupling, segments, RHO_G, GRID_20)
        qdyn.propagator(l0, coupling, segments, GRID_20.t_end)
        qdyn.regression_correlator(l, rho_ss, tls.PROJ_EXCITED, tls.SIGMA_MINUS,
                                   tls.SIGMA_PLUS, GRID_20)
        assert passes == [1, 1, 1, 1]
        assert eigvals_shapes == []

    def test_generator_must_preserve_hermiticity(self, decay_liouvillian):
        # propagation runs in real coordinates, which hold Hermitian states only
        with pytest.raises(ModelError, match="^generator does not preserve Hermiticity"):
            qdyn.evolve(1j * decay_liouvillian, RHO_E, TimeGrid(0.0, 1.0, 2))

    def test_non_finite_propagation_rejected(self, monkeypatch, decay_liouvillian):
        def diverged(m0, c, runs, block, n_points, scale):
            return np.full((n_points, m0.shape[0], *block.shape), np.nan)

        monkeypatch.setattr(qdyn, "_propagate", diverged)
        with pytest.raises(NumericFailure, match="^non-finite values during evolution$"):
            qdyn.evolve(decay_liouvillian, RHO_E, TimeGrid(0.0, 1.0, 2))


class TestExpm:
    def test_matches_eigendecomposition(self):
        # random TLS generators and a lambda generator, over 1 ps to 10 us
        rng = np.random.default_rng(3)
        stack = []
        for _ in range(20):
            t1, rabi, det = rng.uniform(0.5, 3.0), rng.uniform(0.0, 3.0), rng.uniform(-2, 2)
            params = tls.TlsParams(t1, rng.uniform(0.2, 2.0) * t1)
            stack.append(tls.tls_liouvillian(params, tls.Drive(rabi, det)))
        stack = np.array(stack)
        for h in (1e-3, 0.1, 1.0, 30.0):
            assert np.max(np.abs(qdyn._expm(stack, h) - eig_expm(h * stack))) < 1e-12
        # 1-norms near 1e5 take 15 squarings, each doubling the rounding error
        assert np.max(np.abs(qdyn._expm(stack, 1e4) - eig_expm(1e4 * stack))) < 1e-10
        lam_l = lam.lambda_liouvillian(lam.LambdaParams(0.27, 0.27, 1.0 / 40.0, 0.0, 0.01),
                                       lam.LambdaDrive(0.8, 0.02, 0.1, -0.3))
        for h in (1e-3, 1.0, 1e3):
            assert np.max(np.abs(qdyn._expm(lam_l[None], h)[0] - eig_expm(h * lam_l))) < 1e-12

    def test_member_equals_lone_run_bitwise(self):
        # members whose 1-norms take different numbers of squarings
        stack = np.array([drive_liouvillian(1.85, 1.62, r) for r in (0.0, 0.3, 1.0, 5.0)])
        for h in (1e-3, 1.0, 1e5):
            maps = qdyn._expm(stack, h)
            for k, m in enumerate(stack):
                assert np.array_equal(maps[k], qdyn._expm(m[None], h)[0])

    def test_fast_dephasing_keeps_the_trace(self):
        # at T2 = 2e-8 ns the coherences need 2**24 squarings over 0.5-2 ns;
        # the population block, which they do not touch, is scaled apart
        l0 = qdyn.build_liouvillian(np.zeros((2, 2)), tls.decay_jumps(tls.TlsParams(1.85, 2e-8)))
        m = qdyn._real_form(l0[None])
        rhos = [RHO_E, np.array([[0.3, 0.2 - 0.4j], [0.2 + 0.4j, 0.7]])]
        for tau in (0.5, 1.0, 2.0):
            q = qdyn._expm(m, tau)[0]
            assert q[2:, :2].tolist() == q[:2, 2:].tolist() == [[0.0, 0.0]] * 2
            for rho in rhos:
                x = q @ (qdyn._coordinates(2)[1] @ rho.reshape(-1, 1)).real
                rho_t = qdyn._rebuild(x, 1).reshape(2, 2)
                assert abs(np.trace(rho_t) - 1.0) <= 1e-15
                assert rho_t[1, 1].real == pytest.approx(rho[1, 1].real * math.exp(-tau / 1.85),
                                                          rel=1e-15, abs=1e-16)


class TestTimeGrid:
    def test_dt_and_times(self):
        grid = TimeGrid(0.0, 1.0, 11)
        assert grid.dt == pytest.approx(0.1)
        assert np.allclose(grid.times(), np.linspace(0, 1, 11))

    def test_invalid_grids_rejected(self):
        with pytest.raises(ModelError):
            TimeGrid(0.0, 1.0, 1)
        with pytest.raises(ModelError):
            TimeGrid(1.0, 0.0, 5)
