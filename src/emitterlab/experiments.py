"""Experiment registry: one config schema and one file-free compute each.

A schema gives every config key its type and default, plus the allowed
choices or the minimum where a module precondition exists.  Every key has
a default matching the reference emitter conditions (t1 = 1.85 ns,
t2 = 1.62 ns, p_sat = 20 nW), so a config may be as short as the
experiment name.  A precondition that spans several keys is one entry of
:data:`CONSTRAINTS`: the keys it reads and the domain constructor that
checks them.  :func:`validate_config` rejects unknown keys, checks every
value against the schema and runs every constraint whose keys the schema
holds, all before any computation starts; a violated constraint names
all of its keys.

``compute(cfg)`` returns a :class:`Result`: the tables, an optional fit,
a plot spec, the summary line and the data the cookbook checks.  It writes
no files; the CLI's single emitter does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import csvio, fitkit, lambda_system, photostats, qdyn, ramsey, synth, tls
from .errors import ConfigError, ModelError
from .qdyn import TimeGrid, TimeTrace

_SAT_RABI_GHZ = 1.0 / (2.0 * math.pi * math.sqrt(1.85 * 1.62))


@dataclass(frozen=True)
class Key:
    """One config key: value type and default (``None``: a value is required),
    plus the allowed choices or the minimum where a module precondition exists.
    """

    type: type
    default: object
    choices: tuple = ()
    minimum: float | None = None

    def parse(self, name: str, text: str):
        try:
            value = self.type(text)
        except (TypeError, ValueError):
            raise ConfigError(name, f"cannot parse '{text}' as {self.type.__name__}")
        if self.type is float and not math.isfinite(value):
            raise ConfigError(name, f"must be finite, got '{text}'")
        if self.choices and value not in self.choices:
            quoted = [f"'{c}'" for c in self.choices]
            raise ConfigError(name, f"must be {', '.join(quoted[:-1])} or {quoted[-1]}")
        if self.minimum is not None and value < self.minimum:
            raise ConfigError(name, f"must be >= {self.minimum:g}")
        return value


@dataclass
class Plot:
    """SVG spec: a line plot of y over x, or with ``z`` a heatmap (rows follow y)."""

    x: object
    y: object
    title: str
    xlabel: str
    ylabel: str
    z: object = None


@dataclass
class Result:
    """What a compute returns for the emitter to write."""

    summary: str
    data: dict
    tables: list = field(default_factory=list)  # (file name, header, rows)
    fit: tuple | None = None  # (file name, FitResult)
    plot: Plot | None = None  # written next to the first table
    meta: dict = field(default_factory=dict)  # extra metadata lines


@dataclass(frozen=True)
class Experiment:
    schema: dict
    compute: Callable[[dict], Result]


EXPERIMENTS: dict = {}


def _register(name: str, **schema):
    """Register the decorated ``compute(cfg) -> Result`` under ``name``."""

    def register(compute):
        EXPERIMENTS[name] = Experiment(schema, compute)
        return compute

    return register


def _tls_keys(t2_ns: float = 1.62):
    return {"t1_ns": Key(float, 1.85), "t2_ns": Key(float, t2_ns)}


def _drive_keys(rabi_ghz: float):
    return {"rabi_ghz": Key(float, rabi_ghz, minimum=0.0), "detuning_ghz": Key(float, 0.0)}


def _lambda_keys():
    # -1 means "derive": equal branching gamma_c = gamma_d = 1/(2 t1_ns).
    return {
        "gamma_c_per_ns": Key(float, -1.0),
        "gamma_d_per_ns": Key(float, -1.0),
        "gamma_ground_per_ns": Key(float, 0.025, minimum=0.0),
        "gamma_phi_e_per_ns": Key(float, 0.0, minimum=0.0),
        "gamma_phi_g_per_ns": Key(float, 0.0, minimum=0.0),
        "p_sat_nw": Key(float, 20.0),
        "pump_power_nw": Key(float, 400.0, minimum=0.0),
        "probe_power_nw": Key(float, 50.0, minimum=0.0),
    }


_PULSE_SHAPE = Key(str, "square", choices=("square", "gaussian"))
_IRF_SIGMA = Key(float, 0.0, minimum=0.0)


# -- validation ----------------------------------------------------------------


def _branch_rate(gamma: float, t1: float) -> float:
    """A radiative rate (ns^-1); a negative one derives equal branching, 1/(2 t1)."""
    return gamma if gamma >= 0 else 0.5 / t1


def _increasing(low: float, high: float) -> None:
    """A scan range runs from ``low`` up to ``high``."""
    if not low < high:
        raise ModelError(f"scan range needs min < max, got [{low:g}, {high:g}]")


# Cross-key constraints: the config keys each one reads and the domain
# constructor that checks them, called with those keys' values in order.
# An entry whose keys are a subset of an earlier one's serves the schemas
# that hold only those keys; after the earlier one has passed it cannot fail.
CONSTRAINTS = (
    (("t1_ns", "t2_ns"), tls.TlsParams),
    (("t1_ns",), lambda t1: tls.TlsParams(t1, t1)),  # fit: the Rabi fit starts at t2 = t1
    (("pulse_shape", "pulse_ns", "period_ns", "rise_ns"), tls.PulseEnvelope),
    (("pulse_shape", "pulse_ns", "period_ns"), tls.PulseEnvelope),
    (("pulse_ns", "period_ns"), functools.partial(tls.PulseEnvelope, "square")),
    (("t_max_ns", "n_points"), functools.partial(TimeGrid, 0.0)),
    (("tau_max_ns", "n_points"), functools.partial(TimeGrid, 0.0)),
    (("tau_max_ns", "n_taus"), functools.partial(TimeGrid, 0.0)),
    (("f_min_ghz", "f_max_ghz"), _increasing),
    (("delta_min_ghz", "delta_max_ghz"), _increasing),
    (("delta_c_min_ghz", "delta_c_max_ghz"), _increasing),
    (("delta_d_min_ghz", "delta_d_max_ghz"), _increasing),
    (("span_ghz",), lambda span: _increasing(-span / 2, span / 2)),
    (("gamma_c_per_ns", "gamma_d_per_ns", "t1_ns"),
     lambda gc, gd, t1: lambda_system.LambdaParams(_branch_rate(gc, t1),
                                                   _branch_rate(gd, t1))),
    (("p_sat_nw",), tls.PowerCalib),
)


def validate_config(experiment: str | None, raw: dict) -> dict:
    """Typed config from raw ``key -> text`` pairs.

    The experiment is ``experiment``, or the ``experiment`` key of ``raw``
    when ``experiment`` is None; when both are given they must agree.
    """
    named = raw.get("experiment")
    if experiment is not None and named is not None and named != experiment:
        raise ConfigError("experiment",
                          f"'{named}' does not match subcommand '{experiment}'")
    experiment = experiment or named
    if not experiment:
        raise ConfigError("experiment", "missing")
    if experiment not in EXPERIMENTS:
        raise ConfigError("experiment", f"unknown experiment '{experiment}'")
    schema = EXPERIMENTS[experiment].schema
    cfg = {name: key.default for name, key in schema.items()}
    for name, text in raw.items():
        if name == "experiment":
            continue
        if name not in schema:
            raise ConfigError(name, f"unknown key for experiment '{experiment}'")
        cfg[name] = schema[name].parse(name, text)
    for name, key in schema.items():
        if key.default is None and not cfg[name]:
            raise ConfigError(name, "a value is required")
    for keys, build in CONSTRAINTS:
        if all(key in cfg for key in keys):
            try:
                build(*(cfg[key] for key in keys))
            except ModelError as exc:
                raise ConfigError(keys, str(exc)) from exc
    return cfg


def _params(cfg) -> tls.TlsParams:
    return tls.TlsParams(t1=cfg["t1_ns"], t2=cfg["t2_ns"])


def _lambda_params(cfg) -> lambda_system.LambdaParams:
    return lambda_system.LambdaParams(
        gamma_c=_branch_rate(cfg["gamma_c_per_ns"], cfg["t1_ns"]),
        gamma_d=_branch_rate(cfg["gamma_d_per_ns"], cfg["t1_ns"]),
        gamma_ground=cfg["gamma_ground_per_ns"],
        gamma_phi_e=cfg["gamma_phi_e_per_ns"],
        gamma_phi_g=cfg["gamma_phi_g_per_ns"],
    )


def _lambda_rabis(cfg) -> tuple:
    calib = tls.PowerCalib(cfg["p_sat_nw"])
    params = _params(cfg)
    omega_c = cfg.get("omega_c_ghz", -1.0)
    omega_d = cfg.get("omega_d_ghz", -1.0)
    if omega_c < 0:
        omega_c = tls.power_to_rabi(calib, params, cfg["pump_power_nw"])
    if omega_d < 0:
        omega_d = tls.power_to_rabi(calib, params, cfg["probe_power_nw"])
    return omega_c, omega_d


# -- experiments ---------------------------------------------------------------


def _fitted(fit, value: str) -> str:
    """A summary's fitted ``value``, or the fit's message when it did not converge."""
    return value if fit.converged else f"fit not converged ({fit.message})"


def _curve(stem, xname, yname, x, y, title, xlabel) -> dict:
    """Result fields for one x-y table and its line plot."""
    return {
        "tables": [(f"{stem}.csv", [xname, yname], list(zip(x, y)))],
        "plot": Plot(x, y, title, xlabel, yname),
    }


@_register(
    "rabi_analytic",
    **_tls_keys(),
    **_drive_keys(0.906),
    tau_max_ns=Key(float, 10.0),
    n_points=Key(int, 501),
)
def _rabi_analytic(cfg):
    drive = tls.Drive(cfg["rabi_ghz"], cfg["detuning_ghz"])
    tau = TimeGrid(0.0, cfg["tau_max_ns"], cfg["n_points"]).times()
    pop = tls.rabi_population_analytic(_params(cfg), drive, tau)
    return Result(
        f"rabi_analytic: Omega/2pi={cfg['rabi_ghz']} GHz, P(0)={pop[0]:.3g}",
        {"tau": tau, "population": pop},
        **_curve("rabi_analytic", "tau_ns", "population", tau, pop,
                 "damped Rabi population", "tau (ns)"),
    )


@_register(
    "rabi_trace",
    **_tls_keys(),
    **_drive_keys(0.906),
    pulse_shape=_PULSE_SHAPE,
    pulse_ns=Key(float, 5.0),
    period_ns=Key(float, 15.0),
    rise_ns=Key(float, 0.0),
    t_max_ns=Key(float, 15.0),
    n_points=Key(int, 1501),
)
def _rabi_trace(cfg):
    drive = tls.Drive(cfg["rabi_ghz"], cfg["detuning_ghz"])
    pulse = tls.PulseEnvelope(cfg["pulse_shape"], cfg["pulse_ns"], cfg["period_ns"],
                              cfg["rise_ns"])
    grid = TimeGrid(0.0, cfg["t_max_ns"], cfg["n_points"])
    trace = tls.rabi_trace_numeric(_params(cfg), drive, pulse, grid)
    return Result(
        f"rabi_trace: Omega/2pi={cfg['rabi_ghz']} GHz, peak={trace.values.max():.4f}",
        {"trace": trace},
        **_curve("rabi_trace", "t_ns", "population", grid.times(), trace.values,
                 "pulsed Rabi trace", "t (ns)"),
    )


@_register(
    "detuning_map",
    **_tls_keys(),
    rabi_ghz=Key(float, 1.304, minimum=0.0),
    detuning_min_ghz=Key(float, -2.0),
    detuning_max_ghz=Key(float, 2.0),
    n_detunings=Key(int, 21, minimum=1),
    pulse_ns=Key(float, 20.0),
    period_ns=Key(float, 20.5),
    t_max_ns=Key(float, 20.5),
    n_points=Key(int, 2049),
)
def _detuning_map(cfg):
    params = _params(cfg)
    pulse = tls.PulseEnvelope("square", cfg["pulse_ns"], cfg["period_ns"])
    grid = TimeGrid(0.0, cfg["t_max_ns"], cfg["n_points"])
    detunings = np.linspace(cfg["detuning_min_ghz"], cfg["detuning_max_ghz"],
                            cfg["n_detunings"])
    n_on = int(cfg["pulse_ns"] / grid.dt)
    on_grid = TimeGrid(0.0, (n_on - 1) * grid.dt, n_on)
    traces = tls.rabi_traces(params, cfg["rabi_ghz"], detunings, pulse, grid)
    peak_rows = []
    for det, values in zip(detunings, traces):
        found, bin_ghz = photostats.fft_peaks(TimeTrace(on_grid, values[:n_on]))
        peak_rows.append((det, found[0][0] if found else math.nan, bin_ghz))
    times = grid.times()
    return Result(
        f"detuning_map: {len(detunings)} detunings, Omega/2pi={cfg['rabi_ghz']} GHz",
        {"peaks": peak_rows},
        tables=[
            ("detuning_map.csv", ["detuning_ghz", "t_ns", "population"],
             csvio.long_form(detunings, times, traces)),
            ("detuning_fft_peaks.csv", ["detuning_ghz", "peak_ghz", "bin_ghz"], peak_rows),
        ],
        plot=Plot(times, detunings, "detuning map", "t (ns)", "detuning (GHz)",
                  z=traces),
    )


@_register(
    "g2",
    **_tls_keys(),
    **_drive_keys(0.906),
    tau_max_ns=Key(float, 10.0),
    n_points=Key(int, 501),
    irf_sigma_ns=_IRF_SIGMA,
)
def _g2(cfg):
    drive = tls.Drive(cfg["rabi_ghz"], cfg["detuning_ghz"])
    grid = TimeGrid(0.0, cfg["tau_max_ns"], cfg["n_points"])
    trace = photostats.g2_curve(_params(cfg), drive, grid)
    if cfg["irf_sigma_ns"] > 0:
        trace = photostats.apply_irf(trace, cfg["irf_sigma_ns"])
    tau = trace.grid.times()
    g2_0 = trace.values[np.argmin(np.abs(tau))]
    return Result(
        f"g2: Omega/2pi={cfg['rabi_ghz']} GHz, g2(0)={g2_0:.4f}",
        {"trace": trace, "g2_0": g2_0},
        **_curve("g2", "tau_ns", "g2", tau, trace.values, "photon correlation",
                 "tau (ns)"),
    )


@_register(
    "mollow_spectrum",
    **_tls_keys(),
    **_drive_keys(2.0),
    f_min_ghz=Key(float, -4.0),
    f_max_ghz=Key(float, 4.0),
    n_freqs=Key(int, 1201, minimum=3),
)
def _mollow_spectrum(cfg):
    drive = tls.Drive(cfg["rabi_ghz"], cfg["detuning_ghz"])
    freqs = np.linspace(cfg["f_min_ghz"], cfg["f_max_ghz"], cfg["n_freqs"])
    intensity = photostats.emission_spectrum(_params(cfg), drive, freqs)
    return Result(
        f"mollow_spectrum: Omega/2pi={cfg['rabi_ghz']} GHz, "
        f"{cfg['n_freqs']} frequencies",
        {"freqs": freqs, "intensity": intensity},
        **_curve("mollow_spectrum", "freq_ghz", "intensity", freqs, intensity,
                 "emission spectrum", "freq - nu0 (GHz)"),
    )


@_register(
    "lineshape",
    **_tls_keys(),
    rabi_ghz=Key(float, _SAT_RABI_GHZ, minimum=0.0),
    span_ghz=Key(float, 1.2),
    n_points=Key(int, 161, minimum=5),
)
def _lineshape(cfg):
    params = _params(cfg)
    detunings = np.linspace(-cfg["span_ghz"] / 2, cfg["span_ghz"] / 2, cfg["n_points"])
    pops = tls.excitation_lineshape(params, cfg["rabi_ghz"], detunings)
    fit = fitkit.fit_lorentzian_fwhm(detunings, pops)
    fwhm = _fitted(fit, f"FWHM={fit['fwhm'] * 1e3:.1f} MHz")
    return Result(
        f"lineshape: {fwhm} (Omega/2pi={cfg['rabi_ghz']:.4g} GHz)",
        {"fit": fit, "detunings": detunings, "pops": pops, "params": params,
         "rabi_ghz": cfg["rabi_ghz"]},
        fit=("lineshape_fit.csv", fit),
        **_curve("lineshape", "detuning_ghz", "population", detunings, pops,
                 "excitation lineshape", "detuning (GHz)"),
    )


def _omegas_used(omega_c, omega_d) -> dict:
    return {"omega_c_ghz_used": csvio.format_number(omega_c),
            "omega_d_ghz_used": csvio.format_number(omega_d)}


@_register(
    "autler_scan",
    **_tls_keys(),
    **_lambda_keys(),
    omega_c_ghz=Key(float, -1.0),
    omega_d_ghz=Key(float, -1.0),
    delta_c_ghz=Key(float, 0.0),
    delta_min_ghz=Key(float, -0.7),
    delta_max_ghz=Key(float, 0.7),
    n_points=Key(int, 281, minimum=1),
)
def _autler_scan(cfg):
    lparams = _lambda_params(cfg)
    omega_c, omega_d = _lambda_rabis(cfg)
    deltas = np.linspace(cfg["delta_min_ghz"], cfg["delta_max_ghz"], cfg["n_points"])
    fluor = lambda_system.probe_scan(lparams, omega_c, cfg["delta_c_ghz"], omega_d,
                                     deltas)
    try:
        splitting = lambda_system.dip_splitting(deltas, fluor)
        split_text = f"splitting={splitting:.4f} GHz"
    except ModelError:
        splitting = math.nan
        split_text = "no Autler-Townes doublet"
    return Result(
        f"autler_scan: Omega_C/2pi={omega_c:.4f} GHz, {split_text}",
        {"splitting": splitting},
        meta=_omegas_used(omega_c, omega_d),
        **_curve("autler_scan", "delta_d_ghz", "fluorescence", deltas, fluor,
                 "probe scan", "delta_D (GHz)"),
    )


@_register(
    "autler_map",
    **_tls_keys(),
    **_lambda_keys(),
    delta_c_min_ghz=Key(float, -1.5),
    delta_c_max_ghz=Key(float, 1.5),
    n_c=Key(int, 61, minimum=1),
    delta_d_min_ghz=Key(float, -1.5),
    delta_d_max_ghz=Key(float, 1.5),
    n_d=Key(int, 61, minimum=1),
)
def _autler_map(cfg):
    lparams = _lambda_params(cfg)
    omega_c, omega_d = _lambda_rabis(cfg)
    dcs = np.linspace(cfg["delta_c_min_ghz"], cfg["delta_c_max_ghz"], cfg["n_c"])
    dds = np.linspace(cfg["delta_d_min_ghz"], cfg["delta_d_max_ghz"], cfg["n_d"])
    fluor = lambda_system.at_map2d(lparams, omega_c, omega_d, dcs, dds)
    return Result(
        f"autler_map: {cfg['n_c']}x{cfg['n_d']} points, "
        f"Omega_C/2pi={omega_c:.4f} GHz",
        {"dcs": dcs, "dds": dds, "fluor": fluor},
        tables=[("autler_map.csv", ["delta_c_ghz", "delta_d_ghz", "fluorescence"],
                 csvio.long_form(dcs, dds, fluor))],
        plot=Plot(dds, dcs, "Autler-Townes map", "delta_D (GHz)", "delta_C (GHz)",
                  z=fluor),
        meta=_omegas_used(omega_c, omega_d),
    )


@_register(
    "pulsed_rabi",
    **_tls_keys(),
    p_sat_nw=Key(float, 20.0),
    pulse_shape=_PULSE_SHAPE,
    pulse_ns=Key(float, 0.2),
    period_ns=Key(float, 12.5),
    p_max_nw=Key(float, -1.0),  # -1: span two full sin^2 oscillations
    n_powers=Key(int, 70, minimum=5),  # the sin^2 fit needs 5 points
)
def _pulsed_rabi(cfg):
    params = _params(cfg)
    calib = tls.PowerCalib(cfg["p_sat_nw"])
    pulse = tls.PulseEnvelope(cfg["pulse_shape"], cfg["pulse_ns"], cfg["period_ns"])
    p_max = cfg["p_max_nw"]
    if p_max <= 0:
        # two full sin^2 oscillations: pulse area up to ~4.2 pi
        omega_top = 4.2 * math.pi / pulse.area_factor()
        p_max = omega_top**2 * params.t1 * params.t2 * calib.p_sat_nw
    powers = np.linspace(0.0, p_max, cfg["n_powers"])
    sqrt_powers = np.sqrt(powers)
    pops = tls.pulsed_rabi_scan(params, pulse, powers, calib)
    fit = fitkit.fit_sine_sqrtp(sqrt_powers, pops)
    period = _fitted(fit, f"sine period {fit['period']:.3f} sqrt(nW)")
    return Result(
        f"pulsed_rabi: first max {pops.max():.3f}, {period}",
        {"pops": pops, "fit": fit},
        fit=("pulsed_rabi_fit.csv", fit),
        meta={"p_max_nw_used": csvio.format_number(p_max)},
        **_curve("pulsed_rabi", "sqrt_power_nw", "population", sqrt_powers, pops,
                 "pulsed Rabi scan", "sqrt(P/nW)"),
    )


@_register(
    "ramsey",
    **_tls_keys(t2_ns=0.78),
    pulse_ns=Key(float, 0.01),
    period_ns=Key(float, 1.0),
    scan=Key(str, "visibility", choices=("visibility", "fringe")),
    fringe_tau_ns=Key(float, 0.5),
    tau_max_ns=Key(float, 2.4),
    n_taus=Key(int, 13, minimum=4),  # the exponential fit needs 4 points
    n_phases=Key(int, 16, minimum=16),
    detuning_ghz=Key(float, 0.0),
)
def _ramsey(cfg):
    params = _params(cfg)
    pulse = tls.PulseEnvelope("square", cfg["pulse_ns"], cfg["period_ns"])
    if cfg["scan"] == "fringe":
        phases = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        pops = ramsey.population_table(
            params, pulse, [cfg["fringe_tau_ns"]], phases, cfg["detuning_ghz"]
        )[0]
        return Result(
            f"ramsey fringe at tau={cfg['fringe_tau_ns']} ns: "
            f"amplitude {(pops.max() - pops.min()) / 2:.3f}",
            {"phases": phases, "pops": pops},
            **_curve("ramsey_fringe", "phase_rad", "population", phases, pops,
                     "Ramsey fringe", "relative phase (rad)"),
        )
    taus = np.linspace(0.0, cfg["tau_max_ns"], cfg["n_taus"])
    vis = ramsey.visibility_curve(params, pulse, taus, n_phases=cfg["n_phases"],
                                  detuning=cfg["detuning_ghz"])
    fit = fitkit.fit_exp_decay(taus, vis)
    decay = _fitted(fit, f"fitted decay {fit['tau_ns']:.3f} ns")
    return Result(
        f"ramsey visibility: {decay}, V(0)={vis[0]:.3f}",
        {"visibility": vis, "fit": fit},
        fit=("ramsey_visibility_fit.csv", fit),
        **_curve("ramsey_visibility", "tau_ns", "visibility", taus, vis,
                 "Ramsey visibility", "tau (ns)"),
    )


@_register(
    "lifetime",
    **_tls_keys(),
    t_max_ns=Key(float, 10.0),
    n_points=Key(int, 201, minimum=4),  # the exponential fit needs 4 points
)
def _lifetime(cfg):
    grid = TimeGrid(0.0, cfg["t_max_ns"], cfg["n_points"])
    l = qdyn.build_liouvillian(np.zeros((2, 2)), tls.decay_jumps(_params(cfg)))
    rhos = qdyn.evolve(l, tls.PROJ_EXCITED, grid)
    pops = rhos[:, tls.EXCITED, tls.EXCITED].real
    fit = fitkit.fit_exp_decay(grid.times(), pops)
    return Result(
        "lifetime: " + _fitted(fit, f"fitted tau={fit['tau_ns']:.4f} ns"),
        {"fit": fit},
        fit=("lifetime_fit.csv", fit),
        **_curve("lifetime", "t_ns", "population", grid.times(), pops,
                 "lifetime decay", "t (ns)"),
    )


def _read_xy(cfg) -> tuple:
    """Metadata, header and first two columns of the ``input`` CSV."""
    meta, header, data = csvio.read_csv(cfg["input"])
    if data.shape[0] < 2 or data.shape[1] < 2:
        raise ModelError(f"input {cfg['input']} has too few rows/columns")
    return meta, header, data[:, 0], data[:, 1]


def _irf_sigma(cfg, meta) -> float:
    """The IRF width of the input: its ``# irf_sigma_ns=`` line, which ``g2``
    and ``synth`` write, else 0."""
    text = meta.get("irf_sigma_ns", "0")
    try:
        return float(text)
    except ValueError:
        raise ModelError(f"input {cfg['input']}: irf_sigma_ns line '{text}' "
                         "is not a number")


def _uniform_trace(x, y, what: str) -> TimeTrace:
    dx = np.diff(x)
    if np.max(np.abs(dx - dx[0])) > 1e-9 * abs(dx[0]):
        raise ModelError(f"{what} needs a uniform x grid")
    return TimeTrace(TimeGrid(float(x[0]), float(x[-1]), x.size), y)


# fit_model -> fit of the (x, y) columns, given the config and the input's metadata
FIT_MODELS = {
    "rabi": lambda x, y, cfg, meta: fitkit.fit_rabi(
        _uniform_trace(x, y, "rabi fit"), t1_fixed=cfg["t1_ns"],
        irf_sigma=_irf_sigma(cfg, meta),
    ),
    "exp_decay": lambda x, y, cfg, meta: fitkit.fit_exp_decay(x, y),
    "lorentzian": lambda x, y, cfg, meta: fitkit.fit_lorentzian_fwhm(x, y),
    "linear_sqrtp": lambda x, y, cfg, meta: fitkit.fit_linear_sqrtp(x, y),
    "sine_sqrtp": lambda x, y, cfg, meta: fitkit.fit_sine_sqrtp(x, y),
}


@_register(
    "fit",
    input=Key(str, None),
    fit_model=Key(str, "exp_decay", choices=tuple(FIT_MODELS)),
    t1_ns=Key(float, 1.85),
)
def _fit(cfg):
    meta, _, x, y = _read_xy(cfg)
    model = cfg["fit_model"]
    result = FIT_MODELS[model](x, y, cfg, meta)
    pretty = ", ".join(f"{k}={v:.6g}" for k, v in result.params.items())
    return Result(
        f"fit {model}: {pretty} (converged={result.converged})",
        {"fit": result},
        fit=("fit_report.csv", result),
    )


@_register(
    "synth",
    input=Key(str, None),
    seed=Key(int, 12345),
    scale=Key(float, 10000.0),
    background_rate=Key(float, 0.0),
    irf_sigma_ns=_IRF_SIGMA,
)
def _synth(cfg):
    meta, header, x, y = _read_xy(cfg)
    input_sigma = _irf_sigma(cfg, meta)
    if input_sigma > 0 and cfg["irf_sigma_ns"] > 0:
        raise ModelError(f"input {cfg['input']}: its '# irf_sigma_ns={meta['irf_sigma_ns']}' "
                         "line says it is already broadened by an IRF; synth with "
                         "irf_sigma_ns = 0, or give it an unbroadened input")
    trace = _uniform_trace(x, y, "synth input")
    noise = synth.NoiseSpec(
        seed=cfg["seed"],
        scale=cfg["scale"],
        background_rate=cfg["background_rate"],
        irf_sigma=cfg["irf_sigma_ns"],
    )
    grid, counts = synth.synth_counts(trace, noise)
    return Result(
        f"synth: {counts.size} bins, peak {counts.max()} counts (seed {cfg['seed']})",
        {"counts": counts},
        **_curve("synth_counts", header[0], "counts", grid.times(), counts,
                 "synthetic counts", header[0]),
        # the counts carry the input's IRF, which the rabi fit reads back
        meta={"irf_sigma_ns": input_sigma} if input_sigma > 0 else {},
    )
