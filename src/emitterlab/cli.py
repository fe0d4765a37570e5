"""Command-line runner for the experiment registry.

Configs are flat ``key = value`` text files (``#`` comments allowed); the
registry in :mod:`emitterlab.experiments` gives every key a type and a
default and validates the values before any computation starts.

One emitter writes what every experiment's compute returns: a CSV document
per table (metadata lines carrying the artifact version and a config
hash), a fit report when the experiment includes a fit and an SVG plot
with ``--plot``.  Exit codes: 0 success, 2 configuration error (message
names the offending key), 3 numeric failure (including running out of
memory), 1 filesystem error (an unreadable input or an unwritable output).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, csvio, fitkit, peaks, svgplot, tls
from .errors import ConfigError, ModelError, NumericFailure
from .experiments import EXPERIMENTS, Result, validate_config
from .qdyn import TimeGrid, TimeTrace

OUT_ENV_VAR = "EMITTERLAB_OUT"


# -- config handling ----------------------------------------------------------


def parse_config_text(text: str) -> dict:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(body.split()[0], f"line {lineno} is not 'key = value'")
        key, _, value = body.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def load_config(path) -> dict:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def config_hash(experiment: str, cfg: dict) -> str:
    canonical = [f"experiment={experiment}"]
    for key in sorted(cfg):
        value = cfg[key]
        canonical.append(
            f"{key}={csvio.format_number(value) if isinstance(value, (int, float)) else value}"
        )
    return hashlib.sha256("\n".join(canonical).encode()).hexdigest()[:16]


# -- output --------------------------------------------------------------------


def _meta(experiment: str, cfg: dict, **extra) -> dict:
    meta = {"artifact_version": __version__, "experiment": experiment,
            "config_hash": config_hash(experiment, cfg)}
    for key in sorted(cfg):
        meta[key] = cfg[key]
    meta.update(extra)
    return meta


def _emit(experiment: str, cfg: dict, result: Result, outdir: Path, plot: bool):
    """Write the tables, the fit report and, with ``plot``, the SVG of a run."""
    meta = _meta(experiment, cfg, **result.meta)
    for name, header, rows in result.tables:
        csvio.write_csv(outdir / name, header, rows, meta)
    if result.fit is not None:
        name, fit = result.fit
        fit_meta = dict(meta, converged=fit.converged, n_iter=fit.n_iter,
                        chi2_reduced=csvio.format_number(fit.chi2_reduced),
                        fit_message=fit.message)
        fit_meta.update((f"fit_{key}", value) for key, value in fit.extra.items())
        rows = [(p, v, fit.stderr.get(p, math.nan)) for p, v in fit.params.items()]
        csvio.write_csv(outdir / name, ["parameter", "value", "stderr"], rows, fit_meta)
    if plot and result.plot is not None:
        spec = result.plot
        path = outdir / Path(result.tables[0][0]).with_suffix(".svg")
        labels = {"title": spec.title, "xlabel": spec.xlabel, "ylabel": spec.ylabel,
                  "comment": f"config_hash={meta['config_hash']}"}
        if spec.z is None:
            svgplot.line_plot(path, spec.x, spec.y, **labels)
        else:
            svgplot.heatmap(path, spec.x, spec.y, spec.z, **labels)


def default_outdir() -> Path:
    return Path(os.environ.get(OUT_ENV_VAR, "emitterlab_out"))


def run(
    config_path=None,
    experiment: str | None = None,
    outdir=None,
    plot: bool = False,
    seed: int | None = None,
    overrides: dict | None = None,
) -> int:
    """Run one experiment; returns the process exit code."""
    raw: dict = {}
    if config_path is not None:
        try:
            raw = load_config(config_path)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if overrides:
        raw.update({k: str(v) for k, v in overrides.items()})
    name = experiment or raw.get("experiment")
    if not name:
        print("error: config key 'experiment': missing", file=sys.stderr)
        return 2
    if experiment and "experiment" in raw and raw["experiment"] != experiment:
        print(
            f"error: config key 'experiment': '{raw['experiment']}' does not match "
            f"subcommand '{experiment}'",
            file=sys.stderr,
        )
        return 2
    if seed is not None and name in EXPERIMENTS and "seed" in EXPERIMENTS[name].schema:
        raw["seed"] = str(seed)
    try:
        cfg = validate_config(name, raw)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(outdir) if outdir is not None else default_outdir()
    try:
        out.mkdir(parents=True, exist_ok=True)
        result = EXPERIMENTS[name].compute(cfg)
        _emit(name, cfg, result, out, plot)
    except (NumericFailure, ModelError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: filesystem: {exc}", file=sys.stderr)
        return 1
    print(result.summary)
    return 0


# -- figure cookbook -----------------------------------------------------------

_RABI_OMEGAS = (0.906, 1.304, 1.854)
_RABI_STEPS = tuple(f"rabi_trace_{om}" for om in _RABI_OMEGAS)
_G2_OMEGAS = {  # Psat multiple -> Rabi frequency at the default calibration
    f: tls.power_to_rabi(tls.PowerCalib(20.0), tls.TlsParams(1.85, 1.62), f * 20.0)
    for f in (15.0, 30.0, 60.0)
}
_G2_STEPS = tuple(f"g2_{f:g}psat" for f in _G2_OMEGAS)
_PUMP_OMEGAS = (0.3, 0.5, 0.8)
_PUMP_STEPS = tuple(f"autler_scan_{om}" for om in _PUMP_OMEGAS)
_FFT_DETUNINGS = np.linspace(-2.0, 2.0, 5)


def _power(omega):
    """Drive power (nW) that gives Rabi frequency ``omega`` at the reference emitter."""
    return omega**2 * 1.85 * 1.62 * 20.0


# sin^2 completes one period when the pulse area grows by 2 pi, so the period
# in sqrt(P) is twice the pi-pulse abscissa.
_PULSED_PERIOD = 2.0 * math.sqrt(
    _power(math.pi / tls.PulseEnvelope("square", 0.2, 12.5).area_factor())
)


def _on_window_fit(data):
    """Damped-Rabi fit of the first 5 ns of a trace, while the pulse is on."""
    trace = data["trace"]
    n_on = int(5.0 / trace.grid.dt)
    sub = TimeTrace(TimeGrid(0.0, (n_on - 1) * trace.grid.dt, n_on),
                    trace.values[:n_on])
    return dict(data, fit=fitkit.fit_rabi(sub, t1_fixed=1.85))


def _g2_fit(data):
    return dict(data, fit=fitkit.fit_rabi(data["trace"], t1_fixed=1.85))


def _mollow_peaks(data):
    """Peak count, upper sideband position and center:sideband height ratio."""
    freqs, intensity = data["freqs"], data["intensity"]
    found = sorted(
        peaks.parabolic_refine(freqs, intensity, i)
        for i in peaks.local_maxima(intensity, min_fraction=0.05)
    )
    if len(found) != 3:
        return dict(data, n_peaks=len(found), sideband=math.nan, ratio=math.nan)
    ratio = found[1][1] / (0.5 * (found[0][1] + found[2][1]))
    return dict(data, n_peaks=3, sideband=found[2][0], ratio=ratio)


def _valley_on_diagonal(data):
    dcs, dds, fluor = data["dcs"], data["dds"], data["fluor"]
    worst = 0.0
    for i, dc in enumerate(dcs):
        window = np.where(np.abs(dds - dc) <= 0.35)[0]
        j = window[np.argmin(fluor[i, window])]
        worst = max(worst, abs(dds[j] - dc))
    return worst <= (dds[1] - dds[0]) * 1.001, worst


def _oscillations(data):
    y = data["pops"]
    n_max = len([i for i in peaks.local_maxima(y) if y[i] > 0.3])
    return n_max >= 2, n_max


def _linear_r2(powers, values):
    r2 = fitkit.fit_linear_sqrtp(powers, values).extra["r_squared"]
    return r2 > 0.99, r2


def _t2_flat(*runs):
    worst = max(abs(r["fit"]["t2_ns"] - 1.62) for r in runs)
    return worst <= 0.05 * 1.62, worst * 1e3


def _splitting_linear(*runs):
    lin = fitkit.fit_linear_sqrtp([_power(om) for om in _PUMP_OMEGAS],
                                  [r["splitting"] for r in runs])
    ok = lin.extra["r_squared"] > 0.99 and abs(lin["intercept"]) < 0.02
    return ok, lin.extra["r_squared"], lin["intercept"]


def _oracle():
    oracle = tls.mu_mode_oracle()
    return oracle.rms_minus < 1e-6, oracle.mode, oracle.rms_minus, oracle.rms_plus


# folder -> (experiment, overrides, derive); ``derive(data)`` adds the
# quantities the checks read to the run's data.
STEPS = {
    "linewidth_transform_limit": (
        # transform-limited linewidth at s = 0.01 in the radiative limit
        "lineshape",
        {"t2_ns": 3.7, "rabi_ghz": math.sqrt(0.01 / (1.85 * 3.7)) / (2 * math.pi),
         "span_ghz": 0.8, "n_points": 161},
        None,
    ),
    "lifetime": ("lifetime", {}, None),
    # saturated lineshape: the model's own power-broadening prediction
    "linewidth_saturation": ("lineshape", {}, None),
    **{step: ("rabi_trace", {"rabi_ghz": om, "n_points": 3001}, _on_window_fit)
       for step, om in zip(_RABI_STEPS, _RABI_OMEGAS)},
    "detuning_fft": ("detuning_map", {"n_detunings": 5, "detuning_min_ghz": -2.0,
                                      "detuning_max_ghz": 2.0}, None),
    **{step: ("g2", {"rabi_ghz": om, "tau_max_ns": 10.0, "n_points": 1001}, _g2_fit)
       for step, om in zip(_G2_STEPS, _G2_OMEGAS.values())},
    **{step: ("autler_scan", {"omega_c_ghz": om, "omega_d_ghz": 0.02,
                              "delta_min_ghz": -0.9, "delta_max_ghz": 0.9,
                              "n_points": 361}, None)
       for step, om in zip(_PUMP_STEPS, _PUMP_OMEGAS)},
    "autler_map": ("autler_map", {}, None),
    "pulsed_rabi": ("pulsed_rabi", {}, None),
    "ramsey_fringe": ("ramsey", {"scan": "fringe"}, None),
    "ramsey_visibility": ("ramsey", {}, None),
    "mollow_spectrum": ("mollow_spectrum", {"t2_ns": 3.7}, _mollow_peaks),
}

# (label, steps, value, expected, tolerance); ``value`` and a callable
# ``tolerance`` get the data of ``steps``.  An anchor passes when
# |value - expected| <= tolerance.  A flag (expected None) has ``value``
# return (passed, *shown) and formats ``shown`` into its label.  A check
# whose steps did not all run is skipped.
CHECKS = [
    ("mu_mode oracle selects '{}' (rms {:.2e} vs {:.2e})", (), _oracle, None, None),
    ("transform-limited linewidth 86 MHz", ("linewidth_transform_limit",),
     lambda d: d["fit"]["fwhm"] * 1e3, 86.0, 0.03 * 86.0),
    ("lifetime 1.85 ns", ("lifetime",), lambda d: d["fit"]["tau_ns"], 1.85, 0.01 * 1.85),
    ("saturated linewidth sqrt(2)/(pi T2)", ("linewidth_saturation",),
     lambda d: d["fit"]["fwhm"], math.sqrt(2.0) / (math.pi * 1.62),
     0.03 * math.sqrt(2.0) / (math.pi * 1.62)),
    *((f"time-resolved Rabi frequency {om} GHz", (step,),
       lambda d: d["fit"]["omega_ghz"], om, 0.02 * om)
      for step, om in zip(_RABI_STEPS, _RABI_OMEGAS)),
    ("Rabi frequency linear in sqrt(P) (R^2={:.6f})", _RABI_STEPS,
     lambda *runs: _linear_r2([_power(om) for om in _RABI_OMEGAS],
                              [r["fit"]["omega_ghz"] for r in runs]), None, None),
    ("fitted T2 flat across drive powers (max deviation {:.1f} ps)", _RABI_STEPS,
     _t2_flat, None, None),
    *((f"FFT component at sqrt(Omega^2+Delta^2), Delta={det:+.0f} GHz", ("detuning_fft",),
       lambda d, i=i: d["peaks"][i][1], math.hypot(1.304, det),
       lambda d, i=i: d["peaks"][i][2])
      for i, det in enumerate(_FFT_DETUNINGS)),
    *(check
      for step, (f, om) in zip(_G2_STEPS, _G2_OMEGAS.items())
      for check in (
          ("g2(0) = 0", (step,), lambda d: d["g2_0"], 0.0, 1e-6),
          (f"g2 Rabi frequency at {f} Psat", (step,), lambda d: d["fit"]["omega_ghz"],
           om, 0.02 * om),
      )),
    ("g2 Rabi frequency linear in sqrt(P) (R^2={:.6f})", _G2_STEPS,
     lambda *runs: _linear_r2([f * 20.0 for f in _G2_OMEGAS],
                              [r["fit"]["omega_ghz"] for r in runs]), None, None),
    *((f"Autler-Townes splitting ~ Omega_C = {om} GHz", (step,),
       lambda d: d["splitting"], om, 0.05 * om)
      for step, om in zip(_PUMP_STEPS, _PUMP_OMEGAS)),
    ("splitting linear in sqrt(pump power) (R^2={:.6f}, intercept={:.4f} GHz)",
     _PUMP_STEPS, _splitting_linear, None, None),
    ("dark-state valley on the diagonal (max offset {:.3f} GHz)", ("autler_map",),
     _valley_on_diagonal, None, None),
    ("pulsed Rabi shows >= 2 oscillations ({} maxima)", ("pulsed_rabi",),
     _oscillations, None, None),
    ("first pulsed maximum >= 0.93 ({:.3f})", ("pulsed_rabi",),
     lambda d: (d["pops"].max() >= 0.93, d["pops"].max()), None, None),
    ("sine period matches pi-pulse calibration", ("pulsed_rabi",),
     lambda d: d["fit"]["period"], _PULSED_PERIOD, 0.05 * _PULSED_PERIOD),
    ("Ramsey fringe oscillates with optical phase", ("ramsey_fringe",),
     lambda d: (d["pops"].max() - d["pops"].min() > 0.5,), None, None),
    ("Ramsey visibility decay 0.78 ns", ("ramsey_visibility",),
     lambda d: d["fit"]["tau_ns"], 0.78, 0.05 * 0.78),
    ("V(0) > 0.95 ({:.3f})", ("ramsey_visibility",),
     lambda d: (d["visibility"][0] > 0.95, d["visibility"][0]), None, None),
    ("Mollow spectrum has 3 peaks ({})", ("mollow_spectrum",),
     lambda d: (d["n_peaks"] == 3, d["n_peaks"]), None, None),
    ("Mollow sidebands at +/- Omega", ("mollow_spectrum",), lambda d: d["sideband"],
     2.0, 0.04),
    ("Mollow center:sideband height 3:1", ("mollow_spectrum",), lambda d: d["ratio"],
     3.0, 0.3),
]


def _row(label, passed, value=math.nan, expected=math.nan, tol=math.nan) -> dict:
    return {"check": label, "value": value, "expected": expected, "tolerance": tol,
            "status": "PASS" if passed else "FAIL"}


def reproduce_all(outdir=None, plot: bool = False) -> int:
    """Re-run every figure-style computation and check the headline anchors.

    Each step of :data:`STEPS` writes its usual outputs into its own
    folder; a summary table (stdout and summary.csv) holds every check of
    :data:`CHECKS`.  Returns 0 only if every run succeeds and every check
    passes.
    """
    out = Path(outdir) if outdir is not None else default_outdir()
    out.mkdir(parents=True, exist_ok=True)
    runs: dict = {}  # folder -> derived data, None when the run failed
    rows = []

    def step(folder):
        if folder not in runs:
            name, overrides, derive = STEPS[folder]
            subdir = out / folder
            subdir.mkdir(parents=True, exist_ok=True)
            try:
                cfg = validate_config(name, {k: str(v) for k, v in overrides.items()})
                result = EXPERIMENTS[name].compute(cfg)
                _emit(name, cfg, result, subdir, plot)
                runs[folder] = derive(result.data) if derive else result.data
            except Exception as exc:  # keep going; report the failure
                runs[folder] = None
                rows.append(_row(f"{folder}: run failed ({exc})", False))
        return runs[folder]

    for label, steps, value, expected, tol in CHECKS:
        data = [step(folder) for folder in steps]
        if any(d is None for d in data):
            continue
        if expected is None:
            passed, *shown = value(*data)
            rows.append(_row(label.format(*shown), passed))
            continue
        got = value(*data)
        tol = tol(*data) if callable(tol) else tol
        rows.append(_row(label, abs(got - expected) <= tol, got, expected, tol))

    n_fail = sum(1 for row in rows if row["status"] == "FAIL")
    width = max(len(row["check"]) for row in rows)
    print(f"\nreproduction summary ({len(rows)} checks):")
    for row in rows:
        if math.isnan(row["expected"]):
            detail = ""
        else:
            detail = (f"  value={row['value']:.6g} expected={row['expected']:.6g} "
                      f"tol={row['tolerance']:.3g}")
        print(f"  {row['status']}  {row['check']:<{width}}{detail}")
    csvio.write_csv(
        out / "summary.csv",
        ["check", "value", "expected", "tolerance", "status"],
        ((r["check"], r["value"], r["expected"], r["tolerance"], r["status"])
         for r in rows),
        {"artifact_version": __version__, "mu_mode": tls.mu_mode_oracle().mode,
         "n_checks": len(rows), "n_failed": n_fail},
    )
    print(f"summary written to {out / 'summary.csv'}"
          f" ({'all passed' if n_fail == 0 else f'{n_fail} FAILED'})")
    return 0 if n_fail == 0 else 1


# -- argument parsing ----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", type=Path, default=None, help="config file path")
    p.add_argument("--out", type=Path, default=None,
                   help=f"output directory (default ${OUT_ENV_VAR} or ./emitterlab_out)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--plot", action="store_true", help="also write SVG plots")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="emitterlab",
        description="Coherently driven emitter simulations: Rabi dynamics, photon "
                    "correlations, Mollow spectra, Autler-Townes scans and the "
                    "fits that extract their parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name.replace("_", "-"), help=f"run the {name} experiment")
        _add_common(p)
    p = sub.add_parser("run", help="run the experiment named in the config")
    _add_common(p)
    p = sub.add_parser("validate", help="check a config file without running")
    p.add_argument("--config", type=Path, required=True)
    p = sub.add_parser("reproduce-all", help="run the bundled figure cookbook")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--plot", action="store_true")
    args = parser.parse_args(argv)

    if args.command == "validate":
        try:
            raw = load_config(args.config)
            name = raw.get("experiment")
            if not name:
                raise ConfigError("experiment", "missing")
            validate_config(name, raw)
        except (OSError, ConfigError) as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 2
        print(f"ok: valid '{name}' config")
        return 0
    if args.command == "reproduce-all":
        return reproduce_all(args.out, plot=args.plot)
    experiment = None if args.command == "run" else args.command.replace("-", "_")
    return run(
        config_path=args.config,
        experiment=experiment,
        outdir=args.out,
        plot=args.plot,
        seed=args.seed,
    )


if __name__ == "__main__":
    sys.exit(main())
