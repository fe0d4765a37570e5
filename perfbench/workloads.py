"""Seeded workloads: the CLI requests of one pass and their output checks.

A pass is a fixed list of requests.  Each request is one
``emitterlab.cli.main(["run", "--config", ...])`` call on a generated
config file.  Grid sizes and time spans stay at the experiment defaults (or
at the cookbook's values where noted); only physical values are drawn from
the seed: powers, Rabi frequencies, detunings, IRF widths and noise seeds.
Pass ``k`` of seed ``s`` always gets the same inputs.

Every request has an output check at the acceptance suite's tolerances.
The checks read the files the CLI wrote with this module's own parser and
never call into emitterlab, so that they do not show up in the layer
trace.  The last requests of each pass repeat earlier ones into other
directories and must produce byte-identical files.

This module imports nothing from emitterlab.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Reference emitter: the CLI defaults that the expected values rely on.
T1_NS = 1.85
T2_NS = 1.62
RAMSEY_T2_NS = 0.78
PULSED_PULSE_NS = 0.2

# The documented defect that photon_stats keeps in view (see NOTES.md).
IRF_ROUND_TRIP = "irf_round_trip"


class CheckFailed(Exception):
    pass


@dataclass
class Request:
    label: str
    config: dict
    outdir: Path
    check: Callable[[], None]
    plot: bool = False
    known_defect: str = ""

    @property
    def config_path(self) -> Path:
        return self.outdir.with_suffix(".cfg")

    def config_text(self) -> str:
        return "".join(f"{key} = {value!r}\n" if isinstance(value, float)
                       else f"{key} = {value}\n" for key, value in self.config.items())

    def argv(self) -> list:
        argv = ["run", "--config", str(self.config_path), "--out", str(self.outdir)]
        return argv + ["--plot"] if self.plot else argv


# -- reading outputs ----------------------------------------------------------


def read_table(path: Path):
    """(meta, header, rows) of a CSV document with '# key=value' lines."""
    meta, header, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    if header is None:
        raise CheckFailed(f"{path.name}: no header row")
    return meta, header, rows


def read_columns(path: Path, n_cols: int) -> list:
    _, header, rows = read_table(path)
    if len(header) != n_cols:
        raise CheckFailed(f"{path.name}: expected {n_cols} columns, got {header}")
    return [[float(row[c]) for row in rows] for c in range(n_cols)]


def read_fit(path: Path) -> dict:
    """Fitted parameters of a fit report; raises unless the fit converged."""
    meta, _, rows = read_table(path)
    if meta.get("converged") != "True":
        raise CheckFailed(f"{path.name}: fit did not converge ({meta.get('fit_message')})")
    params = {row[0]: float(row[1]) for row in rows}
    for name, value in params.items():
        if not math.isfinite(value):
            raise CheckFailed(f"{path.name}: {name} = {value}")
    return params


def local_maxima(y, min_fraction: float) -> list:
    floor = min_fraction * max(y)
    return [i for i in range(1, len(y) - 1)
            if y[i] > y[i - 1] and y[i] > y[i + 1] and y[i] > floor]


def parabolic_peak(x, y, i) -> tuple:
    ym, y0, yp = y[i - 1], y[i], y[i + 1]
    denom = ym - 2.0 * y0 + yp
    if denom == 0.0:
        return x[i], y0
    shift = min(max(0.5 * (ym - yp) / denom, -0.5), 0.5)
    return x[i] + shift * (x[i + 1] - x[i]), y0 - 0.25 * (ym - yp) * shift


def expect_close(label: str, value: float, expected: float, tol: float) -> None:
    if not abs(value - expected) <= tol:
        raise CheckFailed(f"{label}: {value:.6g}, expected {expected:.6g} +/- {tol:.3g}")


def expect(label: str, ok: bool) -> None:
    if not ok:
        raise CheckFailed(label)


def check_svg(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    expect(f"{path.name} is an SVG document", "<svg" in text and text.endswith("</svg>\n"))


def check_identical(a: Path, b: Path, names) -> None:
    for name in names:
        expect(f"repeated request wrote identical {name}",
               (a / name).read_bytes() == (b / name).read_bytes())


# -- stationary_sweeps --------------------------------------------------------


def _dark_valley(out: Path, n_c: int, n_d: int) -> None:
    dc_col, dd_col, fluor = read_columns(out / "autler_map.csv", 3)
    expect("autler_map has n_c x n_d rows", len(fluor) == n_c * n_d)
    dds = dd_col[:n_d]
    step = dds[1] - dds[0]
    worst = 0.0
    for i in range(n_c):
        dc = dc_col[i * n_d]
        row = fluor[i * n_d:(i + 1) * n_d]
        window = [j for j in range(n_d) if abs(dds[j] - dc) <= 0.35]
        j = min(window, key=lambda k: row[k])
        worst = max(worst, abs(dds[j] - dc))
    expect(f"dark valley on the diagonal (max offset {worst:.3f} GHz)",
           worst <= step * 1.001)


def _at_splitting(out: Path, omega_c: float) -> None:
    x, y = read_columns(out / "autler_scan.csv", 2)
    maxima = sorted(local_maxima(y, 0.05), key=lambda i: -y[i])
    expect("Autler-Townes doublet has two maxima", len(maxima) >= 2)
    left, right = sorted(maxima[:2])
    expect("dip between the Autler-Townes maxima",
           min(y[left:right + 1]) < min(y[left], y[right]))
    split = abs(parabolic_peak(x, y, right)[0] - parabolic_peak(x, y, left)[0])
    expect_close("Autler-Townes splitting", split, omega_c, 0.05 * omega_c)


def _linewidth(out: Path, s: float) -> None:
    fwhm = read_fit(out / "lineshape_fit.csv")["fwhm"]
    expected = math.sqrt(1.0 + s) / (math.pi * T2_NS)
    expect_close("power-broadened FWHM (GHz)", fwhm, expected, 0.03 * expected)


def _mollow(out: Path, rabi: float) -> None:
    f, s = read_columns(out / "mollow_spectrum.csv", 2)
    peaks = sorted(parabolic_peak(f, s, i) for i in local_maxima(s, 0.05))
    expect(f"Mollow spectrum has 3 peaks ({len(peaks)})", len(peaks) == 3)
    (f_lo, h_lo), (f_mid, h_mid), (f_hi, h_hi) = peaks
    expect_close("Mollow lower sideband", f_lo, -rabi, 0.02 * rabi)
    expect_close("Mollow centre line", f_mid, 0.0, 0.02 * rabi)
    expect_close("Mollow upper sideband", f_hi, rabi, 0.02 * rabi)
    expect_close("Mollow centre:sideband height", h_mid / (0.5 * (h_lo + h_hi)), 3.0, 0.3)


def stationary_sweeps(rng: random.Random, d: Path, smoke: bool) -> list:
    # Below about 380 nW pump and 30 nW probe the valley leaves the diagonal
    # at the map's corners, so the dark-valley check no longer applies.
    pump = rng.uniform(400.0, 550.0)
    probe = rng.uniform(40.0, 75.0)
    omega_c = rng.uniform(0.3, 0.8)
    omega_d = rng.uniform(0.01, 0.03)
    s = rng.uniform(0.25, 4.0)
    rabi_mollow = rng.uniform(1.5, 2.5)
    n_grid = 9 if smoke else 61

    amap = {"experiment": "autler_map", "pump_power_nw": pump, "probe_power_nw": probe,
            "n_c": n_grid, "n_d": n_grid}
    scan = {"experiment": "autler_scan", "omega_c_ghz": omega_c, "omega_d_ghz": omega_d,
            "delta_min_ghz": -0.9, "delta_max_ghz": 0.9, "n_points": 361}
    line = {"experiment": "lineshape",
            "rabi_ghz": math.sqrt(s / (T1_NS * T2_NS)) / (2.0 * math.pi)}
    mollow = {"experiment": "mollow_spectrum", "t2_ns": 3.7, "rabi_ghz": rabi_mollow}
    if smoke:
        mollow["n_freqs"] = 401
    return [
        Request("autler_map", amap, d / "autler_map",
                lambda: _dark_valley(d / "autler_map", n_grid, n_grid)),
        Request("autler_scan", scan, d / "autler_scan",
                lambda: _at_splitting(d / "autler_scan", omega_c)),
        Request("lineshape", line, d / "lineshape", lambda: _linewidth(d / "lineshape", s)),
        Request("mollow_spectrum", mollow, d / "mollow_spectrum",
                lambda: _mollow(d / "mollow_spectrum", rabi_mollow)),
        # The median latency falls among the two autler_scan requests.
        Request("autler_scan_repeat", scan, d / "autler_scan_repeat",
                lambda: check_identical(d / "autler_scan", d / "autler_scan_repeat",
                                        ("autler_scan.csv",))),
    ]


# -- driven_dynamics ----------------------------------------------------------


def _ramsey(out: Path) -> None:
    tau = read_fit(out / "ramsey_visibility_fit.csv")["tau_ns"]
    expect_close("Ramsey visibility decay (ns)", tau, RAMSEY_T2_NS, 0.05 * RAMSEY_T2_NS)
    _, vis = read_columns(out / "ramsey_visibility.csv", 2)
    expect(f"Ramsey V(0) > 0.95 ({vis[0]:.3f})", vis[0] > 0.95)
    check_svg(out / "ramsey_visibility.svg")


def _pulsed(out: Path, p_sat: float) -> None:
    _, y = read_columns(out / "pulsed_rabi.csv", 2)
    maxima = [i for i in local_maxima(y, 0.0) if y[i] > 0.3]
    expect(f"pulsed Rabi shows >= 2 oscillations ({len(maxima)} maxima)", len(maxima) >= 2)
    expect(f"first pulsed maximum >= 0.93 ({max(y):.3f})", max(y) >= 0.93)
    omega_pi = math.pi / PULSED_PULSE_NS
    expected = 2.0 * math.sqrt(omega_pi**2 * T1_NS * T2_NS * p_sat)
    period = read_fit(out / "pulsed_rabi_fit.csv")["period"]
    expect_close("pulsed sin^2 period (sqrt nW)", period, expected, 0.05 * expected)
    check_svg(out / "pulsed_rabi.svg")


def _fft_peaks(out: Path, rabi: float, n_det: int, n_points: int) -> None:
    det, peak, bin_ghz = read_columns(out / "detuning_fft_peaks.csv", 3)
    expect("one FFT peak per detuning", len(det) == n_det)
    for delta, f, width in zip(det, peak, bin_ghz):
        expect_close(f"FFT peak at Delta={delta:+.2f} GHz", f, math.hypot(rabi, delta), width)
    _, _, rows = read_table(out / "detuning_map.csv")
    expect("detuning_map has n_detunings x n_points rows", len(rows) == n_det * n_points)
    check_svg(out / "detuning_map.svg")


def _trace(out: Path) -> None:
    _, p = read_columns(out / "rabi_trace.csv", 2)
    expect("rabi_trace has 1501 samples", len(p) == 1501)
    expect("rabi_trace starts in the ground state", abs(p[0]) <= 1e-12)
    expect("rabi_trace population within [0, 1]", -1e-9 <= min(p) and max(p) <= 1 + 1e-9)
    check_svg(out / "rabi_trace.svg")


def driven_dynamics(rng: random.Random, d: Path, smoke: bool) -> list:
    ramsey_det = rng.uniform(-0.3, 0.3)
    p_sat = rng.uniform(10.0, 40.0)
    rabi_map = rng.uniform(1.2, 1.4)
    rabi_square = rng.uniform(0.7, 1.1)
    det_square = rng.uniform(-0.5, 0.5)
    # Above 1 GHz the gaussian trace takes a finer internal step and about
    # 50% longer; keep every pass the same amount of work.
    rabi_gauss = rng.uniform(0.7, 0.95)
    n_det = 3 if smoke else 21

    ramsey = {"experiment": "ramsey", "detuning_ghz": ramsey_det}
    if smoke:
        ramsey["n_taus"] = 7
    pulsed = {"experiment": "pulsed_rabi", "p_sat_nw": p_sat}
    dmap = {"experiment": "detuning_map", "rabi_ghz": rabi_map, "n_detunings": n_det}
    square = {"experiment": "rabi_trace", "rabi_ghz": rabi_square, "detuning_ghz": det_square}
    gauss = {"experiment": "rabi_trace", "pulse_shape": "gaussian", "rabi_ghz": rabi_gauss}
    return [
        Request("ramsey", ramsey, d / "ramsey", lambda: _ramsey(d / "ramsey"), plot=True),
        Request("pulsed_rabi", pulsed, d / "pulsed_rabi",
                lambda: _pulsed(d / "pulsed_rabi", p_sat), plot=True),
        Request("detuning_map", dmap, d / "detuning_map",
                lambda: _fft_peaks(d / "detuning_map", rabi_map, n_det, 2049), plot=True),
        Request("rabi_trace_square", square, d / "square", lambda: _trace(d / "square"),
                plot=True),
        Request("rabi_trace_gaussian", gauss, d / "gaussian", lambda: _trace(d / "gaussian"),
                plot=True),
    ] + [
        # Both traces are repeated, which also makes the request count odd so
        # that the median latency falls inside one kind of request.
        Request(f"{name}_repeat", config, d / f"{tag}_repeat",
                lambda tag=tag: check_identical(d / tag, d / f"{tag}_repeat",
                                                ("rabi_trace.csv", "rabi_trace.svg")),
                plot=True)
        for name, config, tag in (("rabi_trace_square", square, "square"),
                                  ("rabi_trace_gaussian", gauss, "gaussian"))
    ]


# -- photon_stats -------------------------------------------------------------


def _g2(out: Path) -> None:
    tau, g2 = read_columns(out / "g2.csv", 2)
    expect("g2 has 1001 samples", len(g2) == 1001)
    i0 = min(range(len(tau)), key=lambda i: abs(tau[i]))
    expect_close("g2(0)", g2[i0], 0.0, 1e-6)


def _counts(out: Path, min_rows: int) -> None:
    _, _, rows = read_table(out / "synth_counts.csv")
    expect("synth keeps every input bin", len(rows) >= min_rows)
    expect("counts are non-negative integers",
           all(row[1].isdigit() for row in rows))


def _rabi_fit(out: Path, rabi: float) -> None:
    params = read_fit(out / "fit_report.csv")
    expect_close("round-trip omega (GHz)", params["omega_ghz"], rabi, 0.02 * rabi)
    expect_close("round-trip T2 (ns)", params["t2_ns"], T2_NS, 0.10 * T2_NS)


def _lifetime(out: Path, t1: float) -> None:
    expect_close("lifetime fit (ns)", read_fit(out / "lifetime_fit.csv")["tau_ns"], t1,
                 0.01 * t1)


def _decay_fit(out: Path, t1: float) -> None:
    tau = read_fit(out / "fit_report.csv")["tau_ns"]
    expect_close("round-trip decay constant (ns)", tau, t1, 0.02 * t1)


def _round_trip(d: Path, tag: str, rabi: float, sigma: float, seed: int) -> list:
    g2_dir, synth_dir, fit_dir = d / f"g2_{tag}", d / f"synth_{tag}", d / f"fit_{tag}"
    synth = {"experiment": "synth", "input": str(g2_dir / "g2.csv"), "seed": seed,
             "irf_sigma_ns": sigma}
    fit = {"experiment": "fit", "input": str(synth_dir / "synth_counts.csv"),
           "fit_model": "rabi"}
    return [
        Request(f"g2_{tag}", {"experiment": "g2", "rabi_ghz": rabi}, g2_dir,
                lambda: _g2(g2_dir)),
        Request(f"synth_{tag}", synth, synth_dir, lambda: _counts(synth_dir, 1001)),
        Request(f"fit_rabi_{tag}", fit, fit_dir, lambda: _rabi_fit(fit_dir, rabi),
                known_defect=IRF_ROUND_TRIP if sigma > 0 else ""),
    ]


def photon_stats(rng: random.Random, d: Path, smoke: bool) -> list:
    rabi_sharp = rng.uniform(0.8, 1.9)
    rabi_irf = rng.uniform(0.8, 1.9)
    sigma = rng.choice((0.05, 0.1, 0.15, 0.3))
    t1 = rng.uniform(1.6, 2.1)
    seeds = [rng.randrange(2**31) for _ in range(3)]

    life_dir, synth_dir, fit_dir = d / "lifetime", d / "synth_lifetime", d / "fit_lifetime"
    life_synth = {"experiment": "synth", "input": str(life_dir / "lifetime.csv"),
                  "seed": seeds[2]}
    life_fit = {"experiment": "fit", "input": str(synth_dir / "synth_counts.csv"),
                "fit_model": "exp_decay"}
    requests = _round_trip(d, "sharp", rabi_sharp, 0.0, seeds[0])
    requests += _round_trip(d, "irf", rabi_irf, sigma, seeds[1])
    requests += [
        Request("lifetime", {"experiment": "lifetime", "t1_ns": t1}, life_dir,
                lambda: _lifetime(life_dir, t1)),
        Request("synth_lifetime", life_synth, synth_dir, lambda: _counts(synth_dir, 201)),
        Request("fit_exp_decay", life_fit, fit_dir, lambda: _decay_fit(fit_dir, t1)),
    ]
    repeat_of = requests[1]
    requests.append(Request(
        "synth_repeat", repeat_of.config, d / "synth_repeat",
        lambda: check_identical(repeat_of.outdir, d / "synth_repeat", ("synth_counts.csv",))))
    return requests


_BUILDERS = {
    "stationary_sweeps": stationary_sweeps,
    "driven_dynamics": driven_dynamics,
    "photon_stats": photon_stats,
}
NAMES = tuple(_BUILDERS)


def make_pass(workload: str, seed: int, index: int, workdir: Path, smoke: bool) -> list:
    """The requests of pass ``index``; inputs depend only on (workload, seed, index)."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    return _BUILDERS[workload](rng, workdir, smoke)
