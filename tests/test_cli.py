import base64
import csv
import math
import re
import struct
import xml.etree.ElementTree as ET
import zlib
from pathlib import Path

import numpy as np
import pytest

from emitterlab import cli, csvio, fitkit, qdyn, svgplot
from emitterlab.errors import ModelError, NumericFailure
from emitterlab.qdyn import TimeGrid, TimeTrace


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _svg_image(svg: str) -> dict:
    """Attributes of the one ``<image>`` element of an SVG document."""
    images = ET.fromstring(svg).findall("{http://www.w3.org/2000/svg}image")
    assert len(images) == 1
    return images[0].attrib


def _png_pixels(href: str) -> np.ndarray:
    """Decode an 8-bit RGB PNG data URI into an (h, w, 3) array, checking every chunk."""
    prefix = "data:image/png;base64,"
    assert href.startswith(prefix)
    png = base64.b64decode(href[len(prefix):])
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(png):
        (length,) = struct.unpack(">I", png[pos:pos + 4])
        kind, data = png[pos + 4:pos + 8], png[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", png[pos + 8 + length:pos + 12 + length])
        assert crc == zlib.crc32(kind + data)
        chunks.append((kind, data))
        pos += 12 + length
    assert [kind for kind, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
    width, height, depth, colour, *_ = struct.unpack(">IIBBBBB", chunks[0][1])
    assert (depth, colour) == (8, 2)
    rows = np.frombuffer(zlib.decompress(chunks[1][1]), np.uint8).reshape(height, -1)
    assert np.all(rows[:, 0] == 0)  # filter type none on every scanline
    return rows[:, 1:].reshape(height, width, 3)


class TestConfigParsing:
    def test_key_values_and_comments(self):
        raw = cli.parse_config_text(
            "# comment\nexperiment = g2\nrabi_ghz = 0.9  # inline\n\n"
        )
        assert raw == {"experiment": "g2", "rabi_ghz": "0.9"}

    def test_unknown_key_named(self):
        with pytest.raises(cli.ConfigError, match="t3_ns"):
            cli.validate_config("rabi_analytic", {"t3_ns": "1.0"})

    def test_unparseable_value_named(self):
        with pytest.raises(cli.ConfigError, match="n_points"):
            cli.validate_config("g2", {"n_points": "many"})

    def test_module_preconditions_checked_up_front(self):
        with pytest.raises(cli.ConfigError, match="t2_ns"):
            cli.validate_config("g2", {"t2_ns": "9.0"})
        with pytest.raises(cli.ConfigError, match="pulse_ns"):
            cli.validate_config("rabi_trace", {"pulse_ns": "20.0"})

    @pytest.mark.parametrize("experiment,key", [
        (name, key)
        for name, entry in cli.EXPERIMENTS.items()
        for key, spec in entry.schema.items()
        if spec.type is float
    ])
    def test_non_finite_float_exits_2(self, tmp_path, capsys, experiment, key):
        for value in ("nan", "inf", "-inf"):
            code = cli.run(experiment=experiment, outdir=tmp_path / "out",
                           overrides={key: value})
            err = capsys.readouterr().err
            assert code == 2
            assert f"'{key}'" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("experiment,key,value", [
        pytest.param(experiment, key, value, id=f"{experiment}-{key}")
        for experiment, key, value in [
            ("mollow_spectrum", "n_freqs", 1),
            ("lineshape", "n_points", 1),
            ("ramsey", "n_phases", 3),
            ("autler_scan", "pump_power_nw", -5),
            ("autler_map", "probe_power_nw", -5),
            ("pulsed_rabi", "n_powers", 4),
            ("ramsey", "n_taus", 3),
            ("detuning_map", "n_detunings", 0),
            ("autler_map", "n_c", 0),
            ("autler_map", "n_d", -1),
            ("autler_scan", "n_points", 0),
            ("lifetime", "n_points", 3),
        ]
    ])
    def test_size_minimum_exits_2_before_compute(self, tmp_path, capsys,
                                                 experiment, key, value):
        assert cli.run(experiment=experiment, outdir=tmp_path / "out",
                       overrides={key: value}) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", [
        name for name in cli.EXPERIMENTS if name not in ("fit", "synth")
    ])
    def test_config_error_names_the_overridden_key(self, experiment):
        # single-key overrides through validation alone: a rejected value is
        # reported against its own key, also when a cross-key constraint fails
        values = {float: ("0", "-1", "1e-300", "1e300", "1e-9", "1e9"),
                  int: ("0", "1", "2", "3")}
        misnamed = []
        for key, spec in cli.EXPERIMENTS[experiment].schema.items():
            for value in values.get(spec.type, ()):
                try:
                    cli.validate_config(experiment, {key: value})
                except cli.ConfigError as exc:
                    if f"'{key}'" not in str(exc):
                        misnamed.append(f"{key}={value}: {exc}")
        assert misnamed == []

    @pytest.mark.parametrize("experiment,key,value,keys", [
        ("ramsey", "tau_max_ns", 0, ("tau_max_ns", "n_taus")),
        ("ramsey", "tau_max_ns", -1, ("tau_max_ns", "n_taus")),
        ("mollow_spectrum", "f_min_ghz", 1e9, ("f_min_ghz", "f_max_ghz")),
        ("autler_scan", "delta_min_ghz", 1e9, ("delta_min_ghz", "delta_max_ghz")),
        ("autler_map", "delta_c_min_ghz", 1e9, ("delta_c_min_ghz", "delta_c_max_ghz")),
        ("lineshape", "span_ghz", -1, ("span_ghz",)),
    ])
    def test_empty_or_reversed_range_exits_2(self, tmp_path, capsys,
                                            experiment, key, value, keys):
        assert cli.run(experiment=experiment, outdir=tmp_path / "out",
                       overrides={key: value}) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config key")
        assert all(f"'{name}'" in err for name in keys)
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_cross_key_constraint_names_every_key(self):
        with pytest.raises(cli.ConfigError) as exc:
            cli.validate_config("g2", {"t1_ns": "0.5"})
        assert exc.value.keys == ("t1_ns", "t2_ns")
        assert str(exc.value).startswith("config keys 't1_ns', 't2_ns': ")

    def test_non_positive_t1_names_t1(self, tmp_path, capsys):
        assert cli.run(experiment="g2", outdir=tmp_path / "out",
                       overrides={"t1_ns": 0}) == 2
        assert "'t1_ns'" in capsys.readouterr().err

    @pytest.mark.parametrize("t1", [0, -1])
    def test_fit_non_positive_t1_names_t1(self, tmp_path, capsys, t1):
        assert cli.run(experiment="lifetime", outdir=tmp_path / "life") == 0
        capsys.readouterr()
        code = cli.run(experiment="fit", outdir=tmp_path / "out", overrides={
            "input": str(tmp_path / "life" / "lifetime.csv"),
            "fit_model": "rabi",
            "t1_ns": t1,
        })
        err = capsys.readouterr().err
        assert code == 2
        assert "'t1_ns'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "fit_report.csv").exists()

    def test_defaults_follow_headline_values(self):
        cfg = cli.validate_config("g2", {})
        assert cfg["t1_ns"] == 1.85
        assert cfg["t2_ns"] == 1.62
        cfg = cli.validate_config("autler_scan", {})
        assert cfg["p_sat_nw"] == 20.0

    def test_hash_tracks_physical_keys(self):
        a = cli.config_hash("g2", cli.validate_config("g2", {}))
        b = cli.config_hash("g2", cli.validate_config("g2", {"rabi_ghz": "1.1"}))
        assert a != b
        assert a == cli.config_hash("g2", cli.validate_config("g2", {}))


class TestRun:
    def test_rabi_analytic_with_default_values(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "experiment = rabi_analytic\nt1_ns = 1.85\nt2_ns = 1.62\n"
            "rabi_ghz = 0.906\nn_points = 201\n",
        )
        code = cli.run(config_path=cfg, outdir=tmp_path / "out")
        assert code == 0
        meta, header, data = csvio.read_csv(tmp_path / "out" / "rabi_analytic.csv")
        assert header == ["tau_ns", "population"]
        assert data[0, 1] == 0.0  # P(0) = 0
        assert "config_hash" in meta

    @pytest.mark.parametrize("experiment", ["rabi_analytic", "fit"])
    def test_mu_mode_key_exits_2(self, tmp_path, capsys, experiment):
        # the damped-Rabi sign is fixed, so no config may choose it
        cfg = write_cfg(tmp_path, f"experiment = {experiment}\nmu_mode = minus\n")
        assert cli.run(config_path=cfg, outdir=tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "'mu_mode'" in err and "unknown key" in err
        assert not (tmp_path / "out").exists()

    def test_closed_form_and_rabi_fit_solve_no_lindblad_model(self, monkeypatch):
        def engine(*args, **kwargs):
            raise AssertionError("the Lindblad engine ran")

        monkeypatch.setattr(qdyn, "regression_correlator", engine)
        monkeypatch.setattr(qdyn, "steady_states", engine)
        result = cli.EXPERIMENTS["rabi_analytic"].compute(
            cli.validate_config("rabi_analytic", {}))
        trace = TimeTrace(TimeGrid(0.0, 10.0, 501), 1e4 * result.data["population"])
        fit = fitkit.fit_rabi(trace, t1_fixed=1.85)
        assert fit.converged
        assert fit["omega_ghz"] == pytest.approx(0.906, rel=1e-6)

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment = rabi_analytic\nt3_ns = 1.0\n")
        assert cli.run(config_path=cfg, outdir=tmp_path / "out") == 2
        assert "t3_ns" in capsys.readouterr().err

    def test_missing_experiment_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "t1_ns = 1.85\n")
        assert cli.run(config_path=cfg, outdir=tmp_path / "out") == 2

    def test_subcommand_config_mismatch_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "experiment = g2\n")
        assert cli.run(config_path=cfg, experiment="lifetime",
                       outdir=tmp_path / "out") == 2

    def test_computation_failure_exits_3(self, tmp_path):
        # lorentzian fit on data that does not bracket its half maximum
        x = np.linspace(-0.05, 0.05, 41)
        y = 1.0 / (1.0 + (x / 0.25) ** 2)
        data_path = tmp_path / "narrow.csv"
        csvio.write_csv(data_path, ["x", "y"], zip(x, y), {})
        cfg = write_cfg(
            tmp_path, f"experiment = fit\ninput = {data_path}\nfit_model = lorentzian\n"
        )
        assert cli.run(config_path=cfg, outdir=tmp_path / "out") == 3

    def test_autler_map_long_form(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "experiment = autler_map\nn_c = 5\nn_d = 7\n"
            "delta_c_min_ghz = -0.5\ndelta_c_max_ghz = 0.5\n"
            "delta_d_min_ghz = -0.5\ndelta_d_max_ghz = 0.5\n",
        )
        assert cli.run(config_path=cfg, outdir=tmp_path / "out") == 0
        _, header, data = csvio.read_csv(tmp_path / "out" / "autler_map.csv")
        assert header == ["delta_c_ghz", "delta_d_ghz", "fluorescence"]
        assert data.shape == (35, 3)
        # rows ordered ascending, row-major
        assert np.all(np.diff(np.unique(data[:, 0])) > 0)

    def test_plot_writes_svg(self, tmp_path):
        cfg = write_cfg(tmp_path, "experiment = lifetime\nn_points = 51\n")
        assert cli.run(config_path=cfg, outdir=tmp_path / "out", plot=True) == 0
        svg = (tmp_path / "out" / "lifetime.svg").read_text()
        assert svg.startswith("<!-- config_hash=")
        assert "<svg" in svg

    def test_synth_roundtrip_through_files(self, tmp_path):
        model_cfg = write_cfg(
            tmp_path, "experiment = rabi_analytic\nn_points = 301\n", "model.cfg"
        )
        assert cli.run(config_path=model_cfg, outdir=tmp_path / "m") == 0
        synth_cfg = write_cfg(
            tmp_path,
            f"experiment = synth\ninput = {tmp_path / 'm' / 'rabi_analytic.csv'}\n"
            "seed = 9\nscale = 5000\n",
            "synth.cfg",
        )
        assert cli.run(config_path=synth_cfg, outdir=tmp_path / "s") == 0
        fit_cfg = write_cfg(
            tmp_path,
            f"experiment = fit\ninput = {tmp_path / 's' / 'synth_counts.csv'}\n"
            "fit_model = rabi\nt1_ns = 1.85\n",
            "fit.cfg",
        )
        assert cli.run(config_path=fit_cfg, outdir=tmp_path / "f") == 0
        values = _report_values(tmp_path / "f" / "fit_report.csv")
        # omega recovered near the model default 0.906
        assert abs(values["omega_ghz"] - 0.906) / 0.906 < 0.02

    def test_seed_override(self, tmp_path):
        model_cfg = write_cfg(
            tmp_path, "experiment = rabi_analytic\nn_points = 101\n", "m.cfg"
        )
        cli.run(config_path=model_cfg, outdir=tmp_path / "m")
        synth_cfg = write_cfg(
            tmp_path,
            f"experiment = synth\ninput = {tmp_path / 'm' / 'rabi_analytic.csv'}\n",
            "s.cfg",
        )
        cli.run(config_path=synth_cfg, outdir=tmp_path / "s1", seed=100)
        cli.run(config_path=synth_cfg, outdir=tmp_path / "s2", seed=101)
        a = (tmp_path / "s1" / "synth_counts.csv").read_bytes()
        b = (tmp_path / "s2" / "synth_counts.csv").read_bytes()
        assert a != b


def _report_values(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    assert rows[0] == ["parameter", "value", "stderr"]
    return {r[0]: float(r[1]) for r in rows[1:]}


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "experiment = g2\nn_points = 201\ntau_max_ns = 6\n"
        )
        cli.run(config_path=cfg, outdir=tmp_path / "a")
        cli.run(config_path=cfg, outdir=tmp_path / "b")
        assert (tmp_path / "a" / "g2.csv").read_bytes() == (
            tmp_path / "b" / "g2.csv"
        ).read_bytes()

    def test_synth_with_seed_byte_identical(self, tmp_path):
        model_cfg = write_cfg(
            tmp_path, "experiment = rabi_analytic\nn_points = 101\n", "m.cfg"
        )
        cli.run(config_path=model_cfg, outdir=tmp_path / "m")
        synth_cfg = write_cfg(
            tmp_path,
            f"experiment = synth\ninput = {tmp_path / 'm' / 'rabi_analytic.csv'}\n"
            "seed = 4\n",
            "s.cfg",
        )
        cli.run(config_path=synth_cfg, outdir=tmp_path / "a")
        cli.run(config_path=synth_cfg, outdir=tmp_path / "b")
        assert (tmp_path / "a" / "synth_counts.csv").read_bytes() == (
            tmp_path / "b" / "synth_counts.csv"
        ).read_bytes()

    # cheap overrides per experiment; fit and synth read rabi_analytic output
    CHEAP = {
        "rabi_analytic": {"n_points": 101},
        "rabi_trace": {"n_points": 301},
        "detuning_map": {"n_detunings": 2},
        "g2": {"n_points": 101, "tau_max_ns": 5},
        "mollow_spectrum": {"t1_ns": 0.5, "t2_ns": 0.5, "n_freqs": 101},
        "lineshape": {"n_points": 41},
        "autler_scan": {"n_points": 61},
        "autler_map": {"n_c": 5, "n_d": 5},
        "pulsed_rabi": {"n_powers": 20},
        "ramsey": {"n_taus": 4},
        "lifetime": {"n_points": 51},
        "fit": {"fit_model": "rabi"},
        "synth": {"seed": 4},
    }

    @pytest.mark.parametrize("experiment", list(cli.EXPERIMENTS))
    def test_every_experiment_byte_identical(self, tmp_path, experiment):
        overrides = dict(self.CHEAP[experiment])
        if "input" in cli.EXPERIMENTS[experiment].schema:
            assert cli.run(experiment="rabi_analytic", outdir=tmp_path / "m",
                           overrides={"n_points": 101}) == 0
            overrides["input"] = tmp_path / "m" / "rabi_analytic.csv"
        for run in ("a", "b"):
            assert cli.run(experiment=experiment, outdir=tmp_path / run,
                           plot=True, overrides=overrides) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        if experiment != "fit":
            assert any(name.endswith(".svg") for name in names)
        if experiment in ("fit", "lineshape", "pulsed_rabi", "ramsey", "lifetime"):
            assert any(name.endswith("_fit.csv") or name == "fit_report.csv"
                       for name in names)
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name


class TestMain:
    def test_validate_subcommand(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment = g2\n")
        assert cli.main(["validate", "--config", str(cfg)]) == 0
        bad = write_cfg(tmp_path, "experiment = g2\nbogus = 1\n", "bad.cfg")
        assert cli.main(["validate", "--config", str(bad)]) == 2

    def test_experiment_subcommand(self, tmp_path):
        assert cli.main([
            "lifetime", "--out", str(tmp_path / "out")
        ]) == 0
        assert (tmp_path / "out" / "lifetime.csv").exists()

    def test_threads_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["autler-map", "--threads", "2", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_run_subcommand_uses_config_experiment(self, tmp_path):
        cfg = write_cfg(tmp_path, "experiment = lifetime\nn_points = 51\n")
        assert cli.main([
            "run", "--config", str(cfg), "--out", str(tmp_path / "out")
        ]) == 0


class TestFitThroughFiles:
    def test_linear_sqrtp_model(self, tmp_path):
        powers = np.linspace(5.0, 500.0, 10)
        omegas = 0.0146 * np.sqrt(powers)
        data_path = tmp_path / "cal.csv"
        csvio.write_csv(data_path, ["power_nw", "omega_ghz"],
                        zip(powers, omegas), {})
        cfg = write_cfg(
            tmp_path,
            f"experiment = fit\ninput = {data_path}\nfit_model = linear_sqrtp\n",
        )
        assert cli.run(config_path=cfg, outdir=tmp_path / "out") == 0
        values = _report_values(tmp_path / "out" / "fit_report.csv")
        assert abs(values["slope"] - 0.0146) < 1e-10
        assert abs(values["intercept"]) < 1e-10

    def test_sine_sqrtp_model(self, tmp_path):
        x = np.linspace(0.0, 3.0, 60)
        y = fitkit.sine_sqrtp_model(x, 1.8, 1.1, 0.2, 0.05)
        data_path = tmp_path / "scan.csv"
        csvio.write_csv(data_path, ["sqrt_power", "counts"], zip(x, y), {})
        cfg = write_cfg(
            tmp_path,
            f"experiment = fit\ninput = {data_path}\nfit_model = sine_sqrtp\n",
        )
        assert cli.run(config_path=cfg, outdir=tmp_path / "out") == 0
        values = _report_values(tmp_path / "out" / "fit_report.csv")
        assert abs(values["period"] - 1.1) < 1e-6

    @pytest.mark.parametrize("model, y", [
        ("lorentzian", lambda x: 1e200 * fitkit.lorentzian_model(x, 5.3, 1.2, 1.0, 0.1)),
        ("exp_decay", lambda x: 1e300 * fitkit.exp_decay_model(x, 1.0, 2.0, 0.1)),
        ("linear_sqrtp", lambda x: 1e300 * 0.0146 * np.sqrt(x)),
    ])
    def test_overflowing_data_exits_3(self, tmp_path, capsys, model, y):
        # finite data whose sums of squares pass the float64 maximum
        x = np.linspace(0.0, 10.0, 101)
        data_path = tmp_path / "huge.csv"
        csvio.write_csv(data_path, ["x", "y"], zip(x, y(x)), {})
        cfg = write_cfg(
            tmp_path, f"experiment = fit\ninput = {data_path}\nfit_model = {model}\n"
        )
        assert cli.run(config_path=cfg, outdir=tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: NumericFailure: fit overflows float64")
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "fit_report.csv").exists()

    def test_malformed_input_exits_3(self, tmp_path, capsys):
        # a non-numeric row, a row longer than the header and a nan, inf or
        # -inf cell, read by every fit model and by synth
        texts = ("x,y\n1.0,2.0\noops,4.0\n", "x,y\n1,2\n3,4,5\n",
                 "x,y\n1.0,2.0\n3.0,nan\n", "x,y\n1.0,2.0\ninf,4.0\n",
                 "x,y\n1.0,2.0\n3.0,-inf\n")
        readers = [f"experiment = fit\nfit_model = {model}\n"
                   for model in cli.EXPERIMENTS["fit"].schema["fit_model"].choices]
        readers.append("experiment = synth\n")
        for k, text in enumerate(texts):
            data_path = tmp_path / "junk.csv"
            data_path.write_text(text)
            for reader in readers:
                cfg = write_cfg(tmp_path, f"{reader}input = {data_path}\n")
                assert cli.run(config_path=cfg, outdir=tmp_path / "out") == 3
                err = capsys.readouterr().err
                assert err.startswith(f"error: ModelError: {data_path}:3: ")
                assert err.count("\n") == 1
                if k >= 2:
                    assert "non-finite value" in err
                assert "Traceback" not in err and "Warning" not in err


def _irf_counts_file(tmp_path, rabi_ghz, sigma, seed):
    """``g2`` then ``synth`` through an IRF of width ``sigma``; the counts file."""
    g2 = write_cfg(tmp_path, f"experiment = g2\nrabi_ghz = {rabi_ghz!r}\n", "g2.cfg")
    assert cli.run(config_path=g2, outdir=tmp_path / "g2") == 0
    synth = write_cfg(tmp_path, f"experiment = synth\ninput = {tmp_path / 'g2' / 'g2.csv'}"
                                f"\nseed = {seed}\nirf_sigma_ns = {sigma!r}\n", "synth.cfg")
    assert cli.run(config_path=synth, outdir=tmp_path / "synth") == 0
    return tmp_path / "synth" / "synth_counts.csv"


class TestRabiFitThroughIrf:
    def _fit(self, tmp_path, data_path, extra=""):
        cfg = write_cfg(tmp_path, f"experiment = fit\ninput = {data_path}\n"
                                  f"fit_model = rabi\n{extra}", "fit.cfg")
        return cli.run(config_path=cfg, outdir=tmp_path / "fit")

    def test_sigma_read_from_the_input(self, tmp_path, capsys):
        data_path = _irf_counts_file(tmp_path, 1.4753, 0.1, 7)
        assert self._fit(tmp_path, data_path) == 0
        assert "(converged=True)" in capsys.readouterr().out
        report = (tmp_path / "fit" / "fit_report.csv").read_text()
        assert "\n# fit_irf_sigma_ns=0.1\n" in report
        values = _report_values(tmp_path / "fit" / "fit_report.csv")
        assert abs(values["omega_ghz"] - 1.4753) <= 0.02 * 1.4753

    def _with_sigma_line(self, tmp_path, data_path, text):
        """A copy of ``data_path`` whose ``# irf_sigma_ns=`` line reads ``text``."""
        lines = data_path.read_text().splitlines(True)
        copy = tmp_path / "edited.csv"
        copy.write_text("".join(f"# irf_sigma_ns={text}\n" if line.startswith("# irf_sigma_ns=")
                                else line for line in lines))
        return copy

    def test_malformed_sigma_line_fails_only_the_rabi_fit(self, tmp_path, capsys):
        data_path = self._with_sigma_line(tmp_path, _irf_counts_file(tmp_path, 1.4753, 0.1, 7),
                                          "wide")
        capsys.readouterr()
        assert self._fit(tmp_path, data_path) == 3
        assert "irf_sigma_ns line 'wide' is not a number" in capsys.readouterr().err
        cfg = write_cfg(tmp_path, f"experiment = fit\ninput = {data_path}\n"
                                  "fit_model = exp_decay\n", "decay.cfg")
        assert cli.run(config_path=cfg, outdir=tmp_path / "decay") == 0

    def test_huge_sigma_line_exits_3_before_building_the_kernel(self, tmp_path, capsys):
        # 1e9 ns at 0.02 ns bins would be a kernel of 5e11 samples
        data_path = self._with_sigma_line(tmp_path, _irf_counts_file(tmp_path, 1.4753, 0.1, 7),
                                          "1e9")
        capsys.readouterr()
        assert self._fit(tmp_path, data_path) == 3
        err = capsys.readouterr().err
        assert err == ("error: ModelError: irf sigma 1000000000.0 ns: its 500000000001-sample "
                       "kernel does not fit in the 1051 data points\n")

    def test_broadened_input_fitted_without_its_irf_exits_3_quietly(self, tmp_path, capsys):
        # an Omega/2pi = 1.688 GHz g2 through a 0.15 ns IRF, its sigma line
        # deleted: trial steps overflow exp in the log reparameterization
        data_path = _irf_counts_file(tmp_path, 1.6880158234919074, 0.15, 823501810)
        stripped = tmp_path / "stripped.csv"
        stripped.write_text("".join(line for line in data_path.read_text().splitlines(True)
                                    if not line.startswith("# irf_sigma_ns=")))
        capsys.readouterr()
        assert self._fit(tmp_path, stripped) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: NumericFailure: ")
        assert err.count("\n") == 1
        assert "Warning" not in err and "Traceback" not in err

    def _broadened_g2(self, tmp_path):
        cfg = write_cfg(tmp_path, "experiment = g2\nrabi_ghz = 1.4753\nirf_sigma_ns = 0.1\n",
                        "g2.cfg")
        assert cli.run(config_path=cfg, outdir=tmp_path / "g2") == 0
        return tmp_path / "g2" / "g2.csv"

    def test_synth_refuses_an_already_broadened_input(self, tmp_path, capsys):
        # a second IRF on top of the first would be recorded as the only one
        g2 = self._broadened_g2(tmp_path)
        cfg = write_cfg(tmp_path, f"experiment = synth\ninput = {g2}\nirf_sigma_ns = 0.2\n",
                        "synth.cfg")
        capsys.readouterr()
        assert cli.run(config_path=cfg, outdir=tmp_path / "synth") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: ModelError: input {g2}: its '# irf_sigma_ns=0.1' line ")
        assert err.count("\n") == 1
        assert not (tmp_path / "synth" / "synth_counts.csv").exists()

    def test_synth_without_irf_carries_the_input_irf(self, tmp_path, capsys):
        g2 = self._broadened_g2(tmp_path)
        cfg = write_cfg(tmp_path, f"experiment = synth\ninput = {g2}\nseed = 7\n", "synth.cfg")
        assert cli.run(config_path=cfg, outdir=tmp_path / "synth") == 0
        counts = tmp_path / "synth" / "synth_counts.csv"
        assert "\n# irf_sigma_ns=0.1\n" in counts.read_text()
        capsys.readouterr()
        assert self._fit(tmp_path, counts) == 0
        assert "(converged=True)" in capsys.readouterr().out
        values = _report_values(tmp_path / "fit" / "fit_report.csv")
        assert abs(values["omega_ghz"] - 1.4753) <= 0.02 * 1.4753


class TestErrorPaths:
    def test_irf_wider_than_the_trace_exits_3_at_once(self, tmp_path, capsys):
        # rejected before the 5e11-sample kernel of 1e9 ns at 0.02 ns bins is built
        assert cli.run(experiment="g2", outdir=tmp_path / "out",
                       overrides={"irf_sigma_ns": 1e9}) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ModelError: irf sigma 1000000000.0 exceeds a quarter "
                              "of the trace span")
        assert err.count("\n") == 1

    def test_missing_config_file_exits_2(self, tmp_path):
        assert cli.run(config_path=tmp_path / "nope.cfg",
                       outdir=tmp_path / "out") == 2

    def test_ramped_square_pulse_runs(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "experiment = rabi_trace\nrise_ns = 0.01\nn_points = 301\n",
        )
        assert cli.run(config_path=cfg, outdir=tmp_path / "out") == 0

    @pytest.mark.parametrize("experiment,key,value", [
        ("pulsed_rabi", "p_max_nw", 1e308),
        ("rabi_trace", "rabi_ghz", 1e200),
    ])
    def test_step_count_overflow_exits_3(self, tmp_path, capsys, experiment, key, value):
        # only shaped pulses (gaussian, ramped square edges) take RK4 steps
        shaped = {"pulsed_rabi": {"pulse_shape": "gaussian"}, "rabi_trace": {"rise_ns": 0.01}}
        assert cli.run(experiment=experiment, outdir=tmp_path / "out",
                       overrides={key: value, **shaped[experiment]}) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: NumericFailure: internal step count")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("experiment,key,value", [
        ("pulsed_rabi", "p_max_nw", 1e308),
        ("rabi_trace", "rabi_ghz", 1e200),
        # spans whose sample times overflowed when rounded to 15 decimals
        ("lifetime", "t_max_ns", 1e300),
        ("g2", "tau_max_ns", 1e300),
        ("ramsey", "tau_max_ns", 1e300),
    ])
    def test_overlong_constant_piece_exits_3(self, tmp_path, capsys, experiment, key, value):
        assert cli.run(experiment=experiment, outdir=tmp_path / "out",
                       overrides={key: value}) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: NumericFailure: piece map exp(h L) with |h L|_1 = ")
        assert err.endswith(" needs more than 25 squarings\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("experiment", ["rabi_trace", "detuning_map", "g2", "ramsey"])
    @pytest.mark.parametrize("key", ["t1_ns", "t2_ns"])
    @pytest.mark.parametrize("value", [1e-300, 1e-12, 1e12, 1e300])
    def test_extreme_rates_exit_cleanly(self, tmp_path, capsys, experiment, key, value):
        cfg = write_cfg(tmp_path, f"experiment = {experiment}\n{key} = {value}\n")
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (0, 2, 3)
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize("key", ["scale", "background_rate"])
    def test_synth_count_overflow_exits_3(self, tmp_path, capsys, key):
        # a bin mean of 1e20 counts is above 2**53, where a float no longer
        # holds every integer count
        data_path = tmp_path / "model.csv"
        csvio.write_csv(data_path, ["t_ns", "g2"],
                        zip(np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11)), {})
        cfg = write_cfg(tmp_path, f"experiment = synth\ninput = {data_path}\n{key} = 1e20\n")
        assert cli.run(config_path=cfg, outdir=tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: NumericFailure: count mean 1.000e+20 exceeds 2**53")
        assert err.count("\n") == 1
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize("experiment,key", [
        (name, key) for name, exp in cli.EXPERIMENTS.items()
        for key in exp.schema if key.startswith("n_")
    ])
    @pytest.mark.parametrize("value", [-1, 0, 1])
    def test_degenerate_sizes_with_plot(self, tmp_path, capsys, experiment, key, value):
        cfg = write_cfg(tmp_path, f"experiment = {experiment}\n{key} = {value}\n")
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                         "--plot"])
        err = capsys.readouterr().err
        assert code in (0, 2, 3)
        assert "Traceback" not in err
        if code == 2:
            assert f"'{key}'" in err

    @pytest.mark.parametrize("key", ["n_c", "n_d"])
    def test_single_row_or_column_heatmap_has_no_empty_cell(self, tmp_path, key):
        cfg = write_cfg(tmp_path, f"experiment = autler_map\n{key} = 1\n")
        assert cli.run(config_path=cfg, outdir=tmp_path / "out", plot=True) == 0
        image = _svg_image((tmp_path / "out" / "autler_map.svg").read_text())
        height, width, _ = _png_pixels(image["href"]).shape
        assert (width, height) == ((61, 1) if key == "n_c" else (1, 61))
        assert float(image["width"]) > 0 and float(image["height"]) > 0

    @pytest.mark.parametrize("experiment,key,value", [
        ("rabi_analytic", "t2_ns", 1e-300),
        ("rabi_analytic", "rabi_ghz", 1e300),
        ("rabi_analytic", "detuning_ghz", 1e300),
        ("pulsed_rabi", "pulse_ns", 1e-300),
    ])
    def test_arithmetic_overflow_exits_3(self, tmp_path, capsys, experiment, key, value):
        assert cli.run(experiment=experiment, outdir=tmp_path / "out",
                       overrides={key: value}) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: OverflowError: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_steady_state_residual_exits_3(self, tmp_path, capsys, monkeypatch):
        # a solve whose states are off by 1e-16 per Bloch coordinate, which
        # the residual at Omega/2pi = 1e7 GHz resolves
        solve = np.linalg.solve

        def perturbed(a, b):
            x = solve(a, b)
            x[..., 1:, 0] += 1e-16
            return x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        cfg = write_cfg(tmp_path, "experiment = lineshape\nrabi_ghz = 1e7\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: NumericFailure: steady-state residual ")
        assert err.endswith(" above 1e-10\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("experiment,key,value", [
        ("rabi_analytic", "t2_ns", 1e-9),
        ("g2", "irf_sigma_ns", 1e-300),
    ])
    def test_extreme_value_exits_0_with_finite_output(self, tmp_path, capsys,
                                                      experiment, key, value):
        assert cli.run(experiment=experiment, outdir=tmp_path / "out",
                       overrides={key: value}) == 0
        assert capsys.readouterr().err == ""
        # read_csv rejects a non-finite cell
        _, _, data = csvio.read_csv(tmp_path / "out" / f"{experiment}.csv")
        assert data.shape[0] >= 501

    @pytest.mark.parametrize("experiment,key,value,message", [
        ("ramsey", "tau_max_ns", 1e-300, "constant data: nothing decays"),
        ("lifetime", "t_max_ns", 1e-6, "max iterations (500) reached"),
        ("pulsed_rabi", "p_max_nw", 1e-300, "zero-amplitude data"),
    ])
    def test_unconverged_fit_summary_prints_the_message(self, tmp_path, capsys,
                                                        experiment, key, value, message):
        assert cli.run(experiment=experiment, outdir=tmp_path / "out",
                       overrides={key: value}) == 0
        assert f"fit not converged ({message})" in capsys.readouterr().out

    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 1.00 TiB")

        experiment = cli.EXPERIMENTS["mollow_spectrum"]
        monkeypatch.setitem(cli.EXPERIMENTS, "mollow_spectrum",
                            type(experiment)(experiment.schema, exhausted))
        assert cli.run(experiment="mollow_spectrum", outdir=tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory")
        assert err.count("\n") == 1

    def test_outdir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "envout"))
        assert cli.run(experiment="lifetime") == 0
        assert (tmp_path / "envout" / "lifetime.csv").exists()


class TestScanEngineCalls:
    """A driven scan is one verified propagation, not one per point."""

    @pytest.mark.parametrize("experiment,overrides,expected", [
        ("pulsed_rabi", {}, 1),
        ("detuning_map", {}, 1),
        # one propagator for both pulses, one scaled-generator batch for
        # every delay
        ("ramsey", {"scan": "fringe"}, 2),
        ("ramsey", {}, 2),
    ])
    def test_verified_propagations_per_run(self, monkeypatch, experiment, overrides,
                                           expected):
        from emitterlab import qdyn
        from emitterlab.experiments import validate_config

        calls = []
        original = qdyn._verified_propagation

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(qdyn, "_verified_propagation", counted)
        cfg = validate_config(experiment, {k: str(v) for k, v in overrides.items()})
        cli.EXPERIMENTS[experiment].compute(cfg)
        assert len(calls) == expected

    @pytest.mark.parametrize("experiment", [
        "autler_map", "autler_scan", "lineshape", "g2", "mollow_spectrum",
    ])
    def test_stationary_computes_certify_without_svd(self, monkeypatch, experiment):
        # the solve's own inverse certifies every default point unique, so no
        # point reaches the singular value decomposition
        points, svd = [], np.linalg.svd

        def counted(a, *args, **kwargs):
            points.append(math.prod(np.shape(a)[:-2]))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        cli.EXPERIMENTS[experiment].compute(cli.validate_config(experiment, {}))
        assert sum(points) == 0


class TestReproduceAll:
    def test_cookbook_passes_all_anchors(self, tmp_path, capsys):
        assert cli.reproduce_all(tmp_path / "repro") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "transform-limited linewidth 86 MHz" in out
        assert "damped-Rabi closed form vs Lindblad g2 (RMS)" in out
        assert "lambda system with gamma_d = Omega_D = 0 is the TLS" in out
        assert (tmp_path / "repro" / "summary.csv").exists()
        # every document it writes reads back as the row-by-row reader reads it,
        # and every row parses to the header's width with the csv module
        paths = sorted((tmp_path / "repro").rglob("*.csv"))
        assert len(paths) > 20
        for path in paths:
            _assert_same_read(path)
            _assert_header_width(path)
        # summary.csv quotes the labels that hold a comma
        rows = _assert_header_width(tmp_path / "repro" / "summary.csv")
        assert rows[0] == ["check", "value", "expected", "tolerance", "status"]
        assert len(rows) == 1 + len(cli.CHECKS)
        comma_labels = [r[0] for r in rows[1:] if "," in r[0]]
        assert [label.split(",")[0] for label in comma_labels] == (
            ["FFT component at sqrt(Omega^2+Delta^2)"] * 5
            + ["splitting linear in sqrt(pump power) (R^2=0.999999"])

    def _cookbook_head(self, monkeypatch, value):
        """CHECKS cut to the g2 closed-form, transform-limited and lifetime anchors,
        the lifetime one's value function replaced by ``value``."""
        label, steps, _, expected, tol = cli.CHECKS[2]
        assert steps == ("lifetime",)
        monkeypatch.setattr(cli, "CHECKS", [*cli.CHECKS[:2], (label, steps, value, expected, tol)])

    def test_raising_check_is_a_fail_row(self, tmp_path, capsys, monkeypatch):
        def broken(d):
            raise KeyError("tau_ns")

        self._cookbook_head(monkeypatch, broken)
        assert cli.reproduce_all(tmp_path / "repro") == 1
        out = capsys.readouterr().out
        assert "  FAIL  lifetime 1.85 ns: check failed (KeyError: 'tau_ns')" in out
        assert out.count("PASS") == 2
        summary = (tmp_path / "repro" / "summary.csv").read_text()
        assert "\n# n_checks=3\n# n_failed=1\n" in summary

    def test_failing_oracle_is_a_fail_row(self, tmp_path, capsys, monkeypatch):
        def no_oracle():
            raise NumericFailure("g2 correlator acquired an imaginary part")

        self._cookbook_head(monkeypatch, cli.CHECKS[2][2])
        monkeypatch.setattr(cli.tls, "closed_form_g2_rms", no_oracle)
        assert cli.reproduce_all(tmp_path / "repro") == 1
        out = capsys.readouterr().out
        assert ("  FAIL  damped-Rabi closed form vs Lindblad g2 (RMS): check failed "
                "(NumericFailure: g2 correlator acquired an imaginary part)") in out
        assert "\n# n_failed=1\n" in (tmp_path / "repro" / "summary.csv").read_text()


def _reference_read_csv(path):
    """The former reader: one ``float()`` per cell, row by row."""
    meta, header, data = {}, None, []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            raise ModelError(f"{path}:{lineno}: non-numeric row {line!r}")
        if not all(map(math.isfinite, row)):
            raise ModelError(f"{path}:{lineno}: non-finite value in row {line!r}")
        if len(row) != len(header):
            raise ModelError(
                f"{path}:{lineno}: row has {len(row)} columns, header has {len(header)}"
            )
        data.append(row)
    if header is None:
        raise ModelError(f"{path} contains no header row")
    return meta, header, np.array(data, dtype=float)


def _assert_same_read(path):
    """``csvio.read_csv`` returns or raises exactly what the former reader does."""
    try:
        expected = _reference_read_csv(path)
    except ModelError as exc:
        with pytest.raises(ModelError) as got:
            csvio.read_csv(path)
        assert str(got.value) == str(exc)
        return
    meta, header, data = csvio.read_csv(path)
    assert (meta, header) == expected[:2]
    assert data.dtype == expected[2].dtype and data.shape == expected[2].shape
    assert data.tobytes() == expected[2].tobytes()


class TestCsvRoundTrip:
    def test_seventeen_digit_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.random(50) * np.exp(rng.uniform(-20, 20, 50))
        path = tmp_path / "rt.csv"
        csvio.write_csv(path, ["x", "y"], zip(values, values), {"k": "v"})
        meta, header, data = csvio.read_csv(path)
        assert meta["k"] == "v"
        assert np.array_equal(data[:, 0], values)

    def test_extreme_values_round_trip_bit_exact(self, tmp_path):
        tiny = np.nextafter(0.0, 1.0)
        values = np.array([tiny, -tiny, 2.2250738585072009e-308, 0.0, -0.0,
                           1.7976931348623157e308, -1.7976931348623157e308,
                           0.1, 1 / 3, 2 / 3 * 1e-300, 123456789.12345678, -9.87654321e-7])
        path = tmp_path / "rt.csv"
        csvio.write_csv(path, ["a", "b", "c"], np.column_stack([values, values[::-1],
                                                               np.arange(values.size)]))
        _, header, data = csvio.read_csv(path)
        assert header == ["a", "b", "c"]
        assert data.shape == (values.size, 3)
        assert data[:, 0].tobytes() == values.tobytes()  # the sign of -0.0 too
        assert data[:, 1].tobytes() == values[::-1].tobytes()
        _assert_same_read(path)

    def test_comments_blank_lines_and_crlf_anywhere(self, tmp_path):
        path = tmp_path / "loose.csv"
        path.write_bytes(b"# a=1\r\n\r\n x , y \r\n# b = 2\r\n1,2\r\n\r\n  \r\n"
                         b"#c=3\r\n 3.5 , -0 \r\n# no key here\r\n1_0,4e-324\r\n")
        meta, header, data = csvio.read_csv(path)
        assert meta == {"a": "1", "b": "2", "c": "3"}
        assert header == ["x", "y"]
        assert data.tobytes() == np.array([[1.0, 2.0], [3.5, -0.0], [10.0, 5e-324]]).tobytes()
        _assert_same_read(path)

    @pytest.mark.parametrize("text,message", [
        ("x,y\n1,2\n\n# note\nabc,4\n", ":5: non-numeric row 'abc,4'"),
        ("x,y\n1,2\n3,\n", ":3: non-numeric row '3,'"),
        ("x,y\n1,2\n3,4,oops\n5,nan\n", ":3: non-numeric row '3,4,oops'"),
        ("x,y\n1,2\n# c\n3,nan\n", ":4: non-finite value in row '3,nan'"),
        ("x,y\n1,2\n3,1e400\n", ":3: non-finite value in row '3,1e400'"),
        ("x,y\n1,2\n3,4,5\n", ":3: row has 3 columns, header has 2"),
        # a long row and a short one hold a whole number of rows' cells
        ("x,y\n1,2,3\n4\n", ":2: row has 3 columns, header has 2"),
        ("x,y\n1,2\n3\n4,5,inf\n", ":3: row has 1 columns, header has 2"),
        ("x\n1\n2,3\n", ":3: row has 2 columns, header has 1"),
    ])
    def test_malformed_rows_named_as_before(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ModelError) as got:
            csvio.read_csv(path)
        assert str(got.value) == f"{path}{message}"
        _assert_same_read(path)

    @pytest.mark.parametrize("text", ["", "# only=meta\n\n", "x,y\n", "x,y\n# k=v\n\n"])
    def test_no_rows_read_as_before(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        _assert_same_read(path)


def _reference_heatmap_pixels(z) -> np.ndarray:
    """The per-cell colour map of the former one-rect-per-cell heatmap (row i of z)."""
    zlo, zhi = float(np.min(z)), float(np.max(z))
    span = zhi - zlo if zhi > zlo else 1.0
    out = np.zeros(z.shape + (3,), np.uint8)
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            v = (z[i, j] - zlo) / span
            r = int(255 * min(1.0, 3.0 * v))
            g = int(255 * min(1.0, max(0.0, 3.0 * v - 1.0)))
            b = int(255 * min(1.0, max(0.0, 3.0 * v - 2.0)))
            out[i, j] = (r, g, b)
    return out


class TestHeatmapRaster:
    @pytest.mark.parametrize("shape", [(7, 5), (1, 9), (9, 1), (1, 1), (3, 300)])
    def test_pixels_match_per_cell_colour_map(self, tmp_path, shape):
        z = np.random.default_rng(7).normal(size=shape)
        x = np.linspace(-1.0, 2.0, shape[1])
        y = np.linspace(0.5, 3.0, shape[0])
        svgplot.heatmap(tmp_path / "h.svg", x, y, z)
        pixels = _png_pixels(_svg_image((tmp_path / "h.svg").read_text())["href"])
        # PNG rows run top-down and y runs upward: the last row of z is on top
        assert np.array_equal(pixels, _reference_heatmap_pixels(z)[::-1])

    def test_rows_follow_y_upward(self, tmp_path):
        z = np.arange(4.0)[:, None] * np.ones(6)  # brightest at the largest y
        svgplot.heatmap(tmp_path / "h.svg", np.arange(6.0), np.arange(4.0), z)
        pixels = _png_pixels(_svg_image((tmp_path / "h.svg").read_text())["href"])
        assert np.all(pixels[0] == 255) and np.all(pixels[-1] == 0)

    def test_image_covers_the_cells(self, tmp_path):
        # the axes reach half a cell past the end cells' centres, so the
        # raster fills the plot frame exactly
        svgplot.heatmap(tmp_path / "h.svg", np.linspace(0.0, 1.0, 11),
                        np.linspace(0.0, 2.0, 5), np.zeros((5, 11)))
        image = _svg_image((tmp_path / "h.svg").read_text())
        pw = svgplot._W - svgplot._ML - svgplot._MR
        ph = svgplot._H - svgplot._MT - svgplot._MB
        assert float(image["x"]) == svgplot._ML
        assert float(image["width"]) == pw
        assert float(image["y"]) == svgplot._MT
        assert float(image["height"]) == ph
        assert image["preserveAspectRatio"] == "none"


class TestLinePlot:
    @pytest.mark.parametrize("x,y", [
        # non-uniform x; one point maps to sx = -0.004, which prints as -0.00
        ([0.0, 0.3, -0.12728, 0.31, 0.9, 1.0], [0.1, -2.0, 3.5, 0.0, 1e-9, 2.0]),
        (np.linspace(0.0, 15.0, 1501), np.sin(np.linspace(0.0, 15.0, 1501))),
        ([0.0, 1.0, 2.0], [0.25, 0.25, 0.25]),  # constant series
        ([0.0, math.nan, 2.0], [1.0, 2.0, 0.5]),  # the axes span x[0] to x[-1]
    ])
    def test_points_match_per_point_formula(self, tmp_path, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        svgplot.line_plot(tmp_path / "l.svg", x, y)
        points = re.search(r'<polyline points="([^"]*)"', (tmp_path / "l.svg").read_text())[1]
        ylo, yhi = float(np.min(y)), float(np.max(y))
        pad = 0.05 * (yhi - ylo)
        _, sx, sy = svgplot._axes(x[0], x[-1], ylo - pad, yhi + pad, "", "x", "y")
        assert points == " ".join(f"{sx(xi):.2f},{sy(yi):.2f}" for xi, yi in zip(x, y))


def _reference_format(x) -> str:
    """The former per-value formatter of the CSV writer."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _expanded(rows):
    """A ``csvio.LongForm`` as the (row, col, cell) array the former ``long_form``
    built with ``np.column_stack``; any other table as it is."""
    if not isinstance(rows, csvio.LongForm):
        return rows
    n, m = len(rows.row_axis), len(rows.col_axis)
    return np.column_stack([np.repeat(rows.row_axis, m), np.tile(rows.col_axis, n),
                            np.ravel(rows.matrix)])


def _assert_header_width(path):
    """Every non-``#`` row of ``path`` parses to the header's width with ``csv``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    assert rows, path
    assert {len(r) for r in rows} == {len(rows[0])}, path
    return rows


def _reference_csv(header, rows, meta) -> str:
    """The former writer: one formatter call per value."""
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines.append(",".join(header))
    lines.extend(",".join(_reference_format(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _reference_fit_report(fit, meta) -> str:
    """The former hand-built fit report writer."""
    meta = dict(meta)
    meta.update(converged=fit.converged, n_iter=fit.n_iter,
                chi2_reduced=_reference_format(fit.chi2_reduced),
                fit_message=fit.message)
    for key, value in fit.extra.items():
        meta[f"fit_{key}"] = value
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append("parameter,value,stderr")
    for name, value in fit.params.items():
        err = fit.stderr.get(name, math.nan)
        lines.append(f"{name},{_reference_format(value)},{_reference_format(err)}")
    return "\n".join(lines) + "\n"


class TestCsvWriter:
    """``write_csv`` writes the bytes of the former one-call-per-value writer."""

    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0, 1e16,
               1e17, 123456789012345678.0]

    def check(self, tmp_path, header, rows, meta=None):
        meta = {"k": "v", "n": 3} if meta is None else meta
        csvio.write_csv(tmp_path / "t.csv", header, rows, meta)
        written = (tmp_path / "t.csv").read_text(encoding="utf-8")
        assert written == _reference_csv(header, _expanded(rows), meta)

    def test_floats(self, tmp_path):
        rng = np.random.default_rng(11)
        values = rng.choice([-1.0, 1.0], 3000) * 10.0 ** rng.uniform(-320, 308, 3000)
        values = np.concatenate([self.SPECIAL, values[: 3000 - len(self.SPECIAL)]])
        table = values.reshape(-1, 3)
        self.check(tmp_path, ["a", "b", "c"], table)
        self.check(tmp_path, ["a", "b", "c"], [tuple(row) for row in table.tolist()])
        self.check(tmp_path, ["a", "b", "c"], list(zip(*table.T)))

    def test_integers(self, tmp_path):
        rows = [(i, np.int64(-i * 10**17), np.uint8(i), i == 2, 0.5 * i)
                for i in range(5)]
        self.check(tmp_path, ["int", "int64", "uint8", "bool", "float"], rows)
        self.check(tmp_path, ["a", "b", "c"], np.arange(12).reshape(4, 3) * 10**17)

    def test_string_columns(self, tmp_path):
        rows = [
            ("fitted T2 flat across drive powers (max deviation 0.0 ps)", math.nan,
             math.nan, math.nan, "PASS"),
            ("lifetime 1.85 ns", np.float64(1.8500000000000001), 1.85, 0.0185, "PASS"),
            ("Mollow sidebands at +/- Omega", 2.0000001, 2.0, 0.04, "FAIL"),
        ]
        self.check(tmp_path, ["check", "value", "expected", "tolerance", "status"],
                   rows, {"artifact_version": "0.1.0", "n_checks": 3})

    @pytest.mark.parametrize("rows", [[], np.empty((0, 3))], ids=["tuples", "array"])
    def test_empty_table(self, tmp_path, rows):
        self.check(tmp_path, ["a", "b", "c"], rows)
        assert (tmp_path / "t.csv").read_text().endswith("\na,b,c\n")

    def test_degenerate_detuning_map(self, tmp_path):
        cfg = cli.validate_config("detuning_map", {"n_detunings": "1", "n_points": "257",
                                                   "t_max_ns": "5", "pulse_ns": "4",
                                                   "period_ns": "5"})
        result = cli.EXPERIMENTS["detuning_map"].compute(cfg)
        assert isinstance(result.tables[0][2], csvio.LongForm)
        for _, header, rows in result.tables:
            self.check(tmp_path, header, rows)

    @pytest.mark.parametrize("shape", [(14, 9), (1, 14), (14, 1), (0, 5), (5, 0), (0, 0)])
    def test_long_form(self, tmp_path, shape):
        n, m = shape
        rng = np.random.default_rng(n * 100 + m)
        special = np.array(self.SPECIAL)
        rows = rng.permutation(special)[:n]
        cols = rng.permutation(special)[:m]
        cells = np.resize(rng.permutation(special), n * m)
        cells[1::3] = rng.choice([-1.0, 1.0], cells[1::3].size) * 10.0 ** rng.uniform(
            -320, 308, cells[1::3].size)
        table = csvio.long_form(rows, cols, cells.reshape(n, m))
        self.check(tmp_path, ["row", "col", "cell"], table)
        self.check(tmp_path, ["row", "col", "cell"], table, meta={})

    def test_long_form_integer_axes(self, tmp_path):
        self.check(tmp_path, ["a", "b", "c"],
                   csvio.long_form([1, 10**17], np.arange(3), np.full((2, 3), 0.1)))
        self.check(tmp_path, ["a", "b", "c"],
                   csvio.long_form([1, 10**17], np.arange(3), np.arange(6).reshape(2, 3)))

    @pytest.mark.parametrize("shape", [(4, 3), (3,), (12,), (1, 3, 4), (3, 4, 1), ()])
    def test_long_form_shape_mismatch(self, shape):
        with pytest.raises(ModelError, match="matrix shape does not match axis lengths"):
            csvio.long_form(np.arange(3.0), np.arange(4.0), np.zeros(shape))

    def test_long_form_reads_back_bit_for_bit(self, tmp_path):
        cfg = cli.validate_config("detuning_map", {"n_detunings": "3"})
        result = cli.EXPERIMENTS["detuning_map"].compute(cfg)
        name, header, table = result.tables[0]
        assert cli.run(experiment="detuning_map", outdir=tmp_path,
                       overrides={"n_detunings": 3}) == 0
        _, read_header, data = csvio.read_csv(tmp_path / name)
        assert read_header == header
        assert data.tobytes() == _expanded(table).tobytes()

    def test_string_cells_quoted(self, tmp_path):
        labels = ["plain", "a, b", 'say "hi"', '"quoted", twice', "two\nlines", "cr\rlf",
                  "100% (R^2=1)"]
        rows = [(label, float(i), "PASS") for i, label in enumerate(labels)]
        csvio.write_csv(tmp_path / "t.csv", ["check", "value", "status"], rows, {"n": 1})
        parsed = _assert_header_width(tmp_path / "t.csv")
        assert parsed[0] == ["check", "value", "status"]
        assert [r[0] for r in parsed[1:]] == labels
        text = (tmp_path / "t.csv").read_text(encoding="utf-8")
        assert "\nplain,0,PASS\n" in text and '\n"a, b",1,PASS\n' in text

    @pytest.mark.parametrize("experiment", ["lineshape", "autler_map", "detuning_map"])
    def test_result_written_twice_is_identical(self, tmp_path, experiment):
        # a Result's table rows are re-iterable: a second write is not header-only
        cfg = cli.validate_config(experiment, {})
        result = cli.EXPERIMENTS[experiment].compute(cfg)
        for out in ("first", "second"):
            (tmp_path / out).mkdir()
            cli._emit(experiment, cfg, result, tmp_path / out, plot=True)
        first, second = ({p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}
                         for out in ("first", "second"))
        assert len(first) >= 2 and first == second

    @pytest.mark.parametrize("experiment", ["lifetime", "ramsey", "lineshape"])
    def test_fit_report_bytes(self, tmp_path, experiment):
        cfg = cli.validate_config(experiment, {})
        result = cli.EXPERIMENTS[experiment].compute(cfg)
        cli._emit(experiment, cfg, result, tmp_path, plot=False)
        meta = cli._meta(experiment, cfg, **result.meta)
        name, fit = result.fit
        assert (tmp_path / name).read_text() == _reference_fit_report(fit, meta)
