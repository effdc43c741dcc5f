import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from growthfpt import ParseError, SimConfig, ValidationError
from growthfpt.cli import main, parse_config, run_command, write_csv

FIG1_CONFIG = {
    "model": {"n": 1, "gamma": 0.5, "k": 20, "x0": 1, "t0": 0, "p": 1.5},
    "noise": {"kind": "multiplicative", "sigma": 0.02},
}


def write_config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


class TestParseConfig:
    def test_reference_document(self):
        cfg = parse_config(json.dumps(FIG1_CONFIG))
        assert cfg.model.k == 20.0
        assert cfg.noise_kind == "multiplicative"
        assert cfg.sigma == 0.02

    def test_p_constraint_named(self):
        doc = json.loads(json.dumps(FIG1_CONFIG))
        doc["model"]["p"] = 2.5
        with pytest.raises(ValidationError, match="p"):
            parse_config(json.dumps(doc))

    def test_missing_sigma(self):
        doc = {"model": FIG1_CONFIG["model"], "noise": {"kind": "additive"}}
        with pytest.raises(ValidationError, match="sigma"):
            parse_config(json.dumps(doc))

    def test_unknown_key_rejected_with_path(self):
        doc = json.loads(json.dumps(FIG1_CONFIG))
        doc["noise"]["sigmaa"] = 1.0
        with pytest.raises(ValidationError, match="noise.sigmaa"):
            parse_config(json.dumps(doc))
        doc = json.loads(json.dumps(FIG1_CONFIG))
        doc["extra"] = {}
        with pytest.raises(ValidationError, match="extra"):
            parse_config(json.dumps(doc))
        doc = json.loads(json.dumps(FIG1_CONFIG))
        doc["quadrature"] = {"rel_tol": 1e-8}
        with pytest.raises(ValidationError, match="quadrature"):
            parse_config(json.dumps(doc))
        doc = json.loads(json.dumps(FIG1_CONFIG))
        doc["series"] = {"rel_tol": 1e-12}
        with pytest.raises(ValidationError, match="series"):
            parse_config(json.dumps(doc))

    def test_bridge_correction_must_be_boolean(self):
        doc = json.loads(json.dumps(FIG1_CONFIG))
        for value in ("false", 0, 1, None):
            doc["sim"] = {"bridge_correction": value}
            with pytest.raises(ValidationError, match="sim.bridge_correction"):
                parse_config(json.dumps(doc))
        doc["sim"] = {"bridge_correction": False}
        assert parse_config(json.dumps(doc)).sim.bridge_correction is False

    def test_malformed_document(self):
        with pytest.raises(ParseError):
            parse_config("{not json")

    def test_empty_text_is_an_empty_document(self):
        with pytest.raises(ValidationError, match="model"):
            parse_config(" \n")

    def test_defaults_of_a_minimal_document(self):
        cfg = parse_config(json.dumps(FIG1_CONFIG))
        assert (cfg.grid_t_end, cfg.grid_points, cfg.grid_kind) == (50.0, 2000, "linear")
        assert (cfg.fpt_nu, cfg.fpt_method) == (0.8, "closed")
        assert (cfg.fet_nu1, cfg.fet_nu, cfg.fet_nu2, cfg.fet_method) == (0.8, 1.0, 1.2, "closed")
        assert cfg.sim == SimConfig(dt=0.1, horizon=40.0, n_paths=20, seed=12345,
                                    bridge_correction=True)
        assert cfg.output == Path("out")
        assert cfg.model.t0 == 0.0


@pytest.mark.parametrize("block,key,value", [
    ("grid", "points", "many"),
    ("model", "gamma", None),
    ("output", None, 5),
    ("sim", "seed", [7]),
    ("fpt", "nu", {"value": 0.8}),
    ("grid", "points", 1e400),
])
def test_malformed_value_is_a_config_error(tmp_path, block, key, value):
    doc = json.loads(json.dumps(FIG1_CONFIG))
    if key is None:
        doc[block] = value
    else:
        doc.setdefault(block, {})[key] = value
    name = block if key is None else f"{block}.{key}"
    with pytest.raises(ValidationError, match=re.escape(name)):
        parse_config(json.dumps(doc))
    assert main(["curve", "--config", str(write_config(tmp_path, doc))]) == 2


def test_undecodable_document_is_a_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'\xff\xfe{"model": {}}')
    assert main(["curve", "--config", str(path)]) == 2


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


class TestCommands:
    def test_curve_outputs(self, tmp_path):
        doc = dict(FIG1_CONFIG)
        doc["grid"] = {"t_end": 40, "points": 200}
        doc["output"] = str(tmp_path / "out")
        cfg = parse_config(json.dumps(doc))
        assert run_command("curve", cfg) == 0
        header, data = read_csv(tmp_path / "out" / "curve.csv")
        assert header == ["t", "x", "g", "h"]
        assert np.all(np.diff(data[:, 0]) > 0)
        assert data[0, 1] == 1.0
        assert data[-1, 1] == pytest.approx(19.81, abs=0.01)
        svg = (tmp_path / "out" / "curve.svg").read_text()
        assert svg.startswith("<svg")

    def test_seventeen_significant_digits(self, tmp_path):
        doc = dict(FIG1_CONFIG)
        doc["grid"] = {"t_end": 1, "points": 3}
        doc["output"] = str(tmp_path / "out")
        cfg = parse_config(json.dumps(doc))
        run_command("curve", cfg)
        lines = (tmp_path / "out" / "curve.csv").read_text().splitlines()
        # g(0) = 20/19 carries its full double representation
        assert "1.0526315789473684" in lines[1]

    def test_regime_output(self, tmp_path, capsys):
        doc = json.loads(json.dumps(FIG1_CONFIG))
        doc["model"]["p"] = 0.25
        cfg = parse_config(json.dumps(doc))
        assert run_command("regime", cfg) == 0
        out = capsys.readouterr().out
        assert "FiniteTimeCeiling" in out
        assert "24.268" in out

    def test_fpt_closed_mass_on_log_grid(self, tmp_path):
        doc = dict(FIG1_CONFIG)
        doc["grid"] = {"t_end": 1_000_000, "points": 12_000, "kind": "log"}
        doc["fpt"] = {"nu": 0.8, "method": "closed"}
        doc["output"] = str(tmp_path / "out")
        cfg = parse_config(json.dumps(doc))
        assert run_command("fpt", cfg) == 0
        _, data = read_csv(tmp_path / "out" / "fpt.csv")
        mass = float(np.trapezoid(data[:, 1], data[:, 0]))
        assert abs(mass - 1.0) <= 1e-4

    def test_fpt_volterra_and_mc(self, tmp_path):
        doc = dict(FIG1_CONFIG)
        doc["grid"] = {"t_end": 100, "points": 800}
        doc["fpt"] = {"nu": 0.8, "method": "volterra"}
        doc["sim"] = {"dt": 0.5, "horizon": 100, "n_paths": 4000, "seed": 3}
        doc["output"] = str(tmp_path / "v")
        cfg = parse_config(json.dumps(doc))
        assert run_command("fpt", cfg) == 0
        _, dv = read_csv(tmp_path / "v" / "fpt.csv")
        doc["fpt"]["method"] = "mc"
        doc["output"] = str(tmp_path / "m")
        cfg = parse_config(json.dumps(doc))
        assert run_command("fpt", cfg) == 0
        _, dm = read_csv(tmp_path / "m" / "fpt.csv")
        # both see roughly the same window mass
        mv = np.trapezoid(dv[:, 1], dv[:, 0])
        mm = np.trapezoid(dm[:, 1], dm[:, 0])
        assert abs(mv - mm) < 0.05

    def test_fet_volterra_emits_side_split(self, tmp_path):
        doc = dict(FIG1_CONFIG)
        doc["grid"] = {"t_end": 300, "points": 600}
        doc["fet"] = {"nu1": 0.8, "nu2": 1.2, "method": "volterra"}
        doc["output"] = str(tmp_path / "out")
        cfg = parse_config(json.dumps(doc))
        assert run_command("fet", cfg) == 0
        header, data = read_csv(tmp_path / "out" / "fet.csv")
        assert header == ["t", "pdf", "gamma1", "gamma2"]
        assert np.allclose(data[:, 1], data[:, 2] + data[:, 3], atol=1e-12)

    def test_mc_fet_byte_identical_reruns(self, tmp_path):
        argv_base = ["fet", "--method", "mc", "--nu1", "0.8", "--nu2", "1.2",
                     "--paths", "2000", "--seed", "7", "--dt", "0.5",
                     "--horizon", "400"]
        cfg_path = write_config(tmp_path, FIG1_CONFIG)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(argv_base + ["--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(argv_base + ["--config", str(cfg_path), "--out", str(out2)]) == 0
        assert (out1 / "fet.csv").read_bytes() == (out2 / "fet.csv").read_bytes()

    def test_paths_command(self, tmp_path):
        cfg_path = write_config(tmp_path, FIG1_CONFIG)
        out = tmp_path / "p"
        code = main(["paths", "--config", str(cfg_path), "--out", str(out),
                     "--paths", "5", "--dt", "0.2", "--horizon", "10"])
        assert code == 0
        header, data = read_csv(out / "paths.csv")
        assert header[:2] == ["t", "x_det"]
        assert len(header) == 7
        assert data.shape[0] == 51

    def test_exit_code_2_on_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["curve", "--config", str(bad)]) == 2
        doc = json.loads(json.dumps(FIG1_CONFIG))
        doc["model"]["p"] = 3.0
        assert main(["curve", "--config", str(write_config(tmp_path, doc))]) == 2

    def test_flag_overrides_beat_document(self, tmp_path):
        doc = dict(FIG1_CONFIG)
        doc["fpt"] = {"nu": 0.8, "method": "closed"}
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["fpt", "--config", str(cfg_path), "--out", str(out),
                     "--nu", "1.2", "--t-end", "3000", "--grid-points", "500"]) == 0
        # defective mass < 0.9 proves nu=1.2 took effect over the document's 0.8
        _, data = read_csv(out / "fpt.csv")
        assert np.trapezoid(data[:, 1], data[:, 0]) < 0.9

    def test_fet_nu_flag_sets_the_band_start(self, tmp_path):
        doc = json.loads(json.dumps(FIG1_CONFIG))
        doc["noise"]["sigma"] = 0.05
        doc["grid"] = {"t_end": 30, "points": 300}
        written = {}
        for name, fet, flags in (("default", {}, []), ("flag", {}, ["--nu", "1.1"]),
                                 ("document", {"nu": 1.1}, [])):
            out = tmp_path / name
            assert main(["fet", "--config", str(write_config(tmp_path, dict(doc, fet=fet))),
                         "--out", str(out)] + flags) == 0
            written[name] = (out / "fet.csv").read_bytes()
        assert written["flag"] == written["document"]
        assert written["flag"] != written["default"]

    def test_csv_bytes_match_the_reference_format(self, tmp_path):
        columns = [np.array([0.0, 1.0 / 3.0, 2.0, 1e300]),
                   np.array([np.nan, np.inf, -np.inf, -0.0]),
                   np.array([5e-324, 2.2250738585072014e-308, 7, -1.5e-17])]
        write_csv(tmp_path / "t.csv", ["a", "b", "c"], columns)
        rows = ["a,b,c"] + [",".join(f"{float(v):.17g}" for v in row) for row in zip(*columns)]
        assert (tmp_path / "t.csv").read_text() == "\n".join(rows) + "\n"


# a document that gives every key a flag sets, each to a value no flag case uses
FULL_CONFIG = dict(
    FIG1_CONFIG, grid={"t_end": 40, "points": 200},
    fpt={"nu": 0.8, "method": "closed"},
    fet={"nu1": 0.8, "nu": 1.0, "nu2": 1.2, "method": "closed"},
    sim={"dt": 0.1, "horizon": 40, "n_paths": 20, "seed": 3}, output="doc_out")


def _fields(cfg):
    flat = {}
    for name, value in dataclasses.asdict(cfg).items():
        if isinstance(value, dict):
            flat.update({f"{name}.{k}": v for k, v in value.items()})
        else:
            flat[name] = value
    return flat


@pytest.mark.parametrize("command,flag,value,field,expected", [
    ("fpt", "--sigma", "0.05", "sigma", 0.05),
    ("fpt", "--nu", "1.2", "fpt_nu", 1.2),
    ("fet", "--nu", "1.1", "fet_nu", 1.1),
    ("curve", "--nu", "-1", None, None),
    ("fpt", "--method", "mc", "fpt_method", "mc"),
    ("fet", "--method", "volterra", "fet_method", "volterra"),
    ("paths", "--method", "mc", None, None),
    ("fet", "--nu1", "0.7", "fet_nu1", 0.7),
    ("fpt", "--nu2", "1.3", "fet_nu2", 1.3),
    ("paths", "--paths", "5", "sim.n_paths", 5),
    ("fpt", "--seed", "7", "sim.seed", 7),
    ("fet", "--dt", "0.2", "sim.dt", 0.2),
    ("paths", "--horizon", "10", "sim.horizon", 10.0),
    ("curve", "--t-end", "30", "grid_t_end", 30.0),
    ("fpt", "--grid-points", "500", "grid_points", 500),
    ("regime", "--out", "flag_out", "output", Path("flag_out")),
])
def test_each_flag_overrides_its_key(tmp_path, monkeypatch, command, flag, value,
                                     field, expected):
    """A flag sets only the key it names; --nu and --method set the running
    command's key, and other commands ignore them."""
    seen = []
    monkeypatch.setattr("growthfpt.cli.run_command", lambda cmd, cfg: seen.append(cfg) or 0)
    base = ["--config", str(write_config(tmp_path, FULL_CONFIG))]
    assert main([command] + base) == 0
    assert main([command, flag, value] + base) == 0
    before, after = _fields(seen[0]), _fields(seen[1])
    changed = {name: after[name] for name in after if after[name] != before[name]}
    assert changed == ({} if field is None else {field: expected})


# each flag and the keys it sets, as --help names them
FLAG_KEYS = {
    "--sigma": ["noise.sigma"], "--nu": ["fpt.nu", "fet.nu"],
    "--method": ["fpt.method", "fet.method"], "--nu1": ["fet.nu1"],
    "--nu2": ["fet.nu2"], "--paths": ["sim.n_paths"], "--seed": ["sim.seed"],
    "--dt": ["sim.dt"], "--horizon": ["sim.horizon"], "--t-end": ["grid.t_end"],
    "--grid-points": ["grid.points"], "--out": ["output"],
}


def test_help_names_the_key_of_each_flag(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for flag, keys in FLAG_KEYS.items():
        entry = re.search(rf" {re.escape(flag)} \S+ ([a-z0-9_. ]+)", text)
        assert entry is not None, flag
        assert [w for w in entry.group(1).split() if w != "or"] == keys, flag


SMOKE_CONFIG = {
    "model": {"n": 1, "gamma": 0.5, "k": 20, "x0": 1, "t0": 0.5, "p": 1.5},
    "grid": {"t_end": 20.5, "points": 100},
    "fpt": {"nu": 0.8},
    "fet": {"nu1": 0.8, "nu": 1.05, "nu2": 1.2},
    "sim": {"dt": 0.1, "horizon": 20, "n_paths": 400, "seed": 9},
}


@pytest.mark.parametrize("method", ["closed", "volterra", "mc"])
@pytest.mark.parametrize("command", ["fpt", "fet"])
@pytest.mark.parametrize("kind,sigma", [("multiplicative", 0.05), ("additive", 0.1)])
def test_density_command_matrix(tmp_path, kind, sigma, command, method):
    doc = dict(SMOKE_CONFIG, noise={"kind": kind, "sigma": sigma})
    out = tmp_path / "o"
    assert main([command, "--config", str(write_config(tmp_path, doc)),
                 "--method", method, "--out", str(out)]) == 0
    header, data = read_csv(out / f"{command}.csv")
    sides = command == "fet" and method != "closed"
    assert header == (["t", "pdf", "gamma1", "gamma2"] if sides else ["t", "pdf"])
    assert np.all(np.diff(data[:, 0]) > 0)
    assert np.all(np.isfinite(data)) and np.all(data[:, 1:] >= 0.0)
    assert np.trapezoid(data[:, 1], data[:, 0]) <= 1.0 + 1e-6


# a band started off its centre: nu1 < nu != 1 < nu2, with each side taking
# at least 5 % of the exits by the horizon
OFF_CENTRE_BANDS = {
    "multiplicative": {
        "model": {"n": 1, "gamma": 0.5, "k": 20, "x0": 1, "t0": 0.5, "p": 1.5},
        "noise": {"kind": "multiplicative", "sigma": 0.05},
        "fet": {"nu1": 0.8, "nu": 1.1, "nu2": 1.2}},
    "additive": {
        "model": {"n": 1, "gamma": 0.1, "k": 20, "x0": 1, "t0": 0.5, "p": 1.5},
        "noise": {"kind": "additive", "sigma": 0.1},
        "fet": {"nu1": 0.8, "nu": 1.05, "nu2": 1.2}},
}


@pytest.mark.parametrize("kind", sorted(OFF_CENTRE_BANDS))
def test_fet_start_proportion_reaches_every_method(tmp_path, kind):
    """All three methods solve the band started at proportion fet.nu: the
    closed form and Volterra agree, and the Monte Carlo exit-side split
    matches Volterra's."""
    doc = dict(OFF_CENTRE_BANDS[kind], grid={"t_end": 30.5, "points": 1200},
               sim={"dt": 0.05, "horizon": 30, "n_paths": 4000, "seed": 5})
    cfg_path = write_config(tmp_path, doc)
    data = {}
    for method in ("closed", "volterra", "mc"):
        out = tmp_path / method
        assert main(["fet", "--config", str(cfg_path), "--method", method,
                     "--out", str(out)]) == 0
        data[method] = read_csv(out / "fet.csv")[1]
    closed, volterra, mc = data["closed"], data["volterra"], data["mc"]
    peak = closed[:, 1].max()
    assert np.max(np.abs(closed[:, 1] - volterra[:, 1])) <= 1e-12 * peak
    share = (np.trapezoid(volterra[:, 3], volterra[:, 0])
             / np.trapezoid(volterra[:, 1], volterra[:, 0]))
    assert 0.05 <= share <= 0.95
    exits = mc[:, 1].sum() * (mc[1, 0] - mc[0, 0]) * 4000  # histogram counts
    mc_share = mc[:, 3].sum() / mc[:, 1].sum()
    assert abs(mc_share - share) <= 3.0 * math.sqrt(share * (1.0 - share) / exits)


@pytest.mark.parametrize("command", ["fpt", "fet"])
def test_additive_volterra_reads_the_clock_once(tmp_path, monkeypatch, command):
    """An additive Volterra problem integrates g^2 over its grid once; the
    other reads are the coordinate's start, one time each."""
    import growthfpt.process_ou as process_ou
    int_g2, sizes = process_ou.int_g2, []

    def counted(params, ts):
        sizes.append(np.size(ts))
        return int_g2(params, ts)

    monkeypatch.setattr(process_ou, "int_g2", counted)
    doc = dict(SMOKE_CONFIG, noise={"kind": "additive", "sigma": 0.1})
    assert main([command, "--config", str(write_config(tmp_path, doc)),
                 "--method", "volterra", "--out", str(tmp_path / "o")]) == 0
    assert [n for n in sizes if n > 1] == [SMOKE_CONFIG["grid"]["points"] + 1]


# the odd-integer regime, 1/(1 - p) = 3: the curve blows up at t ~ 22.01,
# and the grid stops at 0.999999 of the way there, where g -> 0
ODD_INTEGER_CONFIG = {
    "model": {"n": 1, "gamma": 0.5, "k": 20, "x0": 1, "t0": 0, "p": 2.0 / 3.0},
    "noise": {"kind": "additive", "sigma": 0.1},
    "grid": {"t_end": 60, "points": 400},
}


@pytest.mark.parametrize("command", ["fpt", "fet"])
def test_odd_integer_regime_volterra_matches_closed(tmp_path, command):
    cfg_path = write_config(tmp_path, ODD_INTEGER_CONFIG)
    data = {}
    for method in ("closed", "volterra"):
        out = tmp_path / method
        assert main([command, "--config", str(cfg_path), "--method", method,
                     "--out", str(out)]) == 0
        data[method] = read_csv(out / f"{command}.csv")[1]
    closed, volterra = data["closed"][:, 1], data["volterra"][:, 1]
    assert np.max(np.abs(closed - volterra)) <= 1e-10 * closed.max()


class TestValidateCommand:
    def test_exit_zero_when_all_checks_pass(self, tmp_path, capsys):
        from growthfpt.validate import ALL_CHECKS
        cfg_path = write_config(tmp_path, FIG1_CONFIG)
        assert main(["validate", "--config", str(cfg_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(ALL_CHECKS)
        assert all(ln.startswith("[PASS] ") for ln in lines)

    def test_exit_one_when_a_check_fails(self, tmp_path, monkeypatch):
        from growthfpt import validate as vmod
        monkeypatch.setattr(
            vmod, "ALL_CHECKS",
            [lambda: vmod.CheckResult("stub", False, "forced failure")])
        cfg_path = write_config(tmp_path, FIG1_CONFIG)
        assert main(["validate", "--config", str(cfg_path)]) == 1

    def test_runs_without_a_config(self, monkeypatch, capsys):
        from growthfpt import validate as vmod
        monkeypatch.setattr(
            vmod, "ALL_CHECKS", [lambda: vmod.CheckResult("stub", True, "forced pass")])
        assert main(["validate"]) == 0
        assert capsys.readouterr().out == "[PASS] stub: forced pass\n"


class TestSvgDeterminism:
    def test_same_data_same_bytes(self):
        from growthfpt.svg import render_line_chart
        ts = np.linspace(0.0, 1.0, 50)
        a = render_line_chart([(ts, np.sin(ts), "s")], title="x")
        b = render_line_chart([(ts, np.sin(ts), "s")], title="x")
        assert a == b
        assert a.startswith("<svg")
