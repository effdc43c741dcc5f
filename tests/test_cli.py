import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from growthfpt import ParseError, SimConfig, ValidationError
from growthfpt import cli
from growthfpt._decimal import _F2_CAP, _SMALL, format_f2
from growthfpt.cli import CSV_BLOCK, main, parse_config, run_command, write_csv
from growthfpt.svg import render_line_chart

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
        doc = json.loads(json.dumps(FIG1_CONFIG))
        doc["sim"] = {"bridge_correction": False}
        with pytest.raises(ValidationError, match="sim.bridge_correction: unknown key"):
            parse_config(json.dumps(doc))

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
        assert cfg.sim == SimConfig(dt=0.1, horizon=40.0, n_paths=20, seed=12345)
        assert cfg.output == Path("out")
        assert cfg.model.t0 == 0.0


@pytest.mark.parametrize("block,key,value", [
    ("grid", "points", "many"),
    ("model", "gamma", None),
    ("output", None, 5),
    ("sim", "seed", [7]),
    ("fpt", "nu", {"value": 0.8}),
    ("grid", "points", 1e400),
    # a number key takes a JSON number, and an int key no fractional part
    ("grid", "points", 2.7),
    ("sim", "seed", 1.9),
    ("grid", "points", "20"),
    ("sim", "n_paths", True),
    ("noise", "sigma", "0.1"),
    # check_noise's rule: sigma**2 a positive normal float
    ("noise", "sigma", 0.0),
    ("noise", "sigma", 1e-200),
    ("noise", "sigma", 1e160),
    ("model", "gamma", False),
    # json.dumps writes NaN and Infinity, which json.loads takes
    ("model", "k", math.inf),
    ("fpt", "nu", math.nan),
    ("grid", "t_end", math.inf),
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


@pytest.mark.parametrize("kind,argv,name", [
    ("multiplicative", ["fpt", "--nu", "inf"], "fpt.nu"),
    ("additive", ["fpt", "--nu", "inf"], "fpt.nu"),
    ("additive", ["fpt", "--nu", "nan"], "fpt.nu"),
    ("multiplicative", ["fpt", "--sigma", "inf"], "noise.sigma"),
    ("additive", ["fet", "--nu2", "inf"], "fet.nu2"),
    ("multiplicative", ["fpt", "--t-end", "inf"], "grid.t_end"),
])
def test_a_flag_that_is_not_finite_exits_2(tmp_path, capsys, kind, argv, name):
    # each wrote a CSV of nan with status 0, or (--t-end) failed with status 1
    doc = dict(FIG1_CONFIG, noise={"kind": kind, "sigma": 0.02})
    out = tmp_path / "o"
    assert main(argv + ["--config", str(write_config(tmp_path, doc)),
                        "--out", str(out)]) == 2
    assert f"config error: {name}: must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_numbers_of_either_json_kind_are_read():
    # an int key takes a float with no fractional part, a float key an int
    doc = json.loads(json.dumps(FIG1_CONFIG))
    doc["grid"], doc["sim"] = {"points": 20.0, "t_end": 30}, {"seed": 7.0}
    cfg = parse_config(json.dumps(doc))
    assert (cfg.grid_points, cfg.sim.seed, cfg.grid_t_end) == (20, 7, 30.0)
    assert type(cfg.grid_points) is int and type(cfg.grid_t_end) is float


def test_undecodable_document_is_a_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'\xff\xfe{"model": {}}')
    assert main(["curve", "--config", str(path)]) == 2


def reference_csv(header, columns):
    """A CSV as the row-by-row loop wrote it: %.17g per value."""
    rows = [",".join(header)] + [",".join(f"{float(v):.17g}" for v in row) for row in zip(*columns)]
    return "\n".join(rows) + "\n"


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

    def test_regime_writes_no_output_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, FIG1_CONFIG)
        assert main(["regime", "--config", str(cfg_path)]) == 0
        assert main(["regime", "--config", str(cfg_path), "--out", "named"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

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

    @pytest.mark.parametrize("sim", [{"horizon": math.inf},
                                     {"horizon": 1e308, "dt": 1e-10}])
    def test_step_count_overflow_exits_2(self, tmp_path, capsys, sim):
        # json.dumps writes inf as Infinity, which the key reader rejects;
        # a finite horizon too long for its step is rejected by SimConfig
        doc = dict(FIG1_CONFIG, sim=sim)
        out = tmp_path / "p"
        assert main(["paths", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 2
        named = "sim.horizon: must be finite" if math.isinf(sim["horizon"]) else "sim: "
        assert named in capsys.readouterr().err
        assert not out.exists()

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
        assert (tmp_path / "t.csv").read_text() == reference_csv(["a", "b", "c"], columns)

    @pytest.mark.parametrize("n_rows,n_cols", [
        (1, 3), (CSV_BLOCK // 3, 3), (CSV_BLOCK // 3 + 1, 3), (3, 5000)],
        ids=["one_row", "one_block", "one_block_and_a_row", "paths_shaped"])
    def test_csv_bytes_across_block_edges(self, tmp_path, n_rows, n_cols):
        rng = np.random.default_rng(n_rows * n_cols)
        shape = (n_rows, n_cols)
        table = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        specials = np.resize([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0 / 3.0],
                             min(table.size, 60))
        table.flat[rng.choice(table.size, specials.size, replace=False)] = specials
        header = [f"c{j}" for j in range(n_cols)]
        write_csv(tmp_path / "t.csv", header, list(table.T))
        assert (tmp_path / "t.csv").read_text() == reference_csv(header, list(table.T))

    def test_csv_bytes_at_the_edges_of_the_digit_arithmetic(self, tmp_path):
        rng = np.random.default_rng(1901)

        def neighbours(v, ulps=3):
            """v and the doubles up to ulps away from it on either side."""
            out, down, up = [v], v, v
            for _ in range(ulps):
                down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
                out += [down, up]
            return np.concatenate(out)

        powers = np.array([float(f"1e{e}") for e in range(-324, 309)])
        switches = np.array([1e-5, 1e-4, 1e16, 1e17, 1e-283, 1e283])
        # ties at 17 digits (18 significant digits, the last a 5), some of
        # them, in the powers of two, scaled by an inexact power of ten
        ties = np.concatenate([[1234567890123456.25, 4503599627370495.5],
                               rng.integers(10 ** 15, 2 ** 51, 100) + 0.25,
                               rng.integers(10 ** 15, 2 ** 51, 100) + 0.75,
                               np.ldexp(1.0, np.arange(-1074, 1024))])
        specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                             2.2250738585072014e-308])
        bits = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64)
        values = np.concatenate([neighbours(powers), neighbours(switches, 8), ties,
                                 specials, bits])
        values = np.concatenate([values, -values])
        table = np.resize(values, (-(-values.size // 7), 7))
        header = [f"c{j}" for j in range(7)]
        write_csv(tmp_path / "t.csv", header, list(table.T))
        assert (tmp_path / "t.csv").read_text() == reference_csv(header, list(table.T))


def reference_polylines(series):
    """The points of each polyline as the per-point loop wrote them: the
    finite points, framed on their range (a flat range widened by 1, the
    y range padded by 4 %), mapped one float at a time."""
    finite = []
    for xs, ys, _ in series:
        xs, ys = np.asarray(xs, float), np.asarray(ys, float)
        ok = np.isfinite(xs) & np.isfinite(ys)
        finite.append((xs[ok], ys[ok]))
    x_lo = min(float(x) for xs, _ in finite for x in xs)
    x_hi = max(float(x) for xs, _ in finite for x in xs)
    y_lo = min(float(y) for _, ys in finite for y in ys)
    y_hi = max(float(y) for _, ys in finite for y in ys)
    x_hi = x_lo + 1.0 if x_hi == x_lo else x_hi
    y_hi = y_lo + 1.0 if y_hi == y_lo else y_hi
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    return [" ".join(f"{70 + (x - x_lo) / (x_hi - x_lo) * 790:.2f},"
                     f"{40 + (y_hi - y) / (y_hi - y_lo) * 430:.2f}" for x, y in zip(xs, ys))
            for xs, ys in finite if xs.size >= 2]


def _near_ties(points):
    """A density on a linspace grid: half its x pixels lie next to a .xx5 tie."""
    t = np.linspace(0.0, 40.0, points)
    return [(t, t * np.exp(-t / 4.0), "pdf")]


_T = np.linspace(0.0, 3.0, 7)
SVG_CASES = {
    "non_finite_dropped": [(np.array([0.0, np.nan, 1.0, 2.0, np.inf, 3.0, 4.0]),
                            np.array([1.0, 2.0, np.inf, -np.inf, 0.5, 0.25, np.nan]), "a")],
    "signed_zero_and_subnormal": [(np.array([-0.0, 5e-324, 1e-323, 1.5e-323]),
                                   np.array([5e-324, -0.0, 0.0, 1e-323]), "")],
    "huge": [(np.array([0.0, 1e300, 2e300]), np.array([1e300, -1e300, 0.0]), "h")],
    "one_point": [(np.array([2.0]), np.array([3.0]), "p")],
    "one_point_beside_a_line": [(np.array([2.0]), np.array([3.0]), "p"),
                                (_T, _T ** 2, "q")],
    "constant": [(_T, np.full(_T.size, 0.7), "c")],
    "three_series": [(_T, np.sin(_T), "sin"), (_T, np.cos(_T), ""),
                     (_T[::2], np.exp(-_T[::2]), "exp")],
    # pixels that land exactly on a .xx5 tie on [0, 3] x [0, 1], one ulp
    # from the value another order of the same operations gives
    "rounding_ties": [(np.array([0.0, 0.016613924050632882, 0.06218354430379743, 3.0]),
                       np.array([0.0, 0.9988720930232559, 0.9844302325581396, 1.0]), "")],
    # one '%' template call below the size rule, format_f2's arithmetic from it
    "below_the_size_rule": _near_ties(_SMALL // 2 - 1),
    "at_the_size_rule": _near_ties(_SMALL // 2),
}


@pytest.mark.parametrize("case", sorted(SVG_CASES))
def test_svg_points_match_the_reference_loop(case):
    svg = render_line_chart(SVG_CASES[case], title=case, ylabel="y")
    assert re.findall(r'<polyline points="([^"]*)"', svg) == reference_polylines(SVG_CASES[case])


def test_f2_bytes_at_the_edges_of_the_rounding():
    """format_f2 writes the bytes of '%.2f' % v on every tie k/200 up to
    1000 and the 3 doubles either side of it, random values, signed zeros
    and values that round to -0.00, and the values around the cap above
    which '%' writes each value."""
    rng = np.random.default_rng(21)
    ties = np.arange(200_001) / 200.0
    near, down, up = [ties], ties, ties
    for _ in range(3):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        near += [down, up]
    cap, below, above = [_F2_CAP], _F2_CAP, _F2_CAP
    for _ in range(3):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        cap += [below, above]
    specials = [-0.0, 0.0, -0.004, -0.005, -0.0051, 0.005, 0.015, 0.125, 1e8, 1e300,
                5e-324, np.nan, np.inf]
    spread = np.concatenate([rng.uniform(0.0, 1000.0, 10 ** 5), cap, specials])
    values = np.concatenate(near + [spread, -spread])
    seps = np.full(values.size, ord(","), np.uint8)
    # in blocks of a polyline's size, which keep the arrays in cache
    written = b"".join(format_f2(values[i:i + 4096], seps[i:i + 4096])
                       for i in range(0, values.size, 4096))
    assert written == (b"%.2f," * values.size) % tuple(values.tolist())


def test_svg_text_is_escaped():
    import xml.etree.ElementTree as ET
    chart = render_line_chart([(_T, _T, "a<b & c")], title="R&D <test>",
                              xlabel="t > 0", ylabel="<y>")
    texts = [node.text for node in ET.fromstring(chart).iter("{http://www.w3.org/2000/svg}text")]
    for text in ("R&D <test>", "t > 0", "<y>", "a<b & c"):
        assert text in texts


def test_svg_without_a_finite_point_draws_the_empty_frame():
    empty = render_line_chart([], title="t")
    nothing = (np.array([np.nan]), np.array([np.inf]), "")
    assert render_line_chart([nothing], title="t") == empty
    assert render_line_chart([nothing, nothing], title="t") == empty
    labelled = render_line_chart([nothing[:2] + ("a",)], title="t")
    assert "<polyline" not in labelled and ">a</text>" in labelled
    assert '>0</text>' in empty and '>1</text>' in empty  # the x ticks span [0, 1]


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


def test_parser_is_reused_without_carrying_values(tmp_path, capsys):
    """main builds its parser once per process; one call's flags never
    reach the next, and --help prints the same text each time."""
    cli._parser.cache_clear()
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit):
            main(["--help"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    config = str(write_config(tmp_path, dict(SMOKE_CONFIG, noise={
        "kind": "multiplicative", "sigma": 0.05})))
    written = {}
    for name, flags, fresh in (("flag", ["--nu", "0.9"], False), ("after", [], False),
                               ("fresh", [], True)):
        if fresh:
            cli._parser.cache_clear()
        out = tmp_path / name
        assert main(["fpt", "--config", config, "--out", str(out)] + flags) == 0
        written[name] = (out / "fpt.csv").read_bytes()
    assert written["after"] == written["fresh"] != written["flag"]


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


# SHA-256 of the CSV and the SVG each run writes on SMOKE_CONFIG, recorded
# with np.savetxt and the per-point polyline loop; the key is
# command[-method]-noise kind.  The two lognormal Volterra CSVs, whose
# lines drop their own sources, were re-recorded then: their values moved
# by at most 5.4e-16 of their peak, and no SVG moved.  The two paths runs
# were re-recorded when the path normals became one stream per ensemble.
# The two closed-form band CSVs were re-recorded when each side's exit
# density became its passage density times the strip ratio: their values
# moved by at most 5.9e-16 relative, and no SVG moved
PINNED_OUTPUTS = {
    "curve-multiplicative": ("2e1385c19474d5256f0ef6ef261e5b6bb82a6b687ec1bbad5f26b565cd6cb5ee",
                            "0bc136d817b59e9984dc790e82ea294ee9deb44e976cc8b80b6219c6069f998c"),
    "paths-multiplicative": ("2e0b0042284cca0226da58f0e48744f7a7f6f59efb1369a0d57546220b297252",
                            "9a0a9b0bac17a554afd92eccba753c4fe04229966746bf7707f31b24521e7177"),
    "paths-additive": ("e4654d6c19f7dcff8e9de26c5cc7968de9b7a4de89fa4b52a4a7170f599f509c",
                      "399df959c5ba3d54a6f87136b332b69f2c37698fc001d0513a9dfb54bae4e9bd"),
    "fpt-closed-multiplicative": ("06f86dedf685c9c2f1333df4b6efaa57b65d47b507df7315a0824cc087de57a5",
                                 "e7ce621b1881ea671818a40f6d8313f5a97aa0cb7dad0ecdbfdd6df800e837bd"),
    "fpt-closed-additive": ("ebdb4df9c4d5f8e64e5581d2e7105511d8c7a46ca7bac24fab5fb4b6ebdbced2",
                           "ec76e64b3c90216f58ebef95900a817222d194cf97a6224405370b5572b100e7"),
    "fpt-volterra-multiplicative": ("ea94b438f8e6a183572b4b38fd57d186ab5eef7a8317abf9d9193edc8365e52a",
                                   "80d288e59f067a466e30dda514cb340df66cfe60c6b4ed9574ac722c105d0b48"),
    "fpt-volterra-additive": ("bdced139bd343d8517170b47531d89688440246cfc285f1ce3d6e0c3887fb743",
                             "3f9dcecd6b1711c2a2abb5d44f7568a6f576664430586e72fa996db24649db88"),
    "fet-closed-multiplicative": ("b805d7c10dd6ae8a64cfee5fa8974fad1f140a95fcba385ae14b906d3ef92a5f",
                                 "7a3f892130ac339da77a1304e9d50e929ec3e6e7257fc56bb6a5a73497abda64"),
    "fet-closed-additive": ("7c3405c1825ba12fe733656ebe7958594235461a5d3cba234d7be3a5361c102d",
                           "25dd76e5a4242eb1d062f19a75cd6d2b8b1c0174cd34bfdc394393e50beed357"),
    "fet-volterra-multiplicative": ("b3a8440f7db9172483aee1504c24358e24d1583baa7c81308a4f36277e26de5f",
                                   "9c2b0c3e17e6009c5b7e5274cf3cc3e78c0af34e4724641d1ed81939c5a4933c"),
    "fet-volterra-additive": ("0be2c0a6734347acafcb82038c25b2a3fbd8b5f4897bd95666ccce0709419f98",
                             "ac1e079d706d178061d9294d709600572a7590a17231fe047c370aa362ba99a6"),
}


@pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS))
def test_cli_writes_pinned_bytes(tmp_path, case):
    command, *method, kind = case.split("-")
    doc = dict(SMOKE_CONFIG, noise={"kind": kind,
                                    "sigma": 0.05 if kind == "multiplicative" else 0.1})
    out = tmp_path / "o"
    flags = ["--method", method[0]] if method else []
    assert main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(out)]
                + flags) == 0
    assert tuple(hashlib.sha256((out / f"{command}.{ext}").read_bytes()).hexdigest()
                 for ext in ("csv", "svg")) == PINNED_OUTPUTS[case]

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


def test_import_loads_no_thread_pool():
    # a CLI process is mostly its imports; Monte Carlo runs on one thread,
    # so nothing loads concurrent.futures, nor the logging it imports
    code = ("import sys, growthfpt.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
