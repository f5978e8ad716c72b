"""End-to-end tests of the command line driver (in process)."""
import ast
import glob
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from anosovlab.cli import main
from anosovlab.tableio import read_csv, read_json, read_resonances, \
    read_series, sidecar_path


def _cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


FAST_EDGES = """
model = constant_curvature
n_orbits = 40
windows = 30, 60
word_length = 4
max_closed = 40
"""


def test_package_imports_load_no_scipy():
    # scipy stays off every import path; the few calls that need it import
    # it themselves (weyl's default ladder top, the sidecar's version).
    import anosovlab

    code = ("import pkgutil, sys, anosovlab\n"
            "for m in pkgutil.iter_modules(anosovlab.__path__):\n"
            "    __import__('anosovlab.' + m.name)\n"
            "import anosovlab.cli\n"
            "anosovlab.cli.build_parser()\n"
            "print(' '.join(k for k in sys.modules if k.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(anosovlab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""


def test_no_unused_imports_in_src():
    # every name a package module imports is read somewhere in that module
    # (or exported through __all__); __future__ imports are directives
    import anosovlab

    for path in glob.glob(os.path.join(os.path.dirname(anosovlab.__file__), "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in n.targets):
                used |= {c.value for c in n.value.elts}
        imported = {(a.asname or a.name).split(".")[0]
                    for n in ast.walk(tree)
                    if isinstance(n, (ast.Import, ast.ImportFrom))
                    and getattr(n, "module", None) != "__future__"
                    for a in n.names}
        assert imported <= used, (os.path.basename(path), imported - used)


def test_no_orphaned_private_names_in_src():
    # every module-level _name of a package module is read somewhere in the
    # package: by name, as an attribute, or through an import
    import anosovlab

    defined, read = set(), set()
    for path in glob.glob(os.path.join(os.path.dirname(anosovlab.__file__), "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        module = os.path.basename(path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                defined |= {(module, t.id) for t in targets
                            if isinstance(t, ast.Name)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read |= {a.name for a in n.names}
    orphans = sorted((m, name) for m, name in defined
                     if name.startswith("_") and not name.endswith("__")
                     and name not in read)
    assert orphans == []


class TestExitCodes:
    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["resonances"])
        assert exc.value.code == 2

    def test_bad_seed_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["resonances", "--seed", "x",
                  "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2

    def test_concentrate_without_line_is_usage_error(self, tmp_path, capsys):
        res = tmp_path / "r.json"
        assert main(["resonances", "--out", str(res), "--quiet"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["concentrate", "--resonances", str(res),
                  "--out", str(tmp_path / "c.csv")])
        assert exc.value.code == 2

    def test_bad_config_exits_one_with_json(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "no_such_knob = 1\n")
        code = main(["resonances", "--config", cfg,
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert payload["pipeline"] == "resonances"

    def _error(self, capsys, argv):
        assert main(argv) == 1
        return json.loads(capsys.readouterr().err)["error"]

    def test_orbit_dump_keeps_an_explicit_span(self, tmp_path, capsys):
        # an explicit --t beyond the horizon is an error, not a cap
        cfg = _cfg(tmp_path, "horizon = 20\n")
        assert self._error(capsys, [
            "orbit-dump", "--config", cfg, "--t", "100", "--quiet",
            "--out", str(tmp_path / "o.csv")]) == "HorizonError"

    def test_orbit_dump_span_must_be_a_multiple_of_dt(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "dt = 0.3\n")
        assert self._error(capsys, [
            "orbit-dump", "--config", cfg, "--t", "1", "--quiet",
            "--out", str(tmp_path / "o.csv")]) == "ConfigError"

    def test_negative_band_index(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, FAST_EDGES)
        out = tmp_path / "edges.csv"
        assert self._error(capsys, [
            "band-edges", "--config", cfg, "--k", "-1", "--quiet",
            "--out", str(out)]) == "ConfigError"
        assert not out.exists()

    def test_weyl_negative_band_index(self, tmp_path, capsys):
        res = tmp_path / "r.json"
        assert main(["resonances", "--out", str(res), "--quiet"]) == 0
        out = tmp_path / "weyl.csv"
        assert self._error(capsys, [
            "weyl", "--resonances", str(res), "--k", "-1", "--quiet",
            "--out", str(out)]) == "ConfigError"
        assert not out.exists()

    def test_bands_negative_enlargement(self, tmp_path, capsys):
        from anosovlab.birkhoff import BandEdges
        from anosovlab.tableio import write_band_edges

        res = tmp_path / "r.json"
        assert main(["resonances", "--out", str(res), "--quiet"]) == 0
        edges = tmp_path / "edges.csv"
        write_band_edges(edges, [BandEdges(
            k=0, gamma_minus=-0.6, gamma_plus=-0.4, horizon=10.0,
            n_orbits=1, extrapolation_error=0.0)])
        cfg = _cfg(tmp_path, "band_eps = -1\n")
        out = tmp_path / "bands.csv"
        assert self._error(capsys, [
            "bands", "--config", cfg, "--resonances", str(res),
            "--edges", str(edges), "--quiet", "--out", str(out)]) == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_correlate_needs_samples(self, tmp_path, capsys, n_samples):
        cfg = _cfg(tmp_path, "dt = 0.25\nn_lags = 4\nn_samples = %d\n"
                   % n_samples)
        out = tmp_path / "s.csv"
        assert self._error(capsys, [
            "correlate", "--config", cfg, "--u", "bump=1", "--v", "bump=1",
            "--quiet", "--out", str(out)]) == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize("raw", [["--raw-mean"], []])
    def test_shape_observable_on_exact_model(self, tmp_path, capsys, raw):
        cfg = _cfg(tmp_path, "dt = 0.25\nn_lags = 10\nn_samples = 100\n")
        assert self._error(capsys, [
            "correlate", "--config", cfg, "--u", "shape=1", "--v", "shape=1",
            "--quiet", "--out", str(tmp_path / "s.csv")] + raw) == "ConfigError"

    def test_missing_series_exits_one(self, tmp_path, capsys):
        code = main(["invert", "--series", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["pipeline"] == "invert"


class TestArtifacts:
    def test_resonances_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["resonances", "--seed", "3", "--quiet"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        meta = read_json(sidecar_path(a))
        assert meta["seed"] == 3
        assert meta["n_entries"] == len(read_resonances(a))

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        main(["resonances", "--out", str(out), "--quiet"])
        assert capsys.readouterr().out == ""
        main(["resonances", "--out", str(out)])
        assert "resonances" in capsys.readouterr().out

    def test_correlate_then_invert(self, tmp_path, conjugation_defect,
                                   catalog_z):
        cfg = _cfg(tmp_path, "dt = 0.25\nn_lags = 120\nn_samples = 4000\n")
        series_path = tmp_path / "series.csv"
        assert main(["correlate", "--config", cfg, "--quiet",
                     "--u", "cos=1", "--v", "cos=1",
                     "--out", str(series_path)]) == 0
        series = read_series(series_path)
        assert len(series) == 120
        modes_path = tmp_path / "modes.json"
        assert main(["invert", "--series", str(series_path),
                     "--max-modes", "4", "--quiet",
                     "--out", str(modes_path)]) == 0
        modes = read_resonances(modes_path)
        zs = catalog_z(modes)
        assert len(zs) >= 1
        assert np.all(zs.real < 0.0)
        # inverted output remains closed under conjugation
        assert conjugation_defect(zs) == 0.0

    def test_correlate_records_the_orbit_plan(self, tmp_path):
        cfg = _cfg(tmp_path, "dt = 0.25\nn_lags = 30\nn_samples = 100\n")
        out = tmp_path / "series.csv"
        assert main(["correlate", "--config", cfg, "--quiet",
                     "--u", "cos=1", "--v", "cos=1", "--out", str(out)]) == 0
        meta = read_json(sidecar_path(out))
        assert (meta["n_samples"], meta["n_orbits"], meta["stride"],
                meta["orbit_length"]) == (100, 5, 2, 68)

    def test_invert_drops_modes_below_the_noise_floor(self, tmp_path,
                                                      catalog_z):
        # at this seed the unfiltered inversion returns a growing mode whose
        # amplitude lies far below 5 median(stderr) of the series
        cfg = _cfg(tmp_path, "dt = 0.25\nn_lags = 120\nn_samples = 4000\n")
        series_path = tmp_path / "series.csv"
        assert main(["correlate", "--config", cfg, "--quiet", "--seed", "1",
                     "--u", "cos=1", "--v", "cos=1",
                     "--out", str(series_path)]) == 0
        modes_path = tmp_path / "modes.json"
        assert main(["invert", "--series", str(series_path), "--seed", "1",
                     "--max-modes", "4", "--quiet",
                     "--out", str(modes_path)]) == 0
        zs = catalog_z(read_resonances(modes_path))
        assert len(zs) >= 1
        assert np.all(zs.real < 0.0)
        meta = read_json(sidecar_path(modes_path))
        floor = 5.0 * np.median(read_series(series_path).stderr)
        assert meta["noise_floor"] == pytest.approx(floor, rel=1e-12)
        assert meta["n_modes"] == len(zs)
        assert meta["n_modes"] + meta["n_dropped"] <= 4

    def test_invert_keeps_every_mode_without_noise(self, tmp_path, catalog_z):
        from anosovlab.correlation import CorrelationSeries
        from anosovlab.tableio import write_series

        t = 0.1 * np.arange(200)
        series = tmp_path / "series.csv"
        write_series(series, CorrelationSeries(
            dt=0.1, values=np.exp(-0.5 * t) * np.cos(t) + 0.2 * np.exp(-2.0 * t),
            stderr=np.zeros_like(t)))
        out = tmp_path / "modes.json"
        assert main(["invert", "--series", str(series), "--max-modes", "4",
                     "--quiet", "--out", str(out)]) == 0
        meta = read_json(sidecar_path(out))
        assert meta["noise_floor"] == 0.0
        assert meta["n_dropped"] == 0
        assert meta["n_modes"] == len(catalog_z(read_resonances(out))) == 3

    def test_weyl_artifact(self, tmp_path):
        res = tmp_path / "r.json"
        cfg = _cfg(tmp_path, "mu_max = 400\nweyl_b = 5\n")
        assert main(["resonances", "--config", cfg, "--quiet",
                     "--out", str(res)]) == 0
        out = tmp_path / "weyl.csv"
        assert main(["weyl", "--resonances", str(res), "--config", cfg,
                     "--quiet", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["b", "count"]
        meta = read_json(sidecar_path(out))
        assert 0.9 < meta["slope"] < 1.05

    def test_band_pipeline(self, tmp_path):
        cfg = _cfg(tmp_path, FAST_EDGES + "mu_max = 120\n")
        edges_path = tmp_path / "edges.csv"
        assert main(["band-edges", "--config", cfg, "--k", "1",
                     "--quiet", "--out", str(edges_path)]) == 0
        res_path = tmp_path / "r.json"
        assert main(["resonances", "--config", cfg, "--kmax", "1",
                     "--quiet", "--out", str(res_path)]) == 0
        bands_path = tmp_path / "bands.csv"
        assert main(["bands", "--resonances", str(res_path),
                     "--edges", str(edges_path), "--quiet",
                     "--out", str(bands_path)]) == 0
        meta = read_json(sidecar_path(bands_path))
        assert meta["n_violations"] == 0

    def test_catalogue_bytes_are_pinned(self, tmp_path):
        # the reproduce-fig2 catalogue size (32 008 entries) and its band
        # tally against the closed-form edges -1/2 - k; the digests pin the
        # order and every bit of the files, which a comparison of the
        # writer with the records reference cannot
        from anosovlab.birkhoff import BandEdges
        from anosovlab.tableio import write_band_edges

        cfg = _cfg(tmp_path, "mu_max = 4000\n")
        res = tmp_path / "resonances.json"
        assert main(["resonances", "--config", cfg, "--quiet",
                     "--out", str(res)]) == 0
        edges = tmp_path / "edges.csv"
        write_band_edges(edges, [BandEdges(
            k=k, gamma_minus=-0.5 - k, gamma_plus=-0.5 - k, horizon=10.0,
            n_orbits=1, extrapolation_error=0.0) for k in range(4)])
        bands = tmp_path / "bands.csv"
        assert main(["bands", "--config", cfg, "--resonances", str(res),
                     "--edges", str(edges), "--quiet",
                     "--out", str(bands)]) == 0
        assert read_json(sidecar_path(res))["n_entries"] == 32008
        digests = [hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (res, bands)]
        assert digests == [
            "e255c06a6c9497c3f34198604573790ad907ce8320edac80cc8823f42b4dcd14",
            "bca8dfdf7c25dbe5be7387dde6e5642446258e15dfd03fe383b49c38b3d2d4cb",
        ]

    def test_orbit_dump_columns(self, tmp_path):
        cfg = _cfg(tmp_path, "dt = 0.5\npotential_u_half = 1.0\n")
        out = tmp_path / "orbit.csv"
        assert main(["orbit-dump", "--config", cfg, "--t", "5",
                     "--quiet", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "x", "y", "theta", "u", "D"]
        assert len(rows) == 11
        # V = u/2 makes the damping (u - 1)/2 vanish on the exact model
        assert all(float(r[5]) == 0.0 for r in rows)

    def test_verify_artifact(self, tmp_path):
        cfg = _cfg(tmp_path, "verify_samples = 10\nverify_time = 10\n"
                             "ks_samples = 2000\nstep = 0.02\n"
                             "riccati_burn = 5\n")
        out = tmp_path / "verify.json"
        assert main(["verify-anosov", "--config", cfg, "--quiet",
                     "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["passed"] is True
        assert payload["lambda_min"] == pytest.approx(1.0, abs=1e-6)
        assert "volume_ks" in payload


class TestExplicitZeros:
    """An explicit 0 or empty input on the command line is used, never
    swapped for a default."""

    def test_bands_eps_zero_is_recorded(self, tmp_path):
        from anosovlab.birkhoff import BandEdges
        from anosovlab.tableio import write_band_edges

        res = tmp_path / "r.json"
        cfg = _cfg(tmp_path, "mu_max = 60\n")
        assert main(["resonances", "--config", cfg, "--kmax", "0",
                     "--quiet", "--out", str(res)]) == 0
        edges = tmp_path / "edges.csv"
        write_band_edges(edges, [BandEdges(
            k=0, gamma_minus=-0.5, gamma_plus=-0.5, horizon=10.0,
            n_orbits=1, extrapolation_error=0.0)])
        out = tmp_path / "bands.csv"
        assert main(["bands", "--resonances", str(res), "--edges", str(edges),
                     "--eps", "0", "--quiet", "--out", str(out)]) == 0
        assert read_json(sidecar_path(out))["eps"] == 0.0

    def test_invert_max_modes_zero_raises(self, tmp_path, capsys):
        from anosovlab.correlation import CorrelationSeries
        from anosovlab.tableio import write_series

        t = 0.1 * np.arange(200)
        series = tmp_path / "series.csv"
        # long enough that the default of 12 modes would run
        write_series(series, CorrelationSeries(
            dt=0.1, values=np.exp(-0.5 * t) * np.cos(t),
            stderr=np.full(len(t), 1e-3)))
        out = tmp_path / "modes.json"
        assert main(["invert", "--series", str(series), "--max-modes", "0",
                     "--quiet", "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "InversionError"
        assert "max_modes" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("u, v", [("", ""), ("cos=1", " , ")])
    def test_correlate_empty_observable_raises(self, tmp_path, capsys, u, v):
        # empty text is not the default bump / cos pair
        cfg = _cfg(tmp_path, "dt = 0.25\nn_lags = 4\nn_samples = 10\n")
        out = tmp_path / "s.csv"
        assert main(["correlate", "--config", cfg, "--u", u, "--v", v,
                     "--quiet", "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    def test_resonances_empty_spectrum_path_raises(self, tmp_path, capsys):
        # an empty path is read like any other, not swapped for the
        # synthetic spectrum
        out = tmp_path / "r.json"
        assert main(["resonances", "--spectrum", "", "--quiet",
                     "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith("cannot read : ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, missing", [
        (["invert", "--series", "{tmp}/missing.csv"], "missing.csv"),
        (["bands", "--resonances", "{tmp}/missing.json",
          "--edges", "{tmp}/missing.csv"], "missing.json"),
    ], ids=["invert", "bands"])
    def test_missing_input_file_raises(self, tmp_path, capsys, argv, missing):
        # an unreadable input fails as a ConfigError naming the path, as an
        # unreadable config does
        out = tmp_path / "out"
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv + ["--quiet", "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith(
            "cannot read %s: " % (tmp_path / missing))
        assert not out.exists()

    def test_empty_config_path_raises(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["resonances", "--config", "", "--quiet",
                     "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()


class TestFigurePipeline:
    def test_smoke(self, tmp_path, monkeypatch):
        from anosovlab import cli

        builds = []
        build = cli._model
        monkeypatch.setattr(cli, "_model",
                            lambda cfg: builds.append(cfg) or build(cfg))
        cfg = _cfg(tmp_path, FAST_EDGES + """
mu_max = 60
weyl_b = 5
concentration_b_max = 7
verify_samples = 10
verify_time = 10
ks_samples = 2000
step = 0.02
riccati_burn = 5
n_samples = 2000
""")
        out_dir = tmp_path / "fig2"
        assert main(["reproduce-fig2", "--config", cfg, "--quiet",
                     "--out", str(out_dir)]) == 0
        for name in ("verify.json", "band_edges.csv", "resonances.json",
                     "bands.csv", "weyl.csv", "concentration.csv"):
            assert (out_dir / name).exists(), name
            assert (out_dir / (name + ".meta.json")).exists(), name
        bands_meta = read_json(out_dir / "bands.csv.meta.json")
        assert bands_meta["n_violations"] == 0
        conc_meta = read_json(out_dir / "concentration.csv.meta.json")
        assert conc_meta["nonincreasing"] is True
        assert len(builds) == 1  # one model serves every stage

    def test_in_memory_stages_match_standalone_pipelines(self, tmp_path):
        # reproduce-fig2 hands its catalogue and edges over in memory; the
        # standalone pipelines read them back from its files
        cfg = _cfg(tmp_path, FAST_EDGES + """
mu_max = 60
weyl_b = 5
concentration_b_max = 7
verify_samples = 4
verify_time = 4
ks_samples = 500
n_samples = 500
""")
        fig2 = tmp_path / "fig2"
        assert main(["reproduce-fig2", "--config", cfg, "--seed", "3",
                     "--quiet", "--out", str(fig2)]) == 0
        d_mean = read_json(fig2 / "concentration.csv.meta.json")["d_mean"]
        res, edges = str(fig2 / "resonances.json"), str(fig2 / "band_edges.csv")
        alone = tmp_path / "alone"
        alone.mkdir()
        runs = {
            "bands.csv": ["bands", "--resonances", res, "--edges", edges],
            "weyl.csv": ["weyl", "--resonances", res, "--k", "0"],
            "concentration.csv": ["concentrate", "--resonances", res,
                                  "--dmean", repr(d_mean)],
        }
        for name, argv in runs.items():
            assert main(argv + ["--config", cfg, "--seed", "3", "--quiet",
                                "--out", str(alone / name)]) == 0
            for artifact in (name, name + ".meta.json"):
                assert (alone / artifact).read_bytes() == \
                    (fig2 / artifact).read_bytes(), artifact

    def test_artifact_bytes_are_pinned(self, tmp_path):
        # every artifact, and every sidecar less its machine-dependent
        # versions entry, keeps its bytes across refactors of the CLI
        cfg = _cfg(tmp_path, FAST_EDGES + """
mu_max = 60
weyl_b = 5
concentration_b_max = 7
verify_samples = 4
verify_time = 4
ks_samples = 500
n_samples = 500
""")
        fig2 = tmp_path / "fig2"
        assert main(["reproduce-fig2", "--config", cfg, "--seed", "3",
                     "--quiet", "--out", str(fig2)]) == 0
        digests = {}
        for path in sorted(fig2.iterdir()):
            data = path.read_bytes()
            if path.name.endswith(".meta.json"):
                meta = json.loads(data)
                del meta["versions"]
                data = (json.dumps(meta, sort_keys=True, indent=2)
                        + "\n").encode()
            digests[path.name] = hashlib.sha256(data).hexdigest()
        assert digests == {
            "band_edges.csv":
                "e6447209f8d0c31a9238ba9eacc15aeeaa80fd03f66309123e2187f6d710d396",
            "band_edges.csv.meta.json":
                "cddcccf2021114dd06d1c0f10992a1d295b702473dd50292be72cb8ed2a12485",
            "bands.csv":
                "d3151b5f90591c2d919eb2e13e5cec11ee43f479e05e77d5df7779f6021f99ce",
            "bands.csv.meta.json":
                "878d103d89413d2e94bb7931773bd4226bf834e642518fc848f085d04dce5807",
            "concentration.csv":
                "f8708cc2d587b17380387a4485545b0c903496de4e2da9870867569bc0e939ca",
            "concentration.csv.meta.json":
                "9afd62760b753d51941ad0eda95bbbcffb03a60d97cf108ff22591761a8e3bcb",
            "resonances.json":
                "3153db150d84e4a6879967f646ce03116709ac15917a2a3a3101ba993a261246",
            "resonances.json.meta.json":
                "975e43bec42424a7754abf75a5c67e569371d2d942f17d8c31b64f6c97cbe8ab",
            "verify.json":
                "a5c04ba61c35c9b1a6634145a89ebf198d55c9095084b6213610396d2fb3edf2",
            "verify.json.meta.json":
                "2504272f7304f60a18ce0818ad747f63bc0de6ed57d9db3b6902d47427335100",
            "weyl.csv":
                "b6e277ee55af07a2337708ceeedf1a5b3b6a600d7cf97bbbfef403b81f92d3f8",
            "weyl.csv.meta.json":
                "1b4b4da3e8439fd5363db8475befb0716326d43f31ac3e8a9f099e0be3b0aec0",
        }
