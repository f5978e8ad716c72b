"""End-to-end tests of the command line driver (in process)."""
import ast
import glob
import hashlib
import importlib
import inspect
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


def test_package_imports_load_no_scipy(tmp_path):
    # the runtime is numpy only: with scipy blocked, every module imports and
    # a whole reproduce-fig2 run writes its six artifacts and six sidecars
    import anosovlab

    cfg = _cfg(tmp_path, FAST_EDGES + """
mu_max = 60
weyl_b = 5
concentration_b_max = 7
verify_samples = 4
verify_time = 4
ks_samples = 500
n_samples = 500
""")
    out = tmp_path / "fig2"
    code = ("import pkgutil, sys\n"
            "sys.modules['scipy'] = None\n"
            "import anosovlab, anosovlab.cli\n"
            "for m in pkgutil.iter_modules(anosovlab.__path__):\n"
            "    __import__('anosovlab.' + m.name)\n"
            "sys.exit(anosovlab.cli.main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(anosovlab.__file__)))
    run = subprocess.run([sys.executable, "-c", code, "reproduce-fig2",
                          "--config", cfg, "--quiet", "--out", str(out)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert sorted(os.listdir(out)) == sorted(
        name + meta for name in ("verify.json", "band_edges.csv",
                                 "resonances.json", "bands.csv", "weyl.csv",
                                 "concentration.csv")
        for meta in ("", ".meta.json"))


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
        assert main(["orbit-dump", "--config", cfg, "--t", "1", "--quiet",
                     "--out", str(tmp_path / "o.csv")]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        # the refusal names the setting and the step
        assert payload["message"] == (
            "t = 1 is not a nonnegative multiple of the step 0.3")

    def test_negative_band_index(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, FAST_EDGES)
        out = tmp_path / "edges.csv"
        assert self._error(capsys, [
            "band-edges", "--config", cfg, "--k", "-1", "--quiet",
            "--out", str(out)]) == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("word_length", "0"),
                                            ("max_closed", "-5")])
    def test_band_edges_refuses_nonsense_word_settings(self, tmp_path, capsys,
                                                       key, value):
        # neither is quietly replaced by one seed or by no word seeds
        lines = [line for line in FAST_EDGES.splitlines()
                 if not line.startswith(key)]
        cfg = _cfg(tmp_path, "\n".join(lines + ["%s = %s" % (key, value)]) + "\n")
        out = tmp_path / "edges.csv"
        assert main(["band-edges", "--config", cfg, "--quiet",
                     "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert key in payload["message"]
        assert not out.exists()

    def test_band_edges_refuses_a_negative_cap_without_words(self, tmp_path,
                                                             capsys):
        # the plan refuses it when built, though no word seed is drawn
        cfg = _cfg(tmp_path, FAST_EDGES.replace("max_closed = 40", "max_closed = -5")
                   + "seed_rule = liouville\n")
        out = tmp_path / "edges.csv"
        assert main(["band-edges", "--config", cfg, "--quiet",
                     "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert "max_closed" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("word_length", "0"),
                                            ("max_closed", "-5")])
    def test_verify_refuses_nonsense_word_settings(self, tmp_path, capsys,
                                                   key, value):
        # verify seeds from band-edges' keys and refuses them the same way
        cfg = _cfg(tmp_path, "verify_samples = 4\nverify_time = 1\n%s = %s\n"
                   % (key, value))
        out = tmp_path / "verify.json"
        assert main(["verify-anosov", "--config", cfg, "--quiet",
                     "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert key in payload["message"]
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

    @pytest.mark.parametrize("argv, text, setting", [
        (["concentrate", "--dmean", "nan"], "", "d_mean"),
        (["concentrate", "--dmean=-inf"], "", "d_mean"),
        (["concentrate", "--dmean", "-0.5"], "concentration_b_max = nan\n",
         "b_max"),
        (["concentrate", "--dmean", "-0.5", "--bmax", "inf"], "", "b_max"),
        (["bands"], "band_eps = nan\n", "eps"),
        (["bands", "--eps", "inf"], "", "eps"),
        (["bands"], "im_cutoff = nan\n", "im_cutoff"),
        (["bands", "--im-cutoff", "inf"], "", "im_cutoff"),
    ], ids=["dmean-nan", "dmean-inf", "bmax-nan", "bmax-inf", "eps-nan",
            "eps-inf", "im-cutoff-nan", "im-cutoff-inf"])
    def test_statistics_refuse_non_finite_inputs(self, tmp_path, capsys,
                                                 argv, text, setting):
        # a NaN or infinite statistics input is refused, not turned into a
        # NaN ladder, a non-JSON "final": NaN or a silent run of violations
        from anosovlab.birkhoff import BandEdges
        from anosovlab.tableio import write_band_edges

        res = tmp_path / "r.json"
        assert main(["resonances", "--out", str(res), "--quiet"]) == 0
        if argv[0] == "bands":
            edges = tmp_path / "edges.csv"
            write_band_edges(edges, [BandEdges(
                k=0, gamma_minus=-0.6, gamma_plus=-0.4, horizon=10.0,
                n_orbits=1, extrapolation_error=0.0)])
            argv = argv + ["--edges", str(edges)]
        out = tmp_path / "stat.csv"
        assert main(argv + ["--config", _cfg(tmp_path, text), "--resonances",
                            str(res), "--quiet", "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert " %s must" % setting in " " + payload["message"]
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

    @pytest.mark.parametrize("text, setting", [
        ("model = conformal_perturbation\nverify_time = 0\n", "verify_time"),
        ("verify_time = 0\n", "verify_time"),
        ("verify_samples = -1\n", "verify_samples"),
        ("verify_samples = 2\nverify_time = 1\nks_samples = 0\n", "ks_samples"),
        ("verify_time = 0.0033\nstep = 0.01\n",
         "verify_time = 0.0033 is not a nonnegative multiple of the step 0.01"),
    ], ids=["zero-time-perturbed", "zero-time-exact", "negative-samples",
            "zero-ks-samples", "time-not-a-multiple"])
    def test_verify_bad_sizes(self, tmp_path, capsys, text, setting):
        # a zero-length check is refused, not reported as passed or as NaN;
        # so is one that is not a whole number of steps
        out = tmp_path / "verify.json"
        assert main(["verify-anosov", "--config", _cfg(tmp_path, text),
                     "--quiet", "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert setting in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, term", [("--u", "cos=1"), ("--v", "sin=1")])
    def test_correlate_refuses_angle_terms(self, tmp_path, capsys, flag, term):
        # the disk-frame angle harmonics are not observables on the surface
        cfg = _cfg(tmp_path, "dt = 0.25\nn_lags = 4\nn_samples = 10\n")
        out = tmp_path / "s.csv"
        assert main(["correlate", "--config", cfg, flag, term, "--quiet",
                     "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert "unknown observable term %r" % term[:3] in payload["message"]
        assert not out.exists()
        assert not os.path.exists(sidecar_path(out))

    @pytest.mark.parametrize("term, field", [
        ("bump_sigma=0", "bump_sigma"), ("bump_center=2+0j", "bump_center")])
    def test_correlate_refuses_a_bump_it_cannot_evaluate(self, tmp_path,
                                                        capsys, term, field):
        # a zero width divides by zero and a centre off the disk has no
        # half-plane point: no series may come of either
        cfg = _cfg(tmp_path, "dt = 0.25\nn_lags = 8\nn_samples = 100\n")
        out = tmp_path / "s.csv"
        assert main(["correlate", "--config", cfg, "--u", "bump=1," + term,
                     "--quiet", "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert field in payload["message"]
        assert not out.exists()
        assert not os.path.exists(sidecar_path(out))

    @pytest.mark.parametrize("raw", [["--raw-mean"], []])
    def test_shape_observable_on_exact_model(self, tmp_path, capsys, raw):
        cfg = _cfg(tmp_path, "dt = 0.25\nn_lags = 10\nn_samples = 100\n")
        assert self._error(capsys, [
            "correlate", "--config", cfg, "--u", "shape=1", "--v", "shape=1",
            "--quiet", "--out", str(tmp_path / "s.csv")] + raw) == "ConfigError"

    def test_threads_refused_without_threadpoolctl(self, tmp_path, capsys,
                                                   monkeypatch):
        # a given --threads that could pin nothing is refused; an absent one
        # runs as before
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        out = tmp_path / "r.json"
        assert main(["resonances", "--threads", "7", "--quiet",
                     "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ConfigError"
        assert "threadpoolctl" in payload["message"]
        assert not out.exists()
        assert main(["resonances", "--quiet", "--out", str(out)]) == 0

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
                     "--u", "bump=1", "--v", "bump=1",
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
                     "--u", "bump=1", "--v", "bump=1", "--out", str(out)]) == 0
        meta = read_json(sidecar_path(out))
        assert (meta["n_samples"], meta["n_orbits"], meta["stride"],
                meta["orbit_length"]) == (100, 5, 2, 68)

    def test_correlate_without_v_is_the_autocorrelation(self, tmp_path):
        # no --v correlates --u with itself: the same bytes as --v = --u;
        # with no --u either, that is the default bump's autocorrelation
        cfg = _cfg(tmp_path, "dt = 0.25\nn_lags = 20\nn_samples = 100\n")
        argv = ["correlate", "--config", cfg, "--quiet"]
        outs = [tmp_path / name for name in ("none.csv", "u.csv", "uv.csv")]
        for given, out in zip([[], ["--u", "bump=1"],
                               ["--u", "bump=1", "--v", "bump=1"]], outs):
            assert main(argv + given + ["--out", str(out)]) == 0
        for out in outs[1:]:
            assert out.read_bytes() == outs[0].read_bytes()
            with open(sidecar_path(out), "rb") as a, \
                    open(sidecar_path(outs[0]), "rb") as b:
                assert a.read() == b.read()

    def test_correlate_estimates_the_expansion_rate_once(self, tmp_path,
                                                         monkeypatch):
        # u and v both carry a u term on a perturbed model: one ensemble
        # estimates <u> for both mean-zero shifts, and one more is the
        # correlation stream's own five orbits
        from anosovlab.birkhoff import MEAN_ORBITS
        from anosovlab.flow import MidpointEnsemble

        burn_in, sizes = MidpointEnsemble.burn_in, []
        monkeypatch.setattr(MidpointEnsemble, "burn_in",
                            lambda ens: sizes.append(ens.n) or burn_in(ens))
        cfg = _cfg(tmp_path, "model = conformal_perturbation\nepsilon = 0.05\n"
                             "step = 0.02\nriccati_burn = 2\ndt = 0.1\n"
                             "n_lags = 20\nn_samples = 100\n")
        assert main(["correlate", "--config", cfg, "--u", "u_half=1,bump=1",
                     "--v", "bump=1,bump_sigma=0.4,u_half=1", "--quiet",
                     "--out", str(tmp_path / "series.csv")]) == 0
        assert sizes == [MEAN_ORBITS, 5]

    def test_invert_drops_modes_below_the_noise_floor(self, tmp_path,
                                                      catalog_z):
        # at this seed the unfiltered inversion returns a growing pair whose
        # amplitude lies far below 5 median(stderr) of the series
        cfg = _cfg(tmp_path, "dt = 0.25\nn_lags = 120\nn_samples = 4000\n")
        series_path = tmp_path / "series.csv"
        assert main(["correlate", "--config", cfg, "--quiet", "--seed", "3",
                     "--u", "bump=1", "--v", "bump=1",
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
        assert meta["n_dropped"] >= 1
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

    def test_verify_seeds_follow_the_plan_keys(self, tmp_path):
        # 4 volume seeds plus the 35 distinct closed seeds through
        # word_length 4, as band-edges draws them, not 128 at length 6
        cfg = _cfg(tmp_path, FAST_EDGES + "verify_samples = 4\n"
                   "verify_time = 4\nks_samples = 500\n")
        out = tmp_path / "verify.json"
        assert main(["verify-anosov", "--config", cfg, "--quiet",
                     "--out", str(out)]) == 0
        assert read_json(out)["n_samples"] == 39


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

    @pytest.mark.parametrize("u, v", [("", ""), ("bump=1", " , ")])
    def test_correlate_empty_observable_raises(self, tmp_path, capsys, u, v):
        # empty text is not the default bump autocorrelation
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

    FAST = FAST_EDGES + """
mu_max = 60
weyl_b = 5
concentration_b_max = 7
verify_samples = 4
verify_time = 4
ks_samples = 500
"""

    def test_k_band_sets_the_edges(self, tmp_path):
        # the k_band key is used, not replaced by the chain's own k = 3
        fig2 = tmp_path / "fig2"
        assert main(["reproduce-fig2", "--config",
                     _cfg(tmp_path, self.FAST + "k_band = 1\n"), "--quiet",
                     "--out", str(fig2)]) == 0
        _, rows = read_csv(fig2 / "band_edges.csv")
        assert [int(r[0]) for r in rows] == [0, 1]

    def test_explicit_d_mean_sets_the_line(self, tmp_path, monkeypatch):
        # a d_mean key, even 0, is the concentration line, and <D> is not
        # estimated; the estimate would read -1/2 on this model
        from anosovlab import birkhoff

        def unused(*args, **kwargs):
            raise AssertionError("space_average ran")

        monkeypatch.setattr(birkhoff, "space_average", unused)
        fig2 = tmp_path / "fig2"
        assert main(["reproduce-fig2", "--config",
                     _cfg(tmp_path, self.FAST + "d_mean = 0\n"), "--quiet",
                     "--out", str(fig2)]) == 0
        assert read_json(fig2 / "concentration.csv.meta.json")["d_mean"] == 0.0

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
                "a5bc5adc0de5f4362c259dfe378645bf2eb3bfadb01c8f9e618bac26baaaa851",
            "verify.json.meta.json":
                "2504272f7304f60a18ce0818ad747f63bc0de6ed57d9db3b6902d47427335100",
            "weyl.csv":
                "b6e277ee55af07a2337708ceeedf1a5b3b6a600d7cf97bbbfef403b81f92d3f8",
            "weyl.csv.meta.json":
                "1b4b4da3e8439fd5363db8475befb0716326d43f31ac3e8a9f099e0be3b0aec0",
        }


class _Called(Exception):
    pass


# One row per library entry point a handler calls: the pipeline, its other
# arguments, a config prefix, the patched module and name, what the handler
# passes of its own, and each setting as parameter: (config key, flag or
# None, a value).
_SETTINGS = [
    ("band-edges", [], "", "anosovlab.birkhoff", "band_edges_upto", {},
     {"k_max": ("k_band", "--k", 2)}),
    ("band-edges", [], "", "anosovlab.model", "PotentialSpec", {},
     {"c0": ("potential_const", None, 0.5), "c1": ("potential_shape", None, 0.25),
      "c2": ("potential_u_half", None, 1.0)}),
    ("resonances", [], "", "anosovlab.catalog", "synthetic_weyl_spectrum", {},
     {"area": ("area", None, 8.0), "mu_max": ("mu_max", None, 30.0),
      "jitter": ("jitter", None, 0.25)}),
    ("resonances", [], "", "anosovlab.catalog", "resonances_from_laplacian", {},
     {"k_max": ("k_max", "--kmax", 2), "n_max": ("n_max", "--nmax", 2)}),
    ("correlate", ["--raw-mean"], "", "anosovlab.correlation",
     "correlation_series", {},
     {"dt": ("dt", None, 0.5), "n_lags": ("n_lags", None, 7),
      "n_samples": ("n_samples", None, 9)}),
    ("invert", ["--series", "{series}"], "", "anosovlab.inversion",
     "harmonic_inversion", {},
     {"max_modes": ("max_modes", "--max-modes", 2),
      "sv_threshold": ("sv_threshold", "--sv-threshold", 0.5)}),
    ("weyl", ["--resonances", "{res}"], "", "anosovlab.stats", "weyl_count",
     {"k": 0},
     {"b": ("weyl_b", "--b", 2.0), "eps_exponent": ("eps_exponent", None, 0.5),
      "b_max": ("weyl_b_max", "--bmax", 30.0)}),
    ("bands", ["--resonances", "{res}", "--edges", "{edges}"], "",
     "anosovlab.stats", "band_membership", {"eps": 1e-3},
     {"eps": ("band_eps", "--eps", 0.25),
      "im_cutoff": ("im_cutoff", "--im-cutoff", 2.0)}),
    ("concentrate", ["--resonances", "{res}", "--dmean", "-0.5"], "",
     "anosovlab.stats", "concentration", {"d_mean": -0.5},
     {"b_max": ("concentration_b_max", "--bmax", 30.0)}),
    ("verify-anosov", [], "", "anosovlab.flow", "verify_anosov", {},
     {"n_samples": ("verify_samples", None, 3),
      "t_check": ("verify_time", None, 2.0),
      "word_length": ("word_length", None, 3),
      "max_closed": ("max_closed", None, 5)}),
    ("verify-anosov", [], "verify_samples = 0\nverify_time = 1\n",
     "anosovlab.flow", "liouville_ks", {}, {"n": ("ks_samples", None, 7)}),
    ("orbit-dump", [], "", "anosovlab.flow", "_step_count",
     {"T": 50.0, "h": 0.1}, {"T": ("horizon", "--t", 7.0), "h": ("dt", None, 0.5)}),
]


@pytest.mark.parametrize("row", _SETTINGS, ids=[
    "%s-%s" % (row[0], row[4]) for row in _SETTINGS])
def test_settings_flag_else_key_else_callee_default(tmp_path, monkeypatch,
                                                    row):
    # an empty config passes no setting, so the callee's defaults apply; a
    # config key is passed under the parameter's name; a flag beats the key,
    # and an explicit 0 is kept
    from anosovlab.birkhoff import BandEdges
    from anosovlab.correlation import CorrelationSeries
    from anosovlab.tableio import write_band_edges, write_series

    pipeline, argv, base, module, name, own, settings = row
    files = {"res": tmp_path / "r.json", "edges": tmp_path / "edges.csv",
             "series": tmp_path / "series.csv"}
    assert main(["resonances", "--quiet", "--out", str(files["res"])]) == 0
    write_band_edges(files["edges"], [BandEdges(
        k=0, gamma_minus=-0.6, gamma_plus=-0.4, horizon=10.0, n_orbits=1,
        extrapolation_error=0.0)])
    write_series(files["series"], CorrelationSeries(
        dt=0.1, values=np.exp(-0.1 * np.arange(60)), stderr=np.zeros(60)))
    argv = [a.format(**files) for a in argv]

    mod = importlib.import_module(module)
    signature = inspect.signature(getattr(mod, name))
    calls = []

    def called(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        raise _Called

    monkeypatch.setattr(mod, name, called)

    def passed(text, flags):
        calls.clear()
        assert main([pipeline, *argv, *flags, "--config",
                     _cfg(tmp_path, base + text), "--quiet",
                     "--out", str(tmp_path / "out")]) == 1
        (bound,) = calls
        return {p: bound[p] for p in {**own, **settings} if p in bound}

    keys = "".join("%s = %r\n" % (key, value)
                   for key, _, value in settings.values())
    zeros = [a for _, flag, _ in settings.values() if flag for a in (flag, "0")]
    assert passed("", []) == own
    assert passed(keys, []) == {**own, **{
        p: value for p, (_, _, value) in settings.items()}}
    assert passed(keys, zeros) == {**own, **{
        p: 0 if flag else value for p, (_, flag, value) in settings.items()}}
