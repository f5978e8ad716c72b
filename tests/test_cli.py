"""End-to-end tests of the command line driver (in process)."""
import json

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

    def test_correlate_then_invert(self, tmp_path):
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
        zs = modes.zs()
        assert len(zs) >= 1
        assert np.all(zs.real < 0.0)
        # inverted output remains closed under conjugation
        assert modes.conjugation_defect() == 0.0

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
    """An explicit 0 on the command line is used, never swapped for a default."""

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


class TestFigurePipeline:
    def test_smoke(self, tmp_path):
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
