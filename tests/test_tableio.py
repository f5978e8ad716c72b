"""Tests for deterministic CSV/JSON artifacts and sidecars."""
import json

import numpy as np
import pytest

from anosovlab.birkhoff import BandEdges
from anosovlab.catalog import (
    EXCEPTIONAL,
    UNASSIGNED,
    ResonanceList,
    resonances_from_laplacian,
    synthetic_weyl_spectrum,
)
from anosovlab.correlation import CorrelationSeries
from anosovlab.errors import ConfigError
from anosovlab.inversion import ModeSet
from anosovlab.tableio import (
    read_band_edges,
    read_csv,
    read_json,
    read_resonances,
    read_series,
    read_spectrum,
    sidecar_path,
    write_band_edges,
    write_csv,
    write_json,
    write_metadata,
    write_modes,
    write_orbit_dump,
    write_resonances,
    write_series,
)


class TestCsvJson:
    def test_float_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        values = [1.0 / 3.0, np.pi, 1e-17, -2.5]
        write_csv(path, ("x",), [(v,) for v in values])
        _, rows = read_csv(path)
        assert [float(r[0]) for r in rows] == values

    def test_special_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b", "c"), [(None, True, 7)])
        _, rows = read_csv(path)
        assert rows == [["", "true", "7"]]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            read_csv(path)

    def test_json_bytes_deterministic(self, tmp_path):
        obj = {"zeta": 1, "alpha": [1.5, None], "mid": {"b": 2, "a": 1}}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(p1, obj)
        write_json(p2, obj)
        assert p1.read_bytes() == p2.read_bytes()
        assert read_json(p1) == obj


class TestMetadata:
    def test_sidecar_contents(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon = 0.05\n")
        artifact = tmp_path / "out.csv"
        write_metadata(artifact, seed=42, config_path=cfg,
                       extra={"area": 12.56})
        meta = read_json(sidecar_path(artifact))
        assert meta["seed"] == 42
        assert meta["area"] == 12.56
        assert len(meta["config_sha256"]) == 64
        assert set(meta["versions"]) == {"python", "numpy", "anosovlab"}

    def test_sidecar_without_config(self, tmp_path):
        artifact = tmp_path / "out.csv"
        write_metadata(artifact, seed=0)
        meta = read_json(sidecar_path(artifact))
        assert meta["config_sha256"] is None

    def test_sidecar_bytes_deterministic(self, tmp_path):
        a, b = tmp_path / "x.csv", tmp_path / "y.csv"
        write_metadata(a, seed=7)
        write_metadata(b, seed=7)
        assert (tmp_path / "x.csv.meta.json").read_bytes() \
            == (tmp_path / "y.csv.meta.json").read_bytes()


class TestBandEdgeTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "edges.csv"
        edges = [
            BandEdges(k=k, gamma_minus=-0.5 - k - 1e-5, gamma_plus=-0.5 - k,
                      horizon=200.0, n_orbits=1000,
                      extrapolation_error=3.2e-7)
            for k in range(3)
        ]
        write_band_edges(path, edges)
        back = read_band_edges(path)
        assert [e.k for e in back] == [0, 1, 2]
        for orig, loaded in zip(edges, back):
            assert loaded.gamma_minus == orig.gamma_minus
            assert loaded.gamma_plus == orig.gamma_plus
            assert loaded.extrapolation_error == orig.extrapolation_error

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ("x", "y"), [(1, 2)])
        with pytest.raises(ConfigError, match="band-edge"):
            read_band_edges(path)


class TestSeriesTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "corr.csv"
        series = CorrelationSeries(
            dt=0.05,
            values=np.array([4.0, 3.1, 2.5]),
            stderr=np.array([0.01, 0.01, 0.02]),
        )
        write_series(path, series)
        back = read_series(path)
        assert back.dt == 0.05
        assert np.array_equal(back.values, series.values)
        assert np.array_equal(back.stderr, series.stderr)

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ("t", "value"), [(0.0, 1.0)])
        with pytest.raises(ConfigError, match="correlation series"):
            read_series(path)

    def test_nonuniform_grid(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ("t", "C", "stderr"),
                  [(0.0, 1.0, 0.0), (0.1, 0.9, 0.0), (0.3, 0.8, 0.0)])
        with pytest.raises(ConfigError, match="uniform"):
            read_series(path)

    def test_short_series(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ("t", "C", "stderr"), [(0.0, 1.0, 0.0)])
        with pytest.raises(ConfigError, match="too short"):
            read_series(path)


class TestSpectrumTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "mu.csv"
        spectrum = synthetic_weyl_spectrum(area=4.0 * np.pi, mu_max=30.0,
                                           jitter=0.2, seed=3)
        # the layout `resonances --spectrum` reads: index,mu rows plus the
        # area in the sidecar
        write_csv(path, ("index", "mu"), enumerate(spectrum.eigenvalues))
        write_metadata(path, 3, extra={"area": spectrum.area,
                                       "source": spectrum.source})
        back = read_spectrum(path)
        assert back.area == spectrum.area
        assert np.array_equal(back.eigenvalues, spectrum.eigenvalues)
        assert back.source == "file"

    def test_missing_area_in_sidecar(self, tmp_path):
        path = tmp_path / "mu.csv"
        write_csv(path, ("index", "mu"), [(0, 0.0), (1, 1.0)])
        write_json(sidecar_path(path), {"seed": 0})
        with pytest.raises(ConfigError, match="area"):
            read_spectrum(path)


def _rows(*rows):
    """A resonance list from (re, im, band code, provenance) rows."""
    re, im, band, provenance = zip(*rows) if rows else ((),) * 4
    return ResonanceList(re=re, im=im, band=np.array(band, dtype=np.int64),
                         provenance=provenance)


# a quiet NaN with a payload; json writes every NaN as NaN
_NAN_PAYLOAD = np.array([0x7FF8000000000123]).view(np.float64)[0]


def _same_columns(a, b):
    return (a.re.tobytes() == b.re.tobytes()
            and a.im.tobytes() == b.im.tobytes()
            and a.band.tolist() == b.band.tolist()
            and a.provenance.tolist() == b.provenance.tolist())


class TestResonanceTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "res.json"
        entries = _rows((-0.5, 2.0, 0, "analytic"),
                        (-0.5, -2.0, 0, "analytic"),
                        (-1.0, 0.0, EXCEPTIONAL, "analytic"),
                        (-0.25, -0.0, UNASSIGNED, "inverted"))
        write_resonances(path, entries)
        assert _same_columns(read_resonances(path), entries)
        catalog = resonances_from_laplacian(synthetic_weyl_spectrum(
            area=4.0 * np.pi, mu_max=50.0, jitter=0.3, seed=5), 2, 2)
        write_resonances(path, catalog)
        assert _same_columns(read_resonances(path), catalog)

    def test_reads_mode_files(self, tmp_path, catalog_z):
        path = tmp_path / "modes.json"
        modes = ModeSet(
            z=np.array([-0.5 + 2.0j, -0.5 - 2.0j]),
            amplitude=np.array([1.0 + 0.5j, 1.0 - 0.5j]),
            singular_values=np.array([3.0, 1.0, 1e-9]),
            residual=1.2e-8,
            dt=0.05,
        )
        write_modes(path, modes)
        back = read_resonances(path)
        assert len(back) == 2
        assert back.provenance.tolist() == ["inverted"] * 2
        assert back.band.tolist() == [UNASSIGNED] * 2
        assert catalog_z(back).tolist() == [-0.5 + 2.0j, -0.5 - 2.0j]
        raw = json.loads(path.read_text())
        assert raw["residual"] == pytest.approx(1.2e-8)
        assert raw["dt"] == 0.05

    @pytest.mark.parametrize("resonances", [
        resonances_from_laplacian(synthetic_weyl_spectrum(
            area=4.0 * np.pi, mu_max=120.0, jitter=0.3, seed=5), 3, 2),
        _rows(),
        _rows((-0.5, 2.0, 0, "analytic"),
              (-0.5, -0.0, 0, "analytic"),
              (0.1, 0.0, EXCEPTIONAL, "analytic"),
              (-0.25, 1e-300, UNASSIGNED, "inverted"),
              (-3.0, 0.0, 12, "analytic")),
        _rows((float("nan"), 1.0, UNASSIGNED, "inverted"),
              (float("inf"), float("-inf"), 1, "analytic")),
        _rows((0.0, -0.0, 1, "analytic"),
              (-0.0, 0.0, 1, "analytic"),
              (0.0, 0.0, 2, "inverted"),
              (-0.0, -0.0, 2, "inverted")),
        _rows(*[(-0.5 - k, sign * 2.25, k, p) for k in (0, 1, 2)
                for sign in (1, -1) for p in ("analytic", "inverted")]),
        _rows((_NAN_PAYLOAD, float("nan"), UNASSIGNED, "inverted"),
              (float("nan"), _NAN_PAYLOAD, UNASSIGNED, "inverted"),
              (-_NAN_PAYLOAD, 1.0, 0, "analytic")),
        _rows((-1.5, 3.0, 1, "analytic")),
        _rows((0.2, 0.0, EXCEPTIONAL, "analytic"),
              (-0.3, 1.0, UNASSIGNED, "inverted"),
              (-0.5, 2.0, 0, "analytic"),
              (-1.5, 2.0, 1, "analytic"),
              (-2.5, -2.0, 2, "analytic"),
              (-10.5, 7.0, 10, "analytic"),
              (0.2, 0.0, EXCEPTIONAL, "analytic")),
        _rows(*[(-0.5 - i % 4, 0.25 * i, i % 4, "analytic")
                for i in range(8192)]),
        _rows(*[(-0.5 - i % 4, 0.25 * i, i % 4, "analytic")
                for i in range(8193)]),
    ], ids=["analytic", "empty", "bands_and_signed_zero", "non_finite",
            "zero_and_minus_zero", "repeats_across_bands", "nan_payloads",
            "single", "flags_and_bands", "two_blocks", "two_blocks_and_one"])
    def test_bytes_match_json_dump(self, tmp_path, resonances, records):
        path = tmp_path / "res.json"
        write_resonances(path, resonances)
        expected = json.dumps(records(resonances), sort_keys=True,
                              indent=2) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    def test_rejects_non_array(self, tmp_path):
        path = tmp_path / "bad.json"
        write_json(path, {"not": "resonances"})
        with pytest.raises(ConfigError, match="resonance array"):
            read_resonances(path)

    @pytest.mark.parametrize("field, value, message", [
        ("band", 1.7, "band"),
        ("band", True, "band"),
        ("band", False, "band"),
        ("band", -3, "band"),
        ("band", -1, "band"),
        ("band", None, "band"),
        ("band", "third", "band"),
        ("provenance", "guess", "provenance"),
        ("provenance", 0, "provenance"),
        ("re", None, "record 1"),
        ("re", True, "record 1"),
        ("im", "2.5", "record 1"),
        ("re", 10 ** 400, "record 1"),  # no float holds it
    ])
    def test_rejects_bad_record_values(self, tmp_path, field, value, message):
        path = tmp_path / "bad.json"
        records = [{"re": -0.5, "im": 2.0, "band": 0, "provenance": "analytic"}
                   for _ in range(3)]
        records[1][field] = value
        write_json(path, records)
        with pytest.raises(ConfigError, match="record 1") as exc:
            read_resonances(path)
        assert message in str(exc.value)

    @pytest.mark.parametrize("key", ["re", "im", "band", "provenance"])
    def test_rejects_missing_keys(self, tmp_path, key):
        path = tmp_path / "bad.json"
        records = [{"re": -0.5, "im": 2.0, "band": "exceptional",
                    "provenance": "analytic"} for _ in range(3)]
        del records[2][key]
        write_json(path, {"modes": records})
        with pytest.raises(ConfigError, match="record 2 lacks the key '%s'"
                           % key):
            read_resonances(path)

    def test_accepts_integral_float_bands(self, tmp_path):
        path = tmp_path / "float_band.json"
        write_json(path, [{"re": -1.5, "im": 2.0, "band": 1.0,
                           "provenance": "analytic"}])
        assert read_resonances(path).band.tolist() == [1]


class TestOrbitDump:
    def test_columns(self, tmp_path):
        path = tmp_path / "orbit.csv"
        t = np.array([0.0, 0.1])
        z = np.array([1j, 0.1 + 1.1j])
        write_orbit_dump(path, t, z, theta=[0.0, 0.05], u=[1.0, 1.0],
                         damping=[-0.5, -0.49])
        header, rows = read_csv(path)
        assert header == ["t", "x", "y", "theta", "u", "D"]
        assert len(rows) == 2
        assert float(rows[1][1]) == 0.1
        assert float(rows[1][2]) == 1.1
