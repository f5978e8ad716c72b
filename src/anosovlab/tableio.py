"""Deterministic CSV/JSON artifacts with provenance sidecars.

All floats are written as %.17g (exact round-trip), JSON keys are sorted,
and nothing records wall-clock time, so a fixed (config, seed) pair yields
byte-identical files.  Every artifact gets a `<name>.meta.json` sidecar
carrying the config hash, the seed, and library versions; domain-specific
scalars (surface area, fit results) ride along in the same sidecar.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import platform
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import __version__
from .birkhoff import BandEdges
from .catalog import (PROVENANCES, UNASSIGNED, LaplaceSpectrum, ResonanceList,
                      band_code, band_label)
from .correlation import CorrelationSeries
from .errors import ConfigError

FLOAT_FMT = "%.17g"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def read_csv(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ConfigError("%s is empty" % path) from None
            return header, [row for row in reader if row]
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from exc


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from exc


def sidecar_path(artifact_path) -> str:
    return str(artifact_path) + ".meta.json"


def write_metadata(artifact_path, seed: int, config_path=None,
                   extra: Optional[dict] = None) -> None:
    """Provenance sidecar: config hash, seed, versions, extra scalars."""
    if config_path is not None:
        with open(config_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    else:
        digest = None
    meta = {
        "config_sha256": digest,
        "seed": seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "anosovlab": __version__,
        },
    }
    if extra:
        meta.update(extra)
    write_json(sidecar_path(artifact_path), meta)


# -- band edges ---------------------------------------------------------------

BAND_EDGE_COLUMNS = ("k", "gamma_minus", "gamma_plus", "T", "n_orbits",
                     "extrapolation_error")


def write_band_edges(path, edges: Sequence[BandEdges]) -> None:
    rows = [
        (e.k, e.gamma_minus, e.gamma_plus, e.horizon, e.n_orbits,
         e.extrapolation_error)
        for e in edges
    ]
    write_csv(path, BAND_EDGE_COLUMNS, rows)


def read_band_edges(path) -> List[BandEdges]:
    header, rows = read_csv(path)
    if list(header) != list(BAND_EDGE_COLUMNS):
        raise ConfigError("%s does not look like a band-edge table" % path)
    return [
        BandEdges(
            k=int(r[0]), gamma_minus=float(r[1]), gamma_plus=float(r[2]),
            horizon=float(r[3]), n_orbits=int(r[4]),
            extrapolation_error=float(r[5]),
        )
        for r in rows
    ]


# -- correlation series -------------------------------------------------------

def write_series(path, series: CorrelationSeries) -> None:
    t = series.times
    rows = zip(t, series.values, series.stderr)
    write_csv(path, ("t", "C", "stderr"), rows)


def read_series(path) -> CorrelationSeries:
    header, rows = read_csv(path)
    if list(header) != ["t", "C", "stderr"]:
        raise ConfigError("%s does not look like a correlation series" % path)
    t = np.array([float(r[0]) for r in rows])
    c = np.array([float(r[1]) for r in rows])
    se = np.array([float(r[2]) for r in rows])
    if len(t) < 2:
        raise ConfigError("series in %s is too short" % path)
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=0.0, atol=1e-9 * max(dt, 1.0)):
        raise ConfigError("series in %s is not on a uniform grid" % path)
    return CorrelationSeries(dt=float(dt), values=c, stderr=se)


# -- Laplace spectra ----------------------------------------------------------

def read_spectrum(path) -> LaplaceSpectrum:
    header, rows = read_csv(path)
    if list(header) != ["index", "mu"]:
        raise ConfigError("%s does not look like a spectrum table" % path)
    mu = np.array([float(r[1]) for r in rows])
    meta = read_json(sidecar_path(path))
    if "area" not in meta:
        raise ConfigError("spectrum sidecar %s lacks the area"
                          % sidecar_path(path))
    return LaplaceSpectrum(area=float(meta["area"]), eigenvalues=mu,
                           source="file")


# -- resonance lists ----------------------------------------------------------

def _float_text(column: np.ndarray) -> np.ndarray:
    """json.dumps of each float, formatted once per distinct bit pattern (the
    int64 view keeps -0.0 apart from 0.0); repr is json's text when finite."""
    bits, at = np.unique(column.view(np.int64), return_inverse=True)
    return np.array([float.__repr__(v) if math.isfinite(v) else json.dumps(v)
                     for v in bits.view(np.float64).tolist()], dtype=object)[at]


def write_resonances(path, resonances: ResonanceList) -> None:
    """The bytes write_json would give for the entries as a list of records
    {"re", "im", "band" (its file value), "provenance"}, in column order.
    That list, built entry by entry, is the byte reference in the tests.

    json's indenting encoder runs in pure Python and dominates the time on
    catalogues of tens of thousands.  Here each distinct float, band code and
    provenance is formatted once, with the fixed text of its record (keys in
    sorted order) folded in; the rows of pieces are joined a block at a time.
    """
    n = len(resonances)
    rows = np.empty((n, 5), dtype=object)
    codes, at = np.unique(resonances.band, return_inverse=True)
    rows[:, 0] = np.array(['  {\n    "band": %s,\n    "im": '
                           % json.dumps(band_label(b)) for b in codes.tolist()],
                          dtype=object)[at]
    rows[:, 1] = _float_text(resonances.im)
    for p in PROVENANCES:  # the provenance names need no escaping
        rows[resonances.provenance == p, 2] = (',\n    "provenance": "%s",'
                                               '\n    "re": ' % p)
    rows[:, 3] = _float_text(resonances.re)
    rows[:, 4] = "\n  },\n"
    rows[-1:, 4] = "\n  }\n]\n"  # the last record; none when n == 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n" if n else "[]\n")
        for i in range(0, n, 4096):  # blocks bound the joined text
            fh.write("".join(rows[i:i + 4096].ravel().tolist()))


def _json_number(rec: dict, key: str) -> float:
    """A record's JSON number as a float; bools and strings are rejected."""
    value = rec[key]
    if type(value) not in (int, float):
        raise ConfigError("%s must be a number, got %r" % (key, value))
    return float(value)


def read_resonances(path) -> ResonanceList:
    obj = read_json(path)
    if isinstance(obj, dict) and "modes" in obj:
        obj = obj["modes"]
    if not isinstance(obj, list):
        raise ConfigError("%s does not hold a resonance array" % path)
    rows = []
    for i, rec in enumerate(obj):
        try:
            if rec["provenance"] not in PROVENANCES:
                raise ConfigError("provenance must be analytic or inverted, "
                                  "got %r" % (rec["provenance"],))
            rows.append((_json_number(rec, "re"), _json_number(rec, "im"),
                         band_code(rec["band"]), rec["provenance"]))
        except KeyError as exc:
            raise ConfigError("%s: record %d lacks the key %s"
                              % (path, i, exc)) from None
        except (ConfigError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigError("%s: record %d: %s" % (path, i, exc)) from None
    re, im, band, provenance = zip(*rows) if rows else ((),) * 4
    return ResonanceList(re, im, np.array(band, dtype=np.int64), provenance)


def write_modes(path, modeset) -> None:
    """Inverted modes as unassigned resonance records plus amplitudes."""
    modes = [
        {"re": float(z.real), "im": float(z.imag),
         "band": band_label(UNASSIGNED), "provenance": "inverted",
         "amplitude_re": float(a.real), "amplitude_im": float(a.imag)}
        for z, a in zip(modeset.z, modeset.amplitude)
    ]
    write_json(path, {
        "modes": modes,
        "residual": float(modeset.residual),
        "dt": float(modeset.dt),
        "singular_values": [float(s) for s in modeset.singular_values[:16]],
    })


# -- orbit dumps --------------------------------------------------------------

def write_orbit_dump(path, t, z, theta, u, damping) -> None:
    z = np.asarray(z)
    rows = zip(t, z.real, z.imag, theta, u, damping)
    write_csv(path, ("t", "x", "y", "theta", "u", "D"), rows)
