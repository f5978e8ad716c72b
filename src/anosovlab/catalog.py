"""Exact resonance catalog in constant curvature, plus synthetic spectra.

In constant curvature the transfer-operator spectrum is an arithmetic
function of the Laplace spectrum of the underlying surface: each eigenvalue
mu contributes, on every vertical band line Re z = -1/2 - k, the conjugate
pair

    z = -1/2 - k +- i sqrt(mu - 1/4),

which degenerates to two real values -1/2 - k +- sqrt(1/4 - mu) for small
eigenvalues mu < 1/4 (these are tagged exceptional, as is the separate
integer family z = -n).  Synthetic eigenvalue lists following the Weyl
counting law N(mu) ~ (area / 4 pi) mu drive the statistics tests without a
Laplacian eigensolver.

A catalogue is a `ResonanceList` of four equal-length columns: `re` and
`im` (float64), `band` (int64) and `provenance` (str, analytic or
inverted).  A band code k >= 0 is a band index; EXCEPTIONAL (-1) and
UNASSIGNED (-2, inverted modes before any membership pass) are flags,
written to files under the names in BAND_NAMES.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError

EXCEPTIONAL, UNASSIGNED = -1, -2
BAND_NAMES = {EXCEPTIONAL: "exceptional", UNASSIGNED: "unassigned"}
_BAND_CODES = {name: code for code, name in BAND_NAMES.items()}
PROVENANCES = ("analytic", "inverted")


def band_label(code: int) -> Union[int, str]:
    """The file value of a band code: the index itself, or the flag name."""
    return BAND_NAMES.get(code, code)


def band_code(label) -> int:
    """The band code of a file value: a nonnegative integer or a flag name."""
    if isinstance(label, str) and label in _BAND_CODES:
        return _BAND_CODES[label]
    if type(label) not in (int, float) or label < 0 or label % 1:
        raise ConfigError("band must be a nonnegative integer, 'exceptional' "
                          "or 'unassigned', got %r" % (label,))
    return int(label)


@dataclass(frozen=True, eq=False)
class ResonanceList:
    """Resonances as columns; entry i is re[i] + i im[i] in band[i]."""

    re: np.ndarray
    im: np.ndarray
    band: np.ndarray
    provenance: np.ndarray

    def __post_init__(self):
        band = np.asarray(self.band)
        if band.size and band.dtype.kind not in "iu":
            raise ConfigError("band codes must be integers")
        columns = dict(re=np.asarray(self.re, dtype=np.float64),
                       im=np.asarray(self.im, dtype=np.float64),
                       band=band.astype(np.int64),
                       provenance=np.asarray(self.provenance, dtype=str))
        for name, column in columns.items():
            if column.ndim != 1 or column.shape != band.shape:
                raise ConfigError("columns must be 1-d of equal length")
            object.__setattr__(self, name, column)
        if np.any(self.band < UNASSIGNED):
            raise ConfigError("band codes must be >= 0 or a flag's code")
        if not np.isin(self.provenance, PROVENANCES).all():
            raise ConfigError("provenance must be analytic or inverted")

    def __len__(self):
        return len(self.band)


@dataclass(frozen=True)
class LaplaceSpectrum:
    """Laplace eigenvalues of the surface with its area."""

    area: float
    eigenvalues: np.ndarray
    source: str = "file"  # file | synthetic

    def __post_init__(self):
        object.__setattr__(
            self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float)
        )
        ev = self.eigenvalues
        if not self.area > 0:
            raise ConfigError("area must be positive")
        if self.source not in ("file", "synthetic"):
            raise ConfigError("source must be file or synthetic")
        if ev.ndim != 1 or len(ev) == 0:
            raise ConfigError("eigenvalues must be a nonempty 1-d list")
        if np.any(np.diff(ev) < 0):
            raise ConfigError("eigenvalues must be sorted nondecreasing")
        if np.any(ev < 0):
            raise ConfigError("eigenvalues must be nonnegative")
        if ev[0] != 0.0:
            raise ConfigError("the zero eigenvalue mu_0 = 0 must be present")


def resonances_from_laplacian(spec: LaplaceSpectrum, k_max: int = 3,
                              n_max: int = 0) -> ResonanceList:
    """All z = -1/2 - k +- i sqrt(mu - 1/4) for k <= k_max, plus z = -n.

    Small eigenvalues mu < 1/4 give two real entries per band line, tagged
    exceptional; the integer family z = -n, n = 1..n_max, is listed
    separately (also exceptional).  Repeated eigenvalues repeat entries.
    The list is closed under complex conjugation by construction.
    """
    if k_max < 0 or n_max < 0:
        raise ConfigError("k_max and n_max must be nonnegative")
    # axes (k, eigenvalue, pair): +s before -s, line + r before line - r;
    # |mu - 1/4| rounds exactly as 1/4 - mu does for mu < 1/4
    ev = spec.eigenvalues[:, None]
    osc = ev >= 0.25
    root = np.sqrt(np.abs(ev - 0.25)) * np.array([1.0, -1.0])
    k = np.arange(k_max + 1)[:, None, None]
    line = -0.5 - k
    re = np.where(osc, line, line + root)
    im = np.broadcast_to(np.where(osc, root, 0.0), re.shape)
    band = np.broadcast_to(np.where(osc, k, EXCEPTIONAL), re.shape)
    return ResonanceList(
        re=np.concatenate([re.ravel(), -np.arange(1.0, n_max + 1)]),
        im=np.concatenate([im.ravel(), np.zeros(n_max)]),
        band=np.concatenate([band.ravel(), np.full(n_max, EXCEPTIONAL)]),
        provenance=np.full(re.size + n_max, "analytic"),
    )


def synthetic_weyl_spectrum(area: float = 4.0 * np.pi, mu_max: float = 400.0,
                            jitter: float = 0.0, seed: int = 0) -> LaplaceSpectrum:
    """Eigenvalue staircase with counting slope area/(4 pi) and jitter.

    The deterministic staircase places mu_j = j * 4 pi / area; the jitter
    displaces each level by at most jitter spacings (jitter < 1/2 keeps the
    list sorted).  mu_0 = 0 is prepended.
    """
    if not area > 0 or not mu_max > 0:
        raise ConfigError("area and mu_max must be positive")
    if not 0.0 <= jitter < 0.5:
        raise ConfigError("jitter must lie in [0, 1/2)")
    spacing = 4.0 * np.pi / area
    n = int(np.floor(mu_max / spacing + 1e-12))
    j = np.arange(1, n + 1, dtype=float)
    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        j = j + jitter * rng.uniform(-1.0, 1.0, size=n)
    mu = np.concatenate([[0.0], np.sort(spacing * j)])
    return LaplaceSpectrum(area=area, eigenvalues=mu, source="synthetic")
