"""Statistics on resonance lists: band membership, counting, concentration.

The asymptotic statements about the spectrum (confinement to bands, linear
Weyl-type counting per band, accumulation of the first band on the line
Re z = <D>) become finite-sample tests here: membership classification with
an explicit low-frequency cutoff, log-log slope fits of window counts over
a ladder of heights, and the mean line distance over growing frequency
windows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

from .birkhoff import BandEdges
from .catalog import ResonanceList
from .errors import ConfigError

DEFAULT_IM_CUTOFF = 5.0  # below this |Im z| entries count as exceptions

LOW_FREQUENCY = "low-frequency"
AMBIGUOUS = "ambiguous"
VIOLATION = "violation"


@dataclass(frozen=True)
class BandTestReport:
    """Classification of each resonance against enlarged band intervals."""

    assignments: Tuple[object, ...]  # band index or a flag string per entry
    counts: dict
    im_cutoff: float
    eps: float

    def __post_init__(self):
        if sum(self.counts.values()) != len(self.assignments):
            raise AssertionError("classification counts must cover every entry")

    @property
    def n_violations(self) -> int:
        return self.counts.get(VIOLATION, 0)


def band_membership(resonances: ResonanceList, edges: Sequence[BandEdges],
                    eps: float = 0.0,
                    im_cutoff: float = DEFAULT_IM_CUTOFF) -> BandTestReport:
    """Assign each resonance with |Im z| above the cutoff to a band.

    A resonance belongs to band k when Re z lies in
    [gamma_k^- - eps, gamma_k^+ + eps]; hits in several enlarged bands are
    flagged ambiguous, hits in none are violations, and low-frequency
    entries (the "finitely many exceptions" regime) are set aside.
    """
    edges = sorted(edges, key=lambda e: e.k)
    if [e.k for e in edges] != list(range(len(edges))):
        raise ConfigError("edges must cover k = 0..k_max without gaps")
    assignments: List[object] = []
    counts: dict = {}

    def tally(label):
        assignments.append(label)
        counts[label] = counts.get(label, 0) + 1

    for r in resonances:
        if abs(r.im) <= im_cutoff:
            tally(LOW_FREQUENCY)
            continue
        hits = [
            e.k for e in edges
            if e.gamma_minus - eps <= r.re <= e.gamma_plus + eps
        ]
        if len(hits) == 1:
            tally(hits[0])
        elif len(hits) > 1:
            tally(AMBIGUOUS)
        else:
            tally(VIOLATION)
    return BandTestReport(
        assignments=tuple(assignments),
        counts=counts,
        im_cutoff=im_cutoff,
        eps=eps,
    )


@dataclass(frozen=True)
class WeylReport:
    """Window counts over a height ladder with a log-log density fit."""

    k: int
    b: float
    count: int               # entries with b < Im z <= b + b^eps
    eps_exponent: float
    ladder: np.ndarray
    window_counts: np.ndarray
    slope: Optional[float]
    prefactor: Optional[float]  # c in count ~ c * b^slope
    fit_omitted: bool


def _window_count(im: np.ndarray, b: float, eps_exponent: float) -> int:
    lo, hi = b, b + b ** eps_exponent
    return int(np.count_nonzero((im > lo) & (im <= hi)))


def weyl_count(resonances: ResonanceList, k: int, b: float,
               eps_exponent: float = 0.0, b_max: Optional[float] = None,
               n_ladder: int = 12) -> WeylReport:
    """Count band-k resonances in (b, b + b^eps] and fit the height ladder.

    Windows are half-open so that with eps_exponent = 0 consecutive windows
    tile (b, 2b] exactly.  The ladder is geometric between b and b_max
    (default: the largest height present); the fit of log count against
    log b needs at least five nonempty rungs, otherwise it is omitted.
    """
    if b <= 0:
        raise ConfigError("b must be positive")
    if k < 0:
        raise ConfigError("band index must be nonnegative, got %d" % k)
    band = resonances.band_entries(k)
    im = np.array([r.im for r in band], dtype=float)
    count = _window_count(im, b, eps_exponent)
    im_top = float(im.max()) if len(im) else b
    if b_max is None:
        b_max = im_top
    # only windows fully covered by the data are meaningful rungs
    if b_max + b_max ** eps_exponent > im_top:
        if b + b ** eps_exponent >= im_top:
            b_max = b
        else:
            b_max = float(brentq(
                lambda x: x + x ** eps_exponent - im_top, b, max(im_top, b)
            ))
    if b_max <= b:
        ladder = np.array([b])
    else:
        ladder = np.geomspace(b, b_max, n_ladder)
    window_counts = np.array(
        [_window_count(im, bb, eps_exponent) for bb in ladder]
    )
    good = window_counts > 0
    if np.count_nonzero(good) < 5:
        return WeylReport(k, b, count, eps_exponent, ladder, window_counts,
                          slope=None, prefactor=None, fit_omitted=True)
    x = np.log(ladder[good])
    y = np.log(window_counts[good])
    coeffs = np.polynomial.polynomial.polyfit(x, y, 1)
    return WeylReport(
        k=k, b=b, count=count, eps_exponent=eps_exponent,
        ladder=ladder, window_counts=window_counts,
        slope=float(coeffs[1]), prefactor=float(np.exp(coeffs[0])),
        fit_omitted=False,
    )


@dataclass(frozen=True)
class ConcentrationReport:
    """Mean distance of band-0 entries to the line Re z = <D>."""

    d_mean: float
    ladder: np.ndarray
    statistic: Tuple[Optional[float], ...]  # None where B_b is empty
    nonincreasing: bool

    @property
    def final(self) -> Optional[float]:
        defined = [s for s in self.statistic if s is not None]
        return defined[-1] if defined else None


def concentration(resonances: ResonanceList, d_mean: float, b_max: float,
                  n_ladder: int = 8) -> ConcentrationReport:
    """Mean |Re z - <D>| over band-0 entries with |Im z| < b, b in a ladder."""
    if b_max <= 0:
        raise ConfigError("b_max must be positive")
    band = resonances.band_entries(0)
    re = np.array([r.re for r in band], dtype=float)
    im = np.array([abs(r.im) for r in band], dtype=float)
    ladder = np.geomspace(max(b_max / 2 ** (n_ladder - 1), 1e-6), b_max,
                          n_ladder)
    stats: List[Optional[float]] = []
    for b in ladder:
        sel = im < b
        if not np.any(sel):
            stats.append(None)
            continue
        stats.append(float(np.mean(np.abs(re[sel] - d_mean))))
    defined = [(i, s) for i, s in enumerate(stats) if s is not None]
    noninc = all(
        b2 <= b1 + 1e-12
        for (_, b1), (_, b2) in zip(defined, defined[1:])
    )
    return ConcentrationReport(
        d_mean=d_mean,
        ladder=ladder,
        statistic=tuple(stats),
        nonincreasing=noninc,
    )
