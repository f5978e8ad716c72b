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
from typing import Optional, Sequence, Tuple

import numpy as np

from .birkhoff import BandEdges
from .catalog import ResonanceList
from .errors import ConfigError

DEFAULT_IM_CUTOFF = 5.0  # below this |Im z| entries count as exceptions
WEYL_LADDER = 12  # rungs of the weyl_count height ladder
CONCENTRATION_LADDER = 8  # rungs of the concentration height ladder

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
    if not 0.0 <= eps < np.inf:
        raise ConfigError("band enlargement eps must be a nonnegative finite "
                          "number, got %r" % (eps,))
    if not np.isfinite(im_cutoff):
        raise ConfigError("im_cutoff must be finite, got %r" % (im_cutoff,))
    edges = sorted(edges, key=lambda e: e.k)
    if [e.k for e in edges] != list(range(len(edges))):
        raise ConfigError("edges must cover k = 0..k_max without gaps")
    # hits[j, i]: entry i lies in the enlarged band j (inclusive bounds)
    lo = np.array([e.gamma_minus - eps for e in edges])[:, None]
    hi = np.array([e.gamma_plus + eps for e in edges])[:, None]
    hits = (lo <= resonances.re) & (resonances.re <= hi)
    n_hits = np.count_nonzero(hits, axis=0)
    # slot j < len(edges) is band j, then the three flags
    labels = list(range(len(edges))) + [AMBIGUOUS, VIOLATION, LOW_FREQUENCY]
    slot = np.where(n_hits == 1, np.arange(len(edges)) @ hits,
                    np.where(n_hits > 1, len(edges), len(edges) + 1))
    slot[np.abs(resonances.im) <= im_cutoff] = len(edges) + 2
    tally = np.bincount(slot, minlength=len(labels)).tolist()
    assignments = tuple(np.array(labels, dtype=object)[slot].tolist())
    counts = {label: c for label, c in zip(labels, tally) if c}
    return BandTestReport(
        assignments=assignments,
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


def _window_end(x: float, eps_exponent: float) -> float:
    """x + x^eps in float64, +inf where x^eps overflows."""
    with np.errstate(over="ignore"):
        return x + np.float64(x) ** eps_exponent


def _window_count(im: np.ndarray, b: float, eps_exponent: float) -> int:
    lo, hi = b, _window_end(b, eps_exponent)
    return int(np.count_nonzero((im > lo) & (im <= hi)))


def weyl_count(resonances: ResonanceList, k: int, b: float = 10.0,
               eps_exponent: float = 0.0,
               b_max: Optional[float] = None) -> WeylReport:
    """Count band-k resonances in (b, b + b^eps] and fit the height ladder.

    Windows are half-open so that with eps_exponent = 0 consecutive windows
    tile (b, 2b] exactly.  The ladder is geometric from b to its top: b_max
    (default: the largest height present, im_top) if its window ends at or
    below im_top, else the largest float x in [b, b_max] with
    x + x^eps <= im_top, bisected down to adjacent floats, so that every
    rung's window is covered by the data; a window end beyond the float
    range counts as uncovered.  The fit of log count against
    log b needs at least five nonempty rungs, otherwise it is omitted.
    """
    if not 0.0 < b < np.inf:
        raise ConfigError("b must be a positive finite number, got %r" % (b,))
    if b_max is not None and not np.isfinite(b_max):
        raise ConfigError("b_max must be finite, got %r" % (b_max,))
    if not 0.0 <= eps_exponent < np.inf:
        # the window end x + x^eps increases in x only for eps >= 0
        raise ConfigError("eps_exponent must be a nonnegative finite number, "
                          "got %r" % (eps_exponent,))
    if k < 0:
        raise ConfigError("band index must be nonnegative, got %d" % k)
    im = resonances.im[resonances.band == k]
    count = _window_count(im, b, eps_exponent)
    im_top = float(im.max()) if len(im) else b
    hi = max(b, im_top if b_max is None else b_max)
    lo = hi if _window_end(hi, eps_exponent) <= im_top else b
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        lo, hi = (mid, hi) if _window_end(mid, eps_exponent) <= im_top else (lo, mid)
    ladder = np.geomspace(b, lo, WEYL_LADDER) if lo > b else np.array([b])
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


def concentration(resonances: ResonanceList, d_mean: float,
                  b_max: float = 40.0) -> ConcentrationReport:
    """Mean |Re z - <D>| over band-0 entries with |Im z| < b, b in a ladder."""
    if not np.isfinite(d_mean):
        raise ConfigError("d_mean must be finite, got %r" % (d_mean,))
    if not 0.0 < b_max < np.inf:
        raise ConfigError("b_max must be a positive finite number, got %r"
                          % (b_max,))
    band0 = resonances.band == 0
    dist = np.abs(resonances.re[band0] - d_mean)
    im = np.abs(resonances.im[band0])
    ladder = np.geomspace(max(b_max / 2 ** (CONCENTRATION_LADDER - 1), 1e-6),
                          b_max, CONCENTRATION_LADDER)
    stats = tuple(float(np.mean(dist[im < b])) if np.any(im < b) else None
                  for b in ladder)
    defined = [s for s in stats if s is not None]
    noninc = all(b2 <= b1 + 1e-12 for b1, b2 in zip(defined, defined[1:]))
    return ConcentrationReport(d_mean=d_mean, ladder=ladder, statistic=stats,
                               nonincreasing=noninc)
