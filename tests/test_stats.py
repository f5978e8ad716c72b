"""Tests for band membership, window counting, and line concentration."""
import numpy as np
import pytest

from anosovlab.birkhoff import BandEdges
from anosovlab.catalog import (
    EXCEPTIONAL,
    Resonance,
    ResonanceList,
    resonances_from_laplacian,
    synthetic_weyl_spectrum,
)
from anosovlab.errors import ConfigError
from anosovlab.stats import (
    AMBIGUOUS,
    DEFAULT_IM_CUTOFF,
    LOW_FREQUENCY,
    VIOLATION,
    band_membership,
    concentration,
    weyl_count,
)


def _edges(k, lo, hi):
    return BandEdges(k=k, gamma_minus=lo, gamma_plus=hi, horizon=100.0,
                     n_orbits=1, extrapolation_error=0.0)


def _inverted(pairs, band="unassigned"):
    return ResonanceList(tuple(
        Resonance(re, im, band, "inverted") for re, im in pairs
    ))


class TestBandMembership:
    def test_exact_catalog_tiles_cleanly(self):
        spectrum = synthetic_weyl_spectrum(area=4.0 * np.pi, mu_max=200.0)
        catalog = resonances_from_laplacian(spectrum, k_max=2)
        edges = [_edges(k, -0.5 - k, -0.5 - k) for k in range(3)]
        report = band_membership(catalog, edges, eps=0.0)
        assert report.n_violations == 0
        assert report.counts.get(AMBIGUOUS, 0) == 0
        n_low = sum(
            1 for r in catalog if abs(r.im) <= DEFAULT_IM_CUTOFF
        )
        assert report.counts[LOW_FREQUENCY] == n_low
        assert sum(report.counts.values()) == len(catalog)
        # every high-frequency band-k entry lands in band k
        for r, a in zip(catalog, report.assignments):
            if abs(r.im) > DEFAULT_IM_CUTOFF:
                assert a == r.band

    def test_violation_outside_all_bands(self):
        entries = _inverted([(-0.2, 10.0), (-0.5, 10.0)])
        edges = [_edges(0, -0.55, -0.45)]
        report = band_membership(entries, edges)
        assert report.assignments == (VIOLATION, 0)
        assert report.n_violations == 1

    def test_ambiguous_when_enlarged_bands_overlap(self):
        entries = _inverted([(-1.0, 10.0)])
        edges = [_edges(0, -0.5, -0.5), _edges(1, -1.5, -1.5)]
        report = band_membership(entries, edges, eps=0.6)
        assert report.assignments == (AMBIGUOUS,)

    def test_low_frequency_set_aside(self):
        entries = _inverted([(-0.5, 1.0), (-0.5, -4.0), (-0.5, 8.0)])
        edges = [_edges(0, -0.5, -0.5)]
        report = band_membership(entries, edges, im_cutoff=5.0)
        assert report.assignments == (LOW_FREQUENCY, LOW_FREQUENCY, 0)

    def test_edges_order_does_not_matter(self):
        entries = _inverted([(-1.5, 10.0)])
        shuffled = [_edges(1, -1.5, -1.5), _edges(0, -0.5, -0.5)]
        report = band_membership(entries, shuffled)
        assert report.assignments == (1,)

    def test_rejects_gapped_band_indices(self):
        entries = _inverted([(-0.5, 10.0)])
        with pytest.raises(ConfigError):
            band_membership(entries, [_edges(0, -0.5, -0.5),
                                      _edges(2, -2.5, -2.5)])


class TestWeylCount:
    def test_window_is_half_open(self):
        entries = _inverted([(-0.5, im) for im in (1.0, 2.0, 3.0, 4.0)], 0)
        report = weyl_count(entries, k=0, b=2.0, eps_exponent=0.0)
        # window (2, 3]: the left endpoint is excluded
        assert report.count == 1
        report = weyl_count(entries, k=0, b=1.5, eps_exponent=0.0)
        assert report.count == 1

    def test_band_filter(self):
        entries = ResonanceList(tuple(
            [Resonance(-0.5, im, 0, "analytic") for im in (6.0, 7.0)]
            + [Resonance(-1.5, 6.5, 1, "analytic")]
        ))
        assert weyl_count(entries, k=0, b=5.5).count == 1
        assert weyl_count(entries, k=1, b=6.0).count == 1

    def test_linear_density_slope(self):
        spectrum = synthetic_weyl_spectrum(area=4.0 * np.pi, mu_max=400.0)
        catalog = resonances_from_laplacian(spectrum, k_max=0)
        report = weyl_count(catalog, k=0, b=5.0, eps_exponent=0.0)
        assert not report.fit_omitted
        assert 0.9 < report.slope < 1.05
        # counting density dN/dx = (area/2 pi) x gives prefactor near 2
        assert 1.5 < report.prefactor < 2.5

    def test_wider_windows_raise_slope(self):
        spectrum = synthetic_weyl_spectrum(area=4.0 * np.pi, mu_max=400.0)
        catalog = resonances_from_laplacian(spectrum, k_max=0)
        report = weyl_count(catalog, k=0, b=5.0, eps_exponent=0.5)
        assert not report.fit_omitted
        # window length b^(1/2) makes counts grow like b^(3/2)
        assert 1.35 < report.slope < 1.6

    def test_ladder_clamped_to_covered_windows(self):
        spectrum = synthetic_weyl_spectrum(area=4.0 * np.pi, mu_max=400.0)
        catalog = resonances_from_laplacian(spectrum, k_max=0)
        im_top = max(r.im for r in catalog)
        report = weyl_count(catalog, k=0, b=5.0, eps_exponent=0.0,
                            b_max=1000.0)
        top = report.ladder[-1]
        assert top + 1.0 <= im_top + 1e-6
        assert np.all(report.window_counts > 0)

    def test_fit_omitted_for_sparse_data(self):
        entries = _inverted([(-0.5, im) for im in (1.0, 1.5, 40.0)], 0)
        report = weyl_count(entries, k=0, b=1.0)
        assert report.fit_omitted
        assert report.slope is None and report.prefactor is None

    def test_rejects_nonpositive_b(self):
        entries = _inverted([(-0.5, 1.0)], 0)
        with pytest.raises(ConfigError):
            weyl_count(entries, k=0, b=0.0)

    def test_rejects_negative_band_index(self):
        entries = _inverted([(-0.5, im) for im in (6.0, 7.0, 8.0)], 0)
        with pytest.raises(ConfigError, match="band index"):
            weyl_count(entries, k=-1, b=5.0)


class TestConcentration:
    def test_zero_on_analytic_catalog(self):
        spectrum = synthetic_weyl_spectrum(area=4.0 * np.pi, mu_max=150.0)
        catalog = resonances_from_laplacian(spectrum, k_max=1)
        report = concentration(catalog, d_mean=-0.5, b_max=12.0)
        defined = [s for s in report.statistic if s is not None]
        assert defined
        assert all(s == 0.0 for s in defined)
        assert report.nonincreasing
        assert report.final == 0.0

    def test_monotone_on_log_decay(self):
        ims = np.geomspace(1.0, 1.0e4, 400)
        entries = ResonanceList(tuple(
            Resonance(-0.5 + 1.0 / np.log(2.0 + im), im, 0, "analytic")
            for im in ims
        ))
        report = concentration(entries, d_mean=-0.5, b_max=1.0e4)
        defined = [s for s in report.statistic if s is not None]
        assert len(defined) >= 4
        assert report.nonincreasing
        assert report.final < defined[0]

    def test_line_shift_moves_statistic(self):
        entries = _inverted([(-0.5, im) for im in (1.0, 2.0, 4.0)], 0)
        at_line = concentration(entries, d_mean=-0.5, b_max=8.0)
        off_line = concentration(entries, d_mean=-0.6, b_max=8.0)
        assert at_line.final == 0.0
        assert off_line.final == pytest.approx(0.1, abs=1e-12)

    def test_empty_rungs_are_none(self):
        entries = _inverted([(-0.5, 50.0), (-0.5, 60.0)], 0)
        report = concentration(entries, d_mean=-0.5, b_max=80.0)
        assert report.statistic[0] is None
        assert report.final == 0.0

    def test_rejects_nonpositive_height(self):
        entries = _inverted([(-0.5, 1.0)], 0)
        with pytest.raises(ConfigError):
            concentration(entries, d_mean=-0.5, b_max=0.0)
