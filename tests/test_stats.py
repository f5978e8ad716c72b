"""Tests for band membership, window counting, and line concentration."""
import numpy as np
import pytest

from anosovlab.birkhoff import BandEdges
from anosovlab.catalog import (
    UNASSIGNED,
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


def _inverted(pairs, band=UNASSIGNED):
    re, im = np.array(pairs, dtype=float).reshape(-1, 2).T
    return ResonanceList(re=re, im=im, band=np.full(len(re), band),
                         provenance=np.full(len(re), "inverted"))


def _reference_membership(resonances, edges, eps, im_cutoff):
    """The per-entry loop the hit matrix replaces: (assignments, counts)."""
    edges = sorted(edges, key=lambda e: e.k)
    assignments, counts = [], {}
    for re, im in zip(resonances.re.tolist(), resonances.im.tolist()):
        if abs(im) <= im_cutoff:
            label = LOW_FREQUENCY
        else:
            hits = [e.k for e in edges
                    if e.gamma_minus - eps <= re <= e.gamma_plus + eps]
            label = (hits[0] if len(hits) == 1
                     else AMBIGUOUS if hits else VIOLATION)
        assignments.append(label)
        counts[label] = counts.get(label, 0) + 1
    return tuple(assignments), counts


class TestBandMembership:
    def test_exact_catalog_tiles_cleanly(self):
        spectrum = synthetic_weyl_spectrum(area=4.0 * np.pi, mu_max=200.0)
        catalog = resonances_from_laplacian(spectrum, k_max=2)
        edges = [_edges(k, -0.5 - k, -0.5 - k) for k in range(3)]
        report = band_membership(catalog, edges, eps=0.0)
        assert report.n_violations == 0
        assert report.counts.get(AMBIGUOUS, 0) == 0
        high = np.abs(catalog.im) > DEFAULT_IM_CUTOFF
        assert report.counts[LOW_FREQUENCY] == np.count_nonzero(~high)
        assert sum(report.counts.values()) == len(catalog)
        # every high-frequency band-k entry lands in band k
        assigned = np.array(report.assignments, dtype=object)
        assert assigned[high].tolist() == catalog.band[high].tolist()

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

    def test_rejects_negative_enlargement(self):
        # a negative eps empties every enlarged interval [g- - eps, g+ + eps]
        entries = _inverted([(-0.5, 10.0)])
        with pytest.raises(ConfigError, match="eps"):
            band_membership(entries, [_edges(0, -0.6, -0.4)], eps=-1.0)


    @pytest.mark.parametrize("catalog, edges, eps, im_cutoff", [
        # jittered analytic catalogue with mu < 1/4 and the -n family
        (resonances_from_laplacian(synthetic_weyl_spectrum(
            150.0, 80.0, jitter=0.4, seed=7), 3, 3),
         [_edges(k, -0.52 - k, -0.48 - k) for k in range(4)], 1e-3, 5.0),
        # overlapping enlarged bands: entries between lines are ambiguous
        (_inverted([(x, 10.0) for x in np.linspace(-2.0, 0.5, 51)]),
         [_edges(1, -1.6, -1.4), _edges(0, -0.6, -0.4)], 0.45, 5.0),
        # entries exactly on the enlarged edges, which are inclusive
        (_inverted([(-0.75, 8.0), (-0.25, -8.0), (-0.7500000000000001, 8.0),
                    (-0.2499999999999999, 8.0), (-0.5, 8.0)]),
         [_edges(0, -0.5, -0.5)], 0.25, 5.0),
        # |Im z| exactly at the cutoff is low-frequency, just above is not
        (_inverted([(-0.5, 5.0), (-0.5, -5.0), (-0.5, 5.000000000000001),
                    (-0.5, -5.000000000000001), (-3.0, 7.0),
                    (float("nan"), 9.0), (-0.5, float("inf"))]),
         [_edges(0, -0.5, -0.5)], 0.0, 5.0),
        (_inverted([]), [_edges(0, -0.5, -0.5)], 0.0, 5.0),
        (_inverted([(-0.5, 10.0), (-0.5, 1.0)]), [], 0.0, 5.0),
    ], ids=["analytic", "ambiguous", "on_edge", "at_cutoff", "empty",
            "no_edges"])
    def test_matches_reference_loop(self, catalog, edges, eps, im_cutoff):
        report = band_membership(catalog, edges, eps=eps, im_cutoff=im_cutoff)
        assignments, counts = _reference_membership(catalog, edges, eps,
                                                     im_cutoff)
        assert report.assignments == assignments
        assert [type(a) for a in report.assignments] == \
            [type(a) for a in assignments]
        assert report.counts == counts
        assert all(type(c) is int for c in report.counts.values())


class TestWeylCount:
    def test_window_is_half_open(self):
        entries = _inverted([(-0.5, im) for im in (1.0, 2.0, 3.0, 4.0)], 0)
        report = weyl_count(entries, k=0, b=2.0, eps_exponent=0.0)
        # window (2, 3]: the left endpoint is excluded
        assert report.count == 1
        report = weyl_count(entries, k=0, b=1.5, eps_exponent=0.0)
        assert report.count == 1

    def test_band_filter(self):
        entries = ResonanceList(re=[-0.5, -0.5, -1.5], im=[6.0, 7.0, 6.5],
                                band=[0, 0, 1], provenance=["analytic"] * 3)
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
        im_top = catalog.im.max()
        for eps in (0.0, 0.5):
            report = weyl_count(catalog, k=0, b=5.0, eps_exponent=eps,
                                b_max=1000.0)
            top = report.ladder[-1]
            # the top's window is covered, the next float's is not
            assert top + top ** eps <= im_top
            above = np.nextafter(top, np.inf)
            assert above + above ** eps > im_top
            assert np.all(report.window_counts > 0)
        report = weyl_count(catalog, k=0, b=5.0, eps_exponent=0.0)
        assert report.ladder[-1] == im_top - 1.0
        # a b_max whose window is covered is kept as the top
        report = weyl_count(catalog, k=0, b=5.0, eps_exponent=0.5, b_max=10.0)
        assert report.ladder[-1] == 10.0

    @pytest.mark.parametrize("eps", [0.0, 0.25, 0.5, 1.0, 1.5])
    def test_ladder_top_matches_brentq(self, eps):
        # Reference: the scipy.optimize.brentq root weyl_count used to take,
        # on the same bracket, within brentq's default xtol + rtol |x|
        from scipy.optimize import brentq

        rng = np.random.default_rng(7)
        for b in (0.5, 2.0, 5.0):
            im = b + rng.uniform(2.0, 500.0, size=40)
            entries = _inverted([(-0.5, x) for x in im], 0)
            top = weyl_count(entries, k=0, b=b, eps_exponent=eps).ladder[-1]
            root, info = brentq(lambda x: x + x ** eps - im.max(), b, im.max(),
                                full_output=True)
            assert info.converged
            assert abs(top - root) <= 2e-12 + 4 * np.finfo(float).eps * abs(root)

    @pytest.mark.parametrize("setting, value", [
        ("b", -1.0), ("b", np.nan), ("b", np.inf),
        ("b_max", np.nan), ("b_max", np.inf), ("b_max", -np.inf),
        ("eps_exponent", -0.5), ("eps_exponent", np.nan),
        ("eps_exponent", np.inf),
    ])
    def test_rejects_bad_ladder_inputs(self, setting, value):
        entries = _inverted([(-0.5, im) for im in (6.0, 7.0, 8.0)], 0)
        with pytest.raises(ConfigError, match="^%s must" % setting):
            weyl_count(entries, k=0, **{"b": 5.0, setting: value})

    @pytest.mark.parametrize("b, b_max", [
        (1e200, None), (1e300, 1e300), (2.0, 1e300), (2.0, 1e200),
    ])
    def test_window_end_overflow_counts_as_uncovered(self, b, b_max):
        # with eps = 2, b^eps overflows the float range: that window end is
        # +inf, so it is never covered and the ladder stops where the data
        # stop, as for a finite b_max past im_top
        entries = _inverted([(-0.5, im) for im in np.linspace(2.5, 60.0, 80)], 0)
        report = weyl_count(entries, k=0, b=b, eps_exponent=2.0, b_max=b_max)
        if b > 60.0:
            assert report.count == 0
            assert np.array_equal(report.ladder, [b])
        else:
            want = weyl_count(entries, k=0, b=b, eps_exponent=2.0, b_max=1e100)
            assert np.array_equal(report.ladder, want.ladder)
            assert np.array_equal(report.window_counts, want.window_counts)
            top = report.ladder[-1]
            assert top + top ** 2 <= 60.0 < np.nextafter(top, np.inf) + \
                np.nextafter(top, np.inf) ** 2

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
        entries = ResonanceList(re=-0.5 + 1.0 / np.log(2.0 + ims), im=ims,
                                band=np.zeros(len(ims), dtype=int),
                                provenance=np.full(len(ims), "analytic"))
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
