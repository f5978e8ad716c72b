"""Analytic resonance catalogs and synthetic eigenvalue ladders."""
import numpy as np
import pytest

from anosovlab.catalog import (
    EXCEPTIONAL,
    UNASSIGNED,
    LaplaceSpectrum,
    ResonanceList,
    band_code,
    band_label,
    resonances_from_laplacian,
    synthetic_weyl_spectrum,
)
from anosovlab.errors import ConfigError

AREA = 4.0 * np.pi


def _spectrum(mus):
    return LaplaceSpectrum(area=AREA, eigenvalues=tuple(mus))


def _one(re=-0.5, im=1.0, band=0, provenance="analytic"):
    return ResonanceList(re=[re], im=[im], band=[band], provenance=[provenance])


def test_resonance_validation():
    _one(band=0)
    _one(im=0.0, band=EXCEPTIONAL)
    _one(band=UNASSIGNED, provenance="inverted")
    with pytest.raises(ConfigError):
        _one(band=True)
    with pytest.raises(ConfigError):
        _one(band="third")
    with pytest.raises(ConfigError):
        _one(band=1.0)
    with pytest.raises(ConfigError):
        _one(band=-3)
    with pytest.raises(ConfigError):
        _one(provenance="guess")
    with pytest.raises(ConfigError, match="equal length"):
        ResonanceList(re=[-0.5, -0.5], im=[1.0], band=[0],
                      provenance=["analytic"])
    with pytest.raises(ConfigError, match="1-d"):
        ResonanceList(re=[[-0.5]], im=[[1.0]], band=[[0]],
                      provenance=[["analytic"]])
    assert _one(im=2.0).zs().tolist() == [-0.5 + 2.0j]
    empty = ResonanceList(re=[], im=[], band=[], provenance=[])
    assert len(empty) == 0 and empty.band.dtype == np.int64


def test_band_codes_map_to_file_values_and_back():
    for code, label in ((0, 0), (7, 7), (EXCEPTIONAL, "exceptional"),
                        (UNASSIGNED, "unassigned")):
        assert band_label(code) == label
        assert band_code(label) == code
    assert band_code(2.0) == 2
    for bad in (True, False, 1.7, -3, -1, "third", None, float("nan")):
        with pytest.raises(ConfigError):
            band_code(bad)


def test_spectrum_validation():
    _spectrum([0.0, 1.0, 2.0])
    with pytest.raises(ConfigError):
        LaplaceSpectrum(area=0.0, eigenvalues=(0.0, 1.0))
    with pytest.raises(ConfigError):
        _spectrum([0.0, 2.0, 1.0])  # not sorted
    with pytest.raises(ConfigError):
        _spectrum([-1.0, 0.0, 1.0])
    with pytest.raises(ConfigError):
        _spectrum([1.0, 2.0])  # mu_0 = 0 missing
    with pytest.raises(ConfigError):
        _spectrum([])


def test_oscillatory_eigenvalue_maps_to_band_pairs():
    # mu = 2 >= 1/4: z = -1/2 - k +- i sqrt(mu - 1/4)
    rl = resonances_from_laplacian(_spectrum([0.0, 2.0]), k_max=1)
    im = 1.3228756555322954  # sqrt(7)/2
    band1 = rl.band_entries(1)
    band1_im = band1.im[band1.im != 0.0]
    assert sorted(band1_im) == pytest.approx([-im, im], abs=1e-15)
    assert np.all(band1.re[band1.im != 0.0] == -1.5)
    band0 = rl.band_entries(0)
    assert np.all(band0.re[band0.im != 0.0] == -0.5)
    assert np.all(rl.provenance == "analytic")


def test_small_eigenvalue_gives_real_pair():
    # mu = 0.1 < 1/4: two real entries -1/2 +- sqrt(0.15), tagged exceptional
    rl = resonances_from_laplacian(_spectrum([0.0, 0.1]), k_max=0)
    ex = rl.band == EXCEPTIONAL
    res = sorted(rl.re[ex])
    assert res[0] == pytest.approx(-1.0, abs=1e-15)  # from mu = 0
    assert res[1] == pytest.approx(-0.8872983346207417, abs=1e-15)
    assert res[-2] == pytest.approx(-0.11270166537925831, abs=1e-15)
    assert res[-1] == pytest.approx(0.0, abs=1e-15)  # from mu = 0
    assert np.all(rl.im[ex] == 0.0)


def test_quarter_eigenvalue_is_double():
    rl = resonances_from_laplacian(_spectrum([0.0, 0.25]), k_max=0)
    doubles = rl.re == -0.5
    assert np.count_nonzero(doubles) == 2
    assert rl.im[doubles].tolist() == [0.0, 0.0]
    assert np.all(rl.band[doubles] == 0)


def test_topological_family():
    rl = resonances_from_laplacian(_spectrum([0.0]), k_max=0, n_max=3)
    ex = rl.band == EXCEPTIONAL
    negs = sorted(rl.re[ex & (rl.re < -0.5)])
    assert negs[:3] == [-3.0, -2.0, -1.0]
    assert np.all(rl.im[ex] == 0.0)


def test_catalog_is_conjugation_closed(conjugation_defect):
    spec = synthetic_weyl_spectrum(AREA, 60.0, jitter=0.3, seed=2)
    rl = resonances_from_laplacian(spec, k_max=2)
    assert conjugation_defect(rl.zs()) == 0.0


def test_entry_counts():
    # n eigenvalues above 1/4 give 2n entries per band; mu_0 = 0 gives the
    # real pair {0, -1} shifted by -k
    spec = _spectrum([0.0] + list(range(1, 11)))
    rl = resonances_from_laplacian(spec, k_max=3)
    assert len(rl) == 4 * (2 * 10 + 2)
    assert len(rl.band_entries(2)) == 20
    assert len(rl.zs()) == len(rl)


def test_records_round_trip():
    rl = resonances_from_laplacian(_spectrum([0.0, 5.0]), k_max=0)
    recs = rl.records()
    assert all(set(r) == {"re", "im", "band", "provenance"} for r in recs)
    again = ResonanceList(
        re=[r["re"] for r in recs], im=[r["im"] for r in recs],
        band=[band_code(r["band"]) for r in recs],
        provenance=[r["provenance"] for r in recs])
    assert again.records() == recs


def _reference_catalog(spec, k_max, n_max):
    """The per-eigenvalue loop the columns replace, as (re, im, band) rows."""
    out = []
    for k in range(k_max + 1):
        line = -0.5 - k
        for mu in spec.eigenvalues:
            if mu >= 0.25:
                s = float(np.sqrt(mu - 0.25))
                out.append((line, s, k))
                out.append((line, -s, k))
            else:
                r = float(np.sqrt(0.25 - mu))
                out.append((line + r, 0.0, EXCEPTIONAL))
                out.append((line - r, 0.0, EXCEPTIONAL))
    for n in range(1, n_max + 1):
        out.append((float(-n), 0.0, EXCEPTIONAL))
    return out


@pytest.mark.parametrize("spec, k_max, n_max", [
    (synthetic_weyl_spectrum(AREA, 300.0, jitter=0.45, seed=4), 3, 0),
    # spacing 4 pi / 150 < 1/4: several jittered levels below 1/4
    (synthetic_weyl_spectrum(150.0, 20.0, jitter=0.4, seed=7), 2, 3),
    (_spectrum([0.0, 0.1, 0.25, 0.25, 0.2500001, 2.0]), 4, 2),
    (_spectrum([0.0]), 0, 5),
], ids=["jittered", "small_levels", "quarter", "zero_only"])
def test_columns_match_reference_loop(spec, k_max, n_max):
    rl = resonances_from_laplacian(spec, k_max, n_max)
    ref = _reference_catalog(spec, k_max, n_max)
    re, im, band = (np.array(c) for c in zip(*ref))
    # bitwise: order, signed zeros (mu = 1/4 gives -0.0) and every last bit
    assert rl.re.tobytes() == re.tobytes()
    assert rl.im.tobytes() == im.tobytes()
    assert rl.band.tolist() == band.tolist()
    assert rl.re.dtype == rl.im.dtype == np.float64
    assert rl.band.dtype == np.int64
    assert rl.provenance.tolist() == ["analytic"] * len(ref)


class TestSyntheticSpectrum:
    def test_exact_ladder_at_zero_jitter(self):
        # area 4 pi => Weyl spacing 4 pi / area = 1: eigenvalues are integers
        spec = synthetic_weyl_spectrum(AREA, 10.5)
        assert spec.source == "synthetic"
        assert spec.area == AREA
        np.testing.assert_array_equal(spec.eigenvalues, np.arange(11.0))

    def test_spacing_scales_with_area(self):
        spec = synthetic_weyl_spectrum(8.0 * np.pi, 10.0)
        np.testing.assert_allclose(np.diff(spec.eigenvalues), 0.5, atol=1e-12)

    def test_jitter_is_seeded_and_bounded(self):
        a = synthetic_weyl_spectrum(AREA, 50.0, jitter=0.4, seed=9)
        b = synthetic_weyl_spectrum(AREA, 50.0, jitter=0.4, seed=9)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        c = synthetic_weyl_spectrum(AREA, 50.0, jitter=0.4, seed=10)
        assert np.any(c.eigenvalues != a.eigenvalues)
        # jitter never reorders the ladder or changes its length
        assert len(c.eigenvalues) == len(
            synthetic_weyl_spectrum(AREA, 50.0).eigenvalues
        )
        assert np.all(np.diff(c.eigenvalues) >= 0.0)
        np.testing.assert_allclose(
            c.eigenvalues[1:], np.arange(1, len(c.eigenvalues)), atol=0.5
        )

    def test_rejects_bad_jitter(self):
        with pytest.raises(ConfigError):
            synthetic_weyl_spectrum(AREA, 10.0, jitter=0.5)
        with pytest.raises(ConfigError):
            synthetic_weyl_spectrum(AREA, 10.0, jitter=-0.1)
