"""Octagon quadrature, area sampling, and the periodic bump superposition."""
import numpy as np
import pytest

from anosovlab.fuchsian import (
    APOTHEM,
    VERTEX_RADIUS,
    bolza_generators,
    dist_hp,
    mobius,
    to_disk,
    to_halfplane,
)
from anosovlab.surface import (
    BLOCK_POINTS,
    N_SECTORS,
    SECTOR_MARGIN,
    PerturbationShape,
    fold_octant,
    octagon_area,
    octagon_grid,
    octagon_rho_max,
    radial_quantile,
    sample_octagon_positions,
    sector_dist,
    sector_index,
)


def test_fold_octant_symmetries():
    phi = np.linspace(-7.0, 7.0, 101)
    out = fold_octant(phi)
    assert np.all((0.0 <= out) & (out <= np.pi / 8.0 + 1e-15))
    np.testing.assert_allclose(fold_octant(phi + np.pi / 4.0), out, atol=1e-12)
    np.testing.assert_allclose(fold_octant(-phi), out, atol=1e-12)


def test_boundary_radius_at_apothem_and_vertex():
    assert octagon_rho_max(0.0) == pytest.approx(np.tanh(APOTHEM / 2.0), rel=1e-13)
    assert octagon_rho_max(np.pi / 8.0) == pytest.approx(
        np.tanh(VERTEX_RADIUS / 2.0), rel=1e-13
    )


def test_octagon_area_gauss_bonnet():
    # right-angled octagon: area = (8 - 2) pi - 8 * pi/4 = 4 pi
    assert octagon_area() == pytest.approx(4.0 * np.pi, abs=1e-10)
    assert octagon_area(weight=lambda z: np.full(np.shape(z), 2.0)) == pytest.approx(
        8.0 * np.pi, abs=1e-9
    )


def test_radial_quantile_endpoints():
    phi = np.linspace(0.0, 2.0 * np.pi, 9)[:-1]
    boundary = octagon_rho_max(phi) * np.exp(1j * phi)
    np.testing.assert_allclose(radial_quantile(boundary), 1.0, atol=1e-12)
    assert radial_quantile(np.array([0.0 + 0.0j]))[0] == pytest.approx(0.0, abs=1e-15)


def test_octagon_grid_covers_polygon(in_polygon):
    z = octagon_grid(64, 8)
    assert z[0] == 1j
    from anosovlab.fuchsian import DirichletDomain

    dom = DirichletDomain(bolza_generators())
    assert np.all(in_polygon(dom, z, tol=1e-9))


def test_sample_octagon_positions_uniform(in_polygon):
    from scipy import stats

    rng = np.random.default_rng(31)
    z = sample_octagon_positions(5000, rng)
    from anosovlab.fuchsian import DirichletDomain, to_disk

    dom = DirichletDomain(bolza_generators())
    assert np.all(in_polygon(dom, z, tol=1e-9))
    # the conditional radial quantile is exactly pivotal under the area law
    ks = stats.kstest(radial_quantile(to_disk(z)), "uniform").statistic
    assert ks < 0.025


def test_sample_octagon_positions_weighted():
    rng = np.random.default_rng(32)
    weight = lambda z: np.where(np.real(z) > 0.0, 1.1, 0.1)
    z = sample_octagon_positions(6000, rng, weight=weight, weight_sup=1.1)
    frac = float(np.mean(z.real > 0.0))
    # left and right halves carry equal area, so the weighted fraction is 11/12
    assert frac == pytest.approx(11.0 / 12.0, abs=0.02)
    with pytest.raises(ValueError):
        sample_octagon_positions(10, rng, weight=weight)


def test_sample_octagon_positions_checks_weight_sup():
    # a bound below the weight's maximum would over-accept; it must raise
    weight = lambda z: np.where(np.real(z) > 0.0, 1.1, 0.1)
    with pytest.raises(ValueError, match="exceeds weight_sup"):
        sample_octagon_positions(100, np.random.default_rng(33), weight=weight,
                                 weight_sup=1.0)


def test_sampling_is_seeded():
    z1 = sample_octagon_positions(100, np.random.default_rng(7))
    z2 = sample_octagon_positions(100, np.random.default_rng(7))
    np.testing.assert_array_equal(z1, z2)


class TestPerturbationShape:
    @classmethod
    def setup_class(cls):
        cls.gens = bolza_generators()
        cls.shape = PerturbationShape(cls.gens)

    def test_center_counts(self):
        # 457 reduced words at depth 3; pruning keeps the ones that can reach
        # the circumscribed disk, and each point sums over its sector's list
        assert len(self.shape.all_centers) == 457
        assert len(self.shape.centers) == 41
        assert self.shape.n_centers == self.shape.sector_table.shape[1] == 14

    def test_value_basics(self):
        v = self.shape.value(np.array([1j]))
        assert v[0] >= 1.0  # the bump at the base point alone contributes 1
        rng = np.random.default_rng(40)
        z = sample_octagon_positions(50, rng)
        assert np.all(self.shape.value(z) > 0.0)

    def test_group_periodicity(self):
        rng = np.random.default_rng(41)
        z = sample_octagon_positions(100, rng)
        v0 = self.shape.value_full(z)
        for m in np.concatenate([self.gens, np.linalg.inv(self.gens)]):
            v1 = self.shape.value_full(mobius(m, z))
            assert np.max(np.abs(v1 - v0)) < 2e-11

    def test_defect_certificates(self):
        assert self.shape.invariance_defect(self.gens) < 1e-10
        assert self.shape.pruning_gap(octagon_grid()) < 1e-13

    def test_blocked_orbit_sum_is_bit_identical(self):
        # the certificate grid is not a whole number of blocks
        z = octagon_grid(margin=SECTOR_MARGIN)
        assert len(z) == 4609 and len(z) % BLOCK_POINTS != 0
        one_shot = self.shape._bumps(z, self.shape.all_centers)
        np.testing.assert_array_equal(self.shape.value_full(z), one_shot)
        # 2-d and 0-d arguments keep their shape and bits
        z2 = z[:2 * 300].reshape(2, 300)
        full2 = self.shape.value_full(z2)
        assert full2.shape == (2, 300)
        np.testing.assert_array_equal(full2, one_shot[:600].reshape(2, 300))
        full0 = self.shape.value_full(z[7])
        assert np.shape(full0) == ()
        np.testing.assert_array_equal(
            full0, self.shape._bumps(z[7], self.shape.all_centers))

    def test_pack_against_finite_differences(self):
        rng = np.random.default_rng(42)
        z = sample_octagon_positions(30, rng)
        val, gx, gy, lap = self.shape.pack(z)
        np.testing.assert_allclose(val, self.shape.value(z), atol=1e-14)

        h = 1e-4
        fxp = self.shape.value(z + h)
        fxm = self.shape.value(z - h)
        fyp = self.shape.value(z + 1j * h)
        fym = self.shape.value(z - 1j * h)
        f0 = self.shape.value(z)
        np.testing.assert_allclose(gx, (fxp - fxm) / (2 * h), atol=1e-5)
        np.testing.assert_allclose(gy, (fyp - fym) / (2 * h), atol=1e-5)
        flat_lap = (fxp + fxm + fyp + fym - 4.0 * f0) / (h * h)
        np.testing.assert_allclose(lap, z.imag**2 * flat_lap, atol=1e-4)

    @pytest.mark.parametrize("option", [
        {"sigma": 0.3}, {"depth": 4}, {"base_point": 0.4 + 1.3j}])
    def test_takes_only_the_generators(self, option):
        # one shape: its width, depth and base point are module constants
        with pytest.raises(TypeError):
            PerturbationShape(self.gens, **option)

    @staticmethod
    def _reference_pack(shape, z):
        """pack summed over all pruned centres, with no sector lists."""
        c = shape.centers
        return shape.pack(z, centers=np.broadcast_to(c, np.shape(z) + c.shape))

    def _check_points(self):
        # the centre, the vertices, disk angles on and next to the sector
        # edges, and points pushed SECTOR_MARGIN radially outside the polygon
        k = np.arange(2 * N_SECTORS) * np.pi / N_SECTORS
        phi = np.concatenate([k, k + 1e-12, k - 1e-12])
        rho = octagon_rho_max(phi)
        vertices = (2 * np.arange(8) + 1) * np.pi / 8.0
        rho_out = np.tanh(np.arctanh(rho) + 0.5 * SECTOR_MARGIN)
        w = np.concatenate([
            [0.0],
            octagon_rho_max(vertices) * np.exp(1j * vertices),
            0.5 * rho * np.exp(1j * phi),
            rho * np.exp(1j * phi),
            rho_out * np.exp(1j * phi),
        ])
        return to_halfplane(w)

    def test_sector_lists_match_all_pruned_centres(self):
        z = self._check_points()
        ref = self._reference_pack(self.shape, z)
        for a, b in zip(self.shape.pack(z), ref):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(self.shape.value(z), ref[0], rtol=0.0,
                                   atol=1e-13)

    def test_sector_dist_closed_form(self):
        # against the minimum over a dense polar grid of each sector
        rng = np.random.default_rng(43)
        z = to_halfplane(0.95 * np.sqrt(rng.uniform(size=40))
                         * np.exp(2j * np.pi * rng.uniform(size=40)))
        mid = (np.arange(N_SECTORS) + 0.5) * (2.0 * np.pi / N_SECTORS)
        z = np.concatenate([[1j], z, to_halfplane(0.6 * np.exp(1j * mid))])
        r = np.linspace(0.0, VERTEX_RADIUS, 400)
        for k in (0, 5, 11):
            a = np.linspace(k, k + 1, 400) * (2.0 * np.pi / N_SECTORS)
            grid = to_halfplane((np.tanh(0.5 * r)[:, None]
                                 * np.exp(1j * a)[None, :]).ravel())
            brute = dist_hp(z[:, None], grid[None, :]).min(axis=1)
            d = sector_dist(z, k)
            assert np.all(d <= brute + 1e-12)
            np.testing.assert_allclose(d, brute, atol=2e-2)
            inside = (sector_index(z) == k) & (
                np.abs(to_disk(z)) <= np.tanh(0.5 * VERTEX_RADIUS))
            assert inside.any()
            np.testing.assert_array_equal(d[inside], 0.0)

    def test_hoisted_lists_serve_a_whole_step(self, monkeypatch, in_polygon):
        # the largest accepted step, h = SECTOR_MARGIN, from states that
        # start on and next to the vertices and sector edges; the 8 angles
        # pair every covector with its reverse, which takes the backward step
        from anosovlab.flow import MidpointEnsemble
        from anosovlab.model import build_model

        model = build_model(model="conformal_perturbation", epsilon=0.05,
                            step=SECTOR_MARGIN)
        shape = model.shape
        z0 = self._check_points()
        z0 = z0[in_polygon(model.domain, z0)]
        z = np.repeat(z0, 8)
        th = np.tile(np.arange(8) * np.pi / 4.0 + 0.1, len(z0))
        calls = []
        pack = shape.pack

        def spy(zz, laplacian=True, centers=None):
            calls.append((np.copy(zz), centers))
            return pack(zz, laplacian, centers)

        monkeypatch.setattr(shape, "pack", spy)
        MidpointEnsemble(model, z, th).step()
        assert len(calls) == MidpointEnsemble.n_iter
        crossed = False
        for zz, centers in calls:
            assert centers is not None
            crossed |= np.any(centers != shape.sector_centers(zz))
            for a, b in zip(pack(zz, centers=centers), pack(zz)):
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-13)
        assert crossed  # some iterates left the sector of their start point

    def test_pruning_gap_sees_a_dropped_centre(self, monkeypatch):
        # the base point's bump (first in every list) replaced by one so far
        # away that it adds 0
        table = self.shape.sector_table.copy()
        assert table[3, 0] == 1j
        table[3, 0] = 1j * np.exp(60.0)
        monkeypatch.setattr(self.shape, "sector_table", table)
        assert self.shape.pruning_gap(octagon_grid()) > 1e-6

    def test_build_model_rejects_a_list_that_drops_too_much(self, monkeypatch):
        from anosovlab import model as model_module
        from anosovlab.errors import ModelValidationError

        class Dropping(PerturbationShape):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.sector_table[N_SECTORS - 1, 1] = 1j * np.exp(60.0)

        monkeypatch.setattr(model_module, "PerturbationShape", Dropping)
        with pytest.raises(ModelValidationError, match="group-periodic"):
            model_module.build_model(model="conformal_perturbation")
