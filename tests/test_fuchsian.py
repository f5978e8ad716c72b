"""Group model of the genus-2 surface: generators, reduction, words, axes."""
import numpy as np
import pytest

from anosovlab.fuchsian import (
    APOTHEM,
    TRANSLATION_LENGTH,
    VERTEX_RADIUS,
    DirichletDomain,
    axis_seed,
    bolza_generators,
    closed_geodesic_elements,
    cosh_dist_hp,
    dist_hp,
    group_words,
    halfplane_to_disk_angle,
    halfplane_to_matrix,
    matrix_angle_hp,
    matrix_base_point,
    matrix_to_disk,
    mobius,
    to_disk,
    to_halfplane,
)


def test_octagon_constants():
    # regular right-angled octagon: in-radius arccosh(1+sqrt 2), out-radius
    # arccosh(cot^2(pi/8)); frozen decimals guard against silent edits
    assert APOTHEM == pytest.approx(1.5285709194809982, abs=1e-15)
    assert TRANSLATION_LENGTH == pytest.approx(3.0571418389619964, abs=1e-15)
    assert VERTEX_RADIUS == pytest.approx(
        float(np.arccosh(1.0 / np.tan(np.pi / 8.0) ** 2)), abs=1e-12
    )


def test_distance_formulas():
    # d(i, i e^t) = t along the imaginary axis
    for t in (0.3, 1.0, 2.7):
        assert cosh_dist_hp(1j, 1j * np.exp(t)) == pytest.approx(np.cosh(t), rel=1e-14)
        assert dist_hp(1j, 1j * np.exp(t)) == pytest.approx(t, rel=1e-12)
    # the inverse Cayley map undoes the Cayley map
    z1 = 0.4 + 1.3j
    assert to_halfplane(to_disk(z1)) == pytest.approx(z1, rel=1e-12)


def test_generators_are_side_pairings():
    g = bolza_generators()
    assert g.shape == (4, 2, 2)
    dets = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    np.testing.assert_allclose(dets, 1.0, atol=1e-14)
    # translations by the side-pairing length, trace 2 cosh(l/2) = 2(1+sqrt 2)
    np.testing.assert_allclose(np.trace(g, axis1=1, axis2=2),
                               2.0 * (1.0 + np.sqrt(2.0)), atol=1e-12)
    for k in range(4):
        moved = mobius(g[k], 1j)
        assert cosh_dist_hp(moved, 1j) == pytest.approx(
            np.cosh(TRANSLATION_LENGTH), rel=1e-13
        )
        # axis direction of generator k is k pi/4 in the disk
        ang = np.angle(to_disk(moved)) % (2.0 * np.pi)
        assert ang == pytest.approx(k * np.pi / 4.0, abs=1e-12)


def test_surface_group_relation():
    g = bolza_generators()
    inv = np.linalg.inv(g)
    word = g[0] @ inv[1] @ g[2] @ inv[3] @ inv[0] @ g[1] @ inv[2] @ g[3]
    np.testing.assert_allclose(word, np.eye(2), atol=1e-12)


def test_state_matrix_round_trip():
    rng = np.random.default_rng(2)
    z = rng.uniform(-0.8, 0.8, 40) + 1j * rng.uniform(0.4, 2.5, 40)
    th = rng.uniform(0.0, 2.0 * np.pi, 40)
    m = halfplane_to_matrix(z, th)
    dets = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    np.testing.assert_allclose(dets, 1.0, atol=1e-12)
    np.testing.assert_allclose(matrix_base_point(m), z, atol=1e-12)
    np.testing.assert_allclose(np.mod(matrix_angle_hp(m), 2 * np.pi), th, atol=1e-12)

    w, th_d = matrix_to_disk(m)
    np.testing.assert_allclose(w, to_disk(z), atol=1e-12)
    np.testing.assert_allclose(th_d, halfplane_to_disk_angle(z, th), atol=1e-11)


def _per_neighbour_reduce(domain, z, move):
    """Reference reduction loop: one ``move(sel, m)`` per distinct neighbour
    in each sweep, with m a single (2, 2) matrix.  Returns the sweep count
    and whether any sweep applied two or more different neighbours."""
    c0 = cosh_dist_hp(z, 1j)
    active = np.flatnonzero(c0 > domain._cosh_in)
    rounds, mixed = 0, False
    while len(active) and rounds < 64:
        cj = cosh_dist_hp(z[active, None], domain.neighbor_base)
        jbest = np.argmin(cj, axis=1)
        better = cj[np.arange(len(jbest)), jbest] < c0[active] * (1.0 - 1e-15)
        if not better.any():
            break
        rounds += 1
        idx = active[better]
        jsel = jbest[better]
        mixed |= len(np.unique(jsel)) >= 2
        for j in np.unique(jsel):
            sel = idx[jsel == j]
            z[sel] = move(sel, domain.neighbors_inv[j])
        c0[idx] = cosh_dist_hp(z[idx], 1j)
        active = idx[c0[idx] > domain._cosh_in]
    return rounds, mixed


class TestDirichletReduction:
    def setup_method(self):
        self.gens = bolza_generators()
        self.domain = DirichletDomain(self.gens)

    def test_radii(self):
        assert self.domain.in_radius == pytest.approx(APOTHEM)
        assert self.domain.out_radius == pytest.approx(VERTEX_RADIUS)

    def test_known_word_is_undone(self):
        rng = np.random.default_rng(5)
        # interior points, then push them out by various short words
        w0 = 0.3 * np.exp(1j * rng.uniform(0, 2 * np.pi, 30))
        z0 = to_halfplane(w0)
        words = [m for m, _ in group_words(self.gens, 2, include_identity=False)]
        for j in (0, 3, 17, 40):
            z = mobius(words[j], z0)
            xi = np.ones_like(z)
            zr, _, _ = self.domain.reduce_points(z.copy(), xi.copy())
            np.testing.assert_allclose(zr, z0, atol=1e-9)

    def test_reduction_is_idempotent(self):
        rng = np.random.default_rng(6)
        z, th = rng.uniform(-3, 3, 50) + 1j * rng.uniform(0.1, 4.0, 50), rng.uniform(
            0, 2 * np.pi, 50
        )
        g = halfplane_to_matrix(z, th)
        self.domain.reduce_matrices(g)
        z1 = matrix_base_point(g)
        assert np.all(cosh_dist_hp(z1, 1j) <= np.cosh(VERTEX_RADIUS) + 1e-9)
        g2 = g.copy()
        self.domain.reduce_matrices(g2)
        np.testing.assert_array_equal(g, g2)

    def test_matrix_and_point_reduction_agree(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(-4, 4, 40) + 1j * rng.uniform(0.05, 6.0, 40)
        th = rng.uniform(0, 2 * np.pi, 40)
        g = halfplane_to_matrix(z, th)
        self.domain.reduce_matrices(g)
        psi = np.exp(1j * th) / z.imag
        zr, xir, _ = self.domain.reduce_points(z.copy(), psi.astype(complex))
        np.testing.assert_allclose(zr, matrix_base_point(g), atol=1e-9)
        np.testing.assert_allclose(
            np.mod(np.angle(xir), 2 * np.pi),
            np.mod(matrix_angle_hp(g), 2 * np.pi),
            atol=1e-9,
        )

    def test_gathered_sweep_matches_per_neighbour_loop(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(-4, 4, 40) + 1j * rng.uniform(0.05, 6.0, 40)
        th = rng.uniform(0, 2 * np.pi, 40)
        g = halfplane_to_matrix(z, th)
        psi = np.exp(1j * th) / z.imag

        ref_g = g.copy()

        def move_matrices(sel, m):
            moved = np.einsum("ab,nbc->nac", m, ref_g[sel])
            ref_g[sel] = moved
            return matrix_base_point(moved)

        ref_rounds, mixed = _per_neighbour_reduce(
            self.domain, matrix_base_point(ref_g), move_matrices)
        assert mixed  # some sweep applied two or more different neighbours
        rounds = self.domain.reduce_matrices(g)
        np.testing.assert_array_equal(g, ref_g)
        assert rounds == ref_rounds

        ref_z, ref_xi = z.copy(), psi.astype(complex)

        def move_points(sel, m):
            q = m[1, 0] * ref_z[sel] + m[1, 1]
            ref_xi[sel] = ref_xi[sel] * np.conj(q * q)
            return mobius(m, ref_z[sel])

        ref_rounds, mixed = _per_neighbour_reduce(self.domain, ref_z, move_points)
        assert mixed
        zr, xir, rounds = self.domain.reduce_points(z.copy(), psi.astype(complex))
        np.testing.assert_array_equal(zr, ref_z)
        np.testing.assert_array_equal(xir, ref_xi)
        assert rounds == ref_rounds

    def test_quotient_distance_symmetry(self):
        rng = np.random.default_rng(8)
        w = 0.4 * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        z = to_halfplane(w)
        for a in z[:4]:
            for b in z[4:]:
                d1 = self.domain.quotient_dist(np.array([a]), complex(b))[0]
                d2 = self.domain.quotient_dist(np.array([b]), complex(a))[0]
                assert d1 == pytest.approx(d2, abs=1e-12)
                assert d1 <= dist_hp(a, b) + 1e-12


def test_group_words_counts():
    g = bolza_generators()
    # 8 letters, no immediate backtracking: 1 + 8 + 8*7 + 8*7^2
    for max_len, expect in ((1, 9), (2, 65), (3, 457)):
        assert sum(1 for _ in group_words(g, max_len)) == expect
    assert sum(1 for _ in group_words(g, 1, include_identity=False)) == 8


def _loop_words(g, max_len):
    """Word-by-word reference enumeration: prefix @ letter, no backtracking."""
    gen8 = np.concatenate([g, np.linalg.inv(g)])
    level = [(gen8[j], (j,)) for j in range(8)]
    out = list(level)
    for _ in range(max_len - 1):
        level = [(m @ gen8[j], wd + (j,)) for m, wd in level
                 for j in range(8) if j != (wd[-1] + 4) % 8]
        out += level
    return out


def test_batched_words_match_loop_reference():
    g = bolza_generators()
    ref = _loop_words(g, 5)
    got = list(group_words(g, 5, include_identity=False))
    assert [wd for _, wd in got] == [wd for _, wd in ref]
    for (m, _), (r, _) in zip(got, ref):
        np.testing.assert_array_equal(m, r)
    # first word per rounded |trace|, sorted by length
    seen = {}
    for m, _ in ref:
        tr = abs(float(np.trace(m)))
        seen.setdefault(round(tr, 9), (m, 2.0 * float(np.arccosh(0.5 * tr))))
    expect = sorted(seen.values(), key=lambda t: t[1])
    els = closed_geodesic_elements(g, 5)
    assert [ell for _, ell in els] == [ell for _, ell in expect]
    for (m, _), (r, _) in zip(els, expect):
        np.testing.assert_array_equal(m, r)


def test_closed_geodesics_systole_and_axes():
    g = bolza_generators()
    els = closed_geodesic_elements(g, 4)
    assert len(els) == 35  # distinct |trace| classes through length 4
    lengths = [ell for _, ell in els]
    assert lengths == sorted(lengths)
    assert lengths[0] == pytest.approx(TRANSLATION_LENGTH, abs=1e-12)

    for m, ell in els[:5]:
        seed, period = axis_seed(m)
        assert period == pytest.approx(ell, rel=1e-12)
        conj = np.linalg.inv(seed) @ m @ seed
        flow = np.diag([np.exp(0.5 * ell), np.exp(-0.5 * ell)])
        np.testing.assert_allclose(conj, flow, atol=1e-9)

    assert len(closed_geodesic_elements(g, 6, limit=128)) == 128


def test_axis_seed_rejects_elliptic():
    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    with pytest.raises(ValueError):
        axis_seed(rot)
