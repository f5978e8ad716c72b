"""Group model of the genus-2 surface: generators, reduction, words, axes."""
import tracemalloc

import numpy as np
import pytest

from anosovlab.errors import ModelValidationError, StepSizeError
from anosovlab.fuchsian import (
    APOTHEM,
    MAX_ROUNDS,
    TRANSLATION_LENGTH,
    VERTEX_RADIUS,
    DirichletDomain,
    _first_per_key,
    _round9,
    _word_levels,
    axis_seed,
    bolza_generators,
    closed_geodesic_elements,
    cosh_dist_hp,
    dist_hp,
    halfplane_to_matrix,
    matrix_angle_hp,
    matrix_base_point,
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


# The reference loops decide by a cosh-distance table: the nearest of the
# centres gamma_j(i) is its argmin, first index on ties, and a point moves, by
# the inverse of that neighbour, when its centre is closer than i.  Points
# within the in-circle (cosh distance cosh(APOTHEM) from i) are skipped.
_COSH_IN = np.cosh(APOTHEM)


def _table_parts(domain):
    """(centres gamma_j(i), inverses of the neighbours) for a table loop."""
    return (mobius(domain.neighbors, 1j),
            np.concatenate([np.linalg.inv(domain.generators), domain.generators]))


def _per_neighbour_reduce(domain, z, move):
    """Reference reduction loop: one ``move(sel, m)`` per distinct neighbour
    in each sweep, with m a single (2, 2) matrix.  Returns the sweep count
    and whether any sweep applied two or more different neighbours."""
    centres, inverses = _table_parts(domain)
    c0 = cosh_dist_hp(z, 1j)
    active = np.flatnonzero(c0 > _COSH_IN)
    rounds, mixed = 0, False
    while len(active) and rounds < 64:
        cj = cosh_dist_hp(z[active, None], centres)
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
            z[sel] = move(sel, inverses[j])
        c0[idx] = cosh_dist_hp(z[idx], 1j)
        active = idx[c0[idx] > _COSH_IN]
    return rounds, mixed


def _point_major_reduce(domain, z, move):
    """Reference reduction loop with the point-major (n, 8) neighbour table
    and ``argmin(axis=1)``, one gathered ``move`` per sweep."""
    centres, inverses = _table_parts(domain)
    c0 = cosh_dist_hp(z, 1j)
    active = np.flatnonzero(c0 > _COSH_IN)
    rounds = 0
    while len(active) and rounds < 64:
        cj = cosh_dist_hp(z[active, None], centres)
        jbest = np.argmin(cj, axis=1)
        better = cj[np.arange(len(jbest)), jbest] < c0[active] * (1.0 - 1e-15)
        if not better.any():
            break
        rounds += 1
        idx = active[better]
        z[idx] = move(idx, inverses[jbest[better]])
        c0[idx] = cosh_dist_hp(z[idx], 1j)
        active = idx[c0[idx] > _COSH_IN]
    return rounds


def _near_ties(gens):
    """Half-plane points within 1e-12 (in the disk) of the octagon's edge
    midpoints and vertices, on both sides, plus their images under each
    generator and its inverse, so that reductions pass through ties."""
    gen8 = np.concatenate([gens, np.linalg.inv(gens)])
    k = np.arange(8)[:, None]
    rad = np.array([-1e-12, 0.0, 1e-12])
    w = np.concatenate([
        (np.tanh(0.5 * APOTHEM) + rad) * np.exp(1j * k * np.pi / 4.0),
        (np.tanh(0.5 * VERTEX_RADIUS) + rad) * np.exp(1j * (k + 0.5) * np.pi / 4.0),
    ]).ravel()
    z = to_halfplane(w)
    return np.concatenate([z, mobius(gen8[:, None], z).ravel()])


def _at_corner(z):
    """Whether each half-plane point is an octagon vertex, to 1e-12 in the disk."""
    w = to_disk(z)
    a = np.angle(w) / (np.pi / 4.0) - 0.5
    return ((np.abs(np.abs(w) - np.tanh(0.5 * VERTEX_RADIUS)) <= 1e-12)
            & (np.abs(a - np.rint(a)) <= 1e-12))


class TestDirichletReduction:
    def setup_method(self):
        self.gens = bolza_generators()
        self.domain = DirichletDomain(self.gens)

    def test_known_word_is_undone(self):
        rng = np.random.default_rng(5)
        # interior points, then push them out by various short words
        w0 = 0.3 * np.exp(1j * rng.uniform(0, 2 * np.pi, 30))
        z0 = to_halfplane(w0)
        words = [m for m, _ in _words(self.gens, 2)]
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

    def test_layout_matches_point_major_loop(self, in_polygon):
        rng = np.random.default_rng(7)
        z = rng.uniform(-4, 4, 40) + 1j * rng.uniform(0.05, 6.0, 40)
        th = rng.uniform(0, 2 * np.pi, 40)
        zt = _near_ties(self.gens)
        tht = rng.uniform(0, 2 * np.pi, len(zt))
        # ties are present: some points are as close to a neighbouring
        # centre as to i, to 1e-9 in cosh distance
        gap = (cosh_dist_hp(zt[:, None], _table_parts(self.domain)[0]).min(axis=1)
               - cosh_dist_hp(zt, 1j))
        assert np.sum(np.abs(gap) < 1e-9) >= 16

        # away from ties: the table loop's matrices, covectors and sweeps
        g = halfplane_to_matrix(z, th)
        ref_g = g.copy()

        def move_matrices(sel, m):
            moved = np.einsum("nab,nbc->nac", m, ref_g[sel])
            ref_g[sel] = moved
            return matrix_base_point(moved)

        ref_rounds = _point_major_reduce(self.domain, matrix_base_point(ref_g),
                                         move_matrices)
        assert self.domain.reduce_matrices(g) == ref_rounds
        np.testing.assert_array_equal(g, ref_g)

        xi = np.exp(1j * th) / z.imag
        ref_z, ref_xi = z.copy(), xi.copy()

        def move_points(sel, m):
            q = m[:, 1, 0] * ref_z[sel] + m[:, 1, 1]
            ref_xi[sel] = ref_xi[sel] * np.conj(q * q)
            return mobius(m, ref_z[sel])

        ref_rounds = _point_major_reduce(self.domain, ref_z, move_points)
        zr, xir, rounds = self.domain.reduce_points(z, xi)
        assert rounds == ref_rounds
        np.testing.assert_array_equal(zr, ref_z)
        np.testing.assert_array_equal(xir, ref_xi)

        # at ties the angle rule breaks them its own way: both forms land in
        # the closed polygon, on the same representative to 1e-12 unless both
        # sit on corners (all eight are one point of the surface), and a
        # second reduction leaves them bit for bit
        gt = halfplane_to_matrix(zt, tht)
        self.domain.reduce_matrices(gt)
        zm = matrix_base_point(gt)
        zrt, _, _ = self.domain.reduce_points(zt, np.exp(1j * tht) / zt.imag)
        assert np.all(in_polygon(self.domain, zm))
        assert np.all(in_polygon(self.domain, zrt))
        apart = np.abs(zrt - zm) > 1e-12
        assert np.all(_at_corner(zm[apart]) & _at_corner(zrt[apart]))
        again = gt.copy()
        assert self.domain.reduce_matrices(again) == 0
        np.testing.assert_array_equal(again, gt)
        zr = np.concatenate([zr, zrt])

        # quotient distances from reduced points, to a centre on an edge,
        # at a vertex and inside, in 1-d and 2-d layouts
        for w in (zt[1], zt[4], 0.2 + 1.1j):
            reps = np.concatenate([[w], mobius(self.domain.neighbors, w)])
            ref = cosh_dist_hp(zr[:, None], reps).min(axis=-1)
            np.testing.assert_array_equal(
                self.domain.quotient_cosh_dist(zr, w), ref)
            np.testing.assert_array_equal(
                self.domain.quotient_cosh_dist(zr[:60].reshape(4, 15), w),
                ref[:60].reshape(4, 15))

    def test_angle_rule_matches_cosh_table(self):
        # one sweep over 200 000 points from the in-circle to 1.5 beyond the
        # vertices moves exactly the points the table finds strictly closer
        # to a neighbouring centre, each by the inverse of the table's
        # nearest; only points within 1e-9 of a tie are left out
        rng = np.random.default_rng(11)
        n = 200_000
        r = rng.uniform(APOTHEM, VERTEX_RADIUS + 1.5, n)
        z = to_halfplane(np.tanh(0.5 * r) * np.exp(2j * np.pi * rng.uniform(size=n)))
        centres, inverses = _table_parts(self.domain)
        cj = cosh_dist_hp(z[:, None], centres)
        c0 = cosh_dist_hp(z, 1j)
        jbest = np.argmin(cj, axis=1)
        two = np.partition(cj, 1, axis=1)
        clear = (two[:, 1] - two[:, 0] > 1e-9) & (np.abs(two[:, 0] - c0) > 1e-9)
        assert np.count_nonzero(~clear) < n // 1000

        moves = []

        def move(sel, m):
            moves.append((sel, m))
            return np.zeros(len(sel), dtype=complex)  # the centre: done

        assert self.domain._reduce(to_disk(z), move) == 1
        (sel, m), = moves
        moved = np.zeros(n, dtype=bool)
        moved[sel] = True
        closer = two[:, 0] < c0
        np.testing.assert_array_equal(moved[clear], closer[clear])
        assert np.count_nonzero(closer[clear]) > n // 2
        keep = clear[sel]
        np.testing.assert_array_equal(m[keep], inverses[jbest[sel[keep]]])
        assert set(jbest[sel[keep]].tolist()) == set(range(8))

    def test_irregular_layout_is_rejected(self):
        # conjugating by z -> 4 z moves the centre i; a rotation about i by
        # pi/8 keeps it but turns the neighbouring centres off the angles
        # j pi/4.  The reduction relies on both, so the domain refuses them.
        a = np.pi / 16.0
        for h in (np.diag([2.0, 0.5]),
                  np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]])):
            conj = h @ self.gens @ np.linalg.inv(h)
            with pytest.raises(ModelValidationError, match="regular octagon"):
                DirichletDomain(conj)

    def test_reduction_cap_raises_in_both_forms(self):
        # states flowed by diag(e^{T/2}, e^{-T/2}) from inside the polygon:
        # T = 60 reduces within MAX_ROUNDS sweeps, T = 100 does not
        rng = np.random.default_rng(9)
        w = 0.5 * np.sqrt(rng.uniform(size=500)) * np.exp(
            2j * np.pi * rng.uniform(size=500))
        th = rng.uniform(0, 2 * np.pi, 500)

        def flowed(T):
            g = halfplane_to_matrix(to_halfplane(w), th)
            g[..., 0] *= np.exp(0.5 * T)
            g[..., 1] /= np.exp(0.5 * T)
            z = matrix_base_point(g)
            return g, z, np.exp(1j * matrix_angle_hp(g)) / z.imag

        g, z, xi = flowed(60.0)
        assert self.domain.reduce_matrices(g) <= MAX_ROUNDS
        assert self.domain.reduce_points(z, xi)[2] <= MAX_ROUNDS
        g, z, xi = flowed(100.0)
        with pytest.raises(StepSizeError, match="after 64 reduction sweeps"):
            self.domain.reduce_matrices(g)
        with pytest.raises(StepSizeError, match="after 64 reduction sweeps"):
            self.domain.reduce_points(z, xi)

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


def _words(g, max_len):
    """(matrix, word) pairs of every level of ``_word_levels``; each word is
    the tuple of letter indices rebuilt from the (parent, last) arrays."""
    out, words = [], [()]
    for mats, parent, last in _word_levels(g, max_len):
        words = [words[p] + (j,) for p, j in zip(parent.tolist(), last.tolist())]
        out += zip(mats, words)
    return out


def test_group_words_counts():
    g = bolza_generators()
    # 8 letters, no immediate backtracking: 8 + 8*7 + 8*7^2 besides the identity
    for max_len, expect in ((1, 8), (2, 64), (3, 456)):
        assert len(_words(g, max_len)) == expect


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
    ref6 = _loop_words(g, 6)
    got = _words(g, 5)
    ref = ref6[:len(got)]
    assert [wd for _, wd in got] == [wd for _, wd in ref]
    for (m, _), (r, _) in zip(got, ref):
        np.testing.assert_array_equal(m, r)
    # first word per rounded |trace|, sorted by length: the same matrices
    # and lengths in the same order at every word length and limit
    seen, n_keys = {}, {}
    for m, wd in ref6:
        tr = abs(float(np.trace(m)))
        seen.setdefault(round(tr, 9), (m, 2.0 * float(np.arccosh(0.5 * tr))))
        n_keys[len(wd)] = len(seen)  # ref6 runs through the lengths in order
    entries = list(seen.values())
    for max_len in range(1, 7):
        by_length = sorted(entries[:n_keys[max_len]], key=lambda t: t[1])
        for limit in (24, 64, 128, None):
            expect = by_length[:limit]
            mats, lengths = closed_geodesic_elements(g, max_len, limit)
            assert lengths.tolist() == [ell for _, ell in expect]
            np.testing.assert_array_equal(mats, np.array([m for m, _ in expect]))


def test_trace_keys_match_python_round():
    # every distinct |trace| through word length 7 is keyed exactly as
    # round(t, 9) keys it, also where rint(t * 1e9) picks the wrong neighbour
    tr = np.unique(np.concatenate([
        np.abs(m[:, 0, 0] + m[:, 1, 1])
        for m, _, _ in _word_levels(bolza_generators(), 7)]))
    expect = np.array([round(t, 9) for t in tr.tolist()])
    np.testing.assert_array_equal(_round9(tr), expect)
    assert np.count_nonzero(np.rint(tr * 1e9) / 1e9 != expect) > 0


def test_closed_geodesics_systole_and_axes():
    g = bolza_generators()
    mats, lengths = closed_geodesic_elements(g, 4)
    assert len(mats) == 35  # distinct |trace| classes through length 4
    lengths = lengths.tolist()
    assert lengths == sorted(lengths)
    assert lengths[0] == pytest.approx(TRANSLATION_LENGTH, abs=1e-12)

    for m, ell, seed, period in zip(mats, lengths, *axis_seed(mats[:5])):
        assert period == pytest.approx(ell, rel=1e-12)
        conj = np.linalg.inv(seed) @ m @ seed
        flow = np.diag([np.exp(0.5 * ell), np.exp(-0.5 * ell)])
        np.testing.assert_allclose(conj, flow, atol=1e-9)

    assert len(closed_geodesic_elements(g, 6, limit=128)[0]) == 128


def test_axis_seed_rejects_elliptic():
    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    with pytest.raises(ValueError):
        axis_seed(rot[None])


# (word length, limit): no block, one block, two, and many with a partial last
_ENUMERATIONS = ((1, None), (2, 5), (3, 10), (4, 24), (4, 64), (4, 128),
                 (5, None), (6, None), (6, 128), (7, 128))


def _one_shot_elements(g, max_len, limit=None):
    """Reference: every level formed whole, first per key per level, then
    first among the levels' survivors, sorted stably by length."""
    mats, tr = _first_per_key(np.concatenate([
        _first_per_key(level)[0] for level, _, _ in _word_levels(g, max_len)]))
    lengths = 2.0 * np.arccosh(0.5 * tr)
    order = np.argsort(lengths, kind="stable")[:limit]
    return mats[order], lengths[order]


def test_blocked_last_level_matches_one_shot():
    g = bolza_generators()
    for max_len, limit in _ENUMERATIONS:
        got = closed_geodesic_elements(g, max_len, limit)
        for a, b in zip(got, _one_shot_elements(g, max_len, limit)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
    # the level-6 products are never all held at once (one shot: 14.5 MB)
    tracemalloc.start()
    try:
        closed_geodesic_elements(g, 6, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def _axis_seed_loop(m):
    """Reference: one element at a time, one eig and one det call each."""
    ev, P = np.linalg.eig(np.asarray(m, dtype=float))
    order = np.argsort(-np.abs(ev.real))
    P = P.real[:, order]
    det = float(np.linalg.det(P))
    if det < 0:
        P[:, 1] *= -1.0
        det = -det
    P = P / np.sqrt(det)
    return P, 2.0 * np.log(abs(float(ev.real[order][0])))


def test_stacked_axis_seeds_match_per_matrix_loop():
    g = bolza_generators()
    for max_len, limit in ((6, 128), (4, 128), (4, 24), (7, 128)):
        mats, _ = closed_geodesic_elements(g, max_len, limit)
        # the inverses' sorted eigenvector matrices have det < 0, so both
        # branches of the sign fix run in one stack
        mats = np.concatenate([mats, np.linalg.inv(mats)])
        P, ell = axis_seed(mats)
        ref = [_axis_seed_loop(m) for m in mats]
        np.testing.assert_array_equal(P, np.array([p for p, _ in ref]))
        np.testing.assert_array_equal(ell, np.array([e for _, e in ref]))
