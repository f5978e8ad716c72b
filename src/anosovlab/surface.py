"""Conformal factors on the octagon surface and quadrature over the polygon.

The metrics handled by the package are e^{2 psi} g_hyp where psi = eps * shape
and the shape is a superposition of Gaussian bumps in hyperbolic distance,

    shape(z) = sum_j exp(-d(z, c_j)^2 / (2 sigma^2)),

with the centres c_j running over a truncated group orbit of a base point.
Truncation breaks exact invariance; the defect decays like the bump tail at
half the minimal distance between discarded orbit points and the polygon, so
it is measured rather than assumed.  With the defaults (sigma 0.35, orbit
depth 3) the measured defect is about 1e-9.

Radial derivatives of a bump f(d) = exp(-d^2 / (2 sigma^2)):

    grad f   = -(f d / sigma^2) grad d,     grad d = grad(cosh d) / sinh d,
    Delta f  = f''(d) + coth(d) f'(d)
             = f * (d^2/sigma^4 - 1/sigma^2 - d coth(d) / sigma^2),

where Delta is the hyperbolic Laplacian and d coth d -> 1 at d -> 0.

Runtime evaluation sums each point's bumps over a short list of centres.
The polygon is split into its 16 symmetry sectors of angle pi/8 in the disk
picture, and each sector keeps the centres whose bump can exceed the pruning
tolerance within SECTOR_MARGIN of the sector (the closed-form distance to a
polar sector is ``sector_dist``).  The margin is the largest step the
midpoint integrator accepts, so a list looked up at a step's reduced start
point serves every fixed-point iterate of that step.  What the lists drop
is measured, not assumed: ``PerturbationShape.pruning_gap`` compares each
list with the whole orbit sum over its widened sector.  Scans of grids run
``blockwise``, a fixed number of points per call, with the same bits as one
call: their working memory does not grow with the grid.
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fuchsian import (
    VERTEX_RADIUS,
    _Q,
    cosh_dist_hp,
    _word_levels,
    dist_hp,
    mobius,
    to_disk,
    to_halfplane,
)

# The dihedral symmetry group of the octagon has order 16; its mirror axes
# cut the polygon into 16 congruent sectors of angle pi/8 in the disk.
N_SECTORS = 16
# The largest step MidpointEnsemble accepts; no fixed-point iterate of a step
# moves further than this from the step's reduced start point.
SECTOR_MARGIN = 0.5
# Bumps below this value are dropped from the centre lists.
PRUNE_TOL = 1e-14
# Points per call of ``blockwise``: a (points, centres) table of the
# 457-centre orbit sum then takes 1.9 MB as complex, 0.9 MB as float.
BLOCK_POINTS = 256


def fold_octant(phi):
    """Fold an angle into [0, pi/8], the symmetry sector of the octagon."""
    return np.abs(np.mod(phi + np.pi / 8.0, np.pi / 4.0) - np.pi / 8.0)


def octagon_rho_max(phi):
    """Disk radius of the octagon boundary in the direction phi.

    The sides lie on geodesics whose nearest points to the centre sit at
    hyperbolic distance APOTHEM along the directions k pi/4.
    """
    c = np.cos(fold_octant(phi))
    return (c - np.sqrt(np.maximum(c * c - _Q * _Q, 0.0))) / _Q


def _sector_nodes(n_ang, n_rad):
    xa, wa = leggauss(n_ang)
    xr, wr = leggauss(n_rad)
    delta = xa * (np.pi / 8.0)
    wd = wa * (np.pi / 8.0)
    return delta, wd, xr, wr


def octagon_area(weight=None, n_ang=48, n_rad=48):
    """Integral of a weight over the octagon in hyperbolic area measure.

    `weight` maps half-plane points to values (default 1, whose integral is
    the area 4 pi).  Gauss-Legendre in a polar grid adapted to the boundary.
    """
    delta, wd, xr, wr = _sector_nodes(n_ang, n_rad)
    rho_m = octagon_rho_max(delta)
    total = 0.0
    for k in range(8):
        phi = k * np.pi / 4.0 + delta
        rho = 0.5 * (xr[:, None] + 1.0) * rho_m[None, :]
        jac = 0.5 * rho_m[None, :] * wr[:, None] * wd[None, :]
        dens = 4.0 * rho / (1.0 - rho * rho) ** 2
        if weight is not None:
            dens = dens * weight(to_halfplane(rho * np.exp(1j * phi)))
        total += float(np.sum(dens * jac))
    return total


def octagon_angle_cdf(n_grid=4096):
    """CDF of the angular position marginal under hyperbolic area.

    Returns (phi_grid, cdf) for interpolation; density per angle is
    2/(1 - rho_max^2) - 2.
    """
    phi = np.linspace(0.0, 2.0 * np.pi, n_grid)
    dens = 2.0 / (1.0 - octagon_rho_max(phi) ** 2) - 2.0
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(phi))])
    return phi, cdf / cdf[-1]


def radial_quantile(w):
    """Conditional radial quantile of disk points under hyperbolic area.

    For a point at polar (rho, phi), the hyperbolic mass of {rho' <= rho} at
    fixed angle, normalised by the mass out to the octagon boundary, is
    uniform on (0, 1) under the area measure.  Exactly pivotal, so it feeds
    a Kolmogorov-Smirnov test without any binning.
    """
    w = np.asarray(w, dtype=complex)
    rho2 = np.abs(w) ** 2
    rm2 = octagon_rho_max(np.angle(w)) ** 2
    return (rho2 / (1.0 - rho2)) * (1.0 - rm2) / rm2


def octagon_grid(n_ang=192, n_rad=24, margin=0.0):
    """Half-plane points on a polar grid covering the polygon, centre included.

    A positive margin pushes the outer ring that hyperbolic distance
    radially beyond the boundary.
    """
    phi = np.linspace(0.0, 2.0 * np.pi, n_ang, endpoint=False)
    frac = np.linspace(0.0, 1.0, n_rad + 1)[1:]
    rho_out = octagon_rho_max(phi)
    if margin:
        rho_out = np.tanh(np.arctanh(rho_out) + 0.5 * margin)
    rho = frac[:, None] * rho_out[None, :]
    w = (rho * np.exp(1j * phi)).ravel()
    return np.concatenate([[1j], to_halfplane(w)])


def blockwise(fn, z):
    """fn(z) evaluated BLOCK_POINTS points at a time, in z's shape.

    fn maps a 1-d array of points to one float per point, each from that
    point alone (its own row of centres, summed in the same order), so the
    blocks give the same bits as one call on all of z while bounding the
    working tables of a call by the block size.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    out = np.empty(flat.shape)
    for i in range(0, flat.size, BLOCK_POINTS):
        out[i : i + BLOCK_POINTS] = fn(flat[i : i + BLOCK_POINTS])
    return out.reshape(z.shape)


def sector_index(z):
    """Symmetry sector of half-plane points: the k with disk angle in
    [k, k + 1) * 2 pi / N_SECTORS."""
    phi = np.angle(to_disk(np.asarray(z, dtype=complex)))
    return np.floor(phi * (N_SECTORS / (2.0 * np.pi))).astype(np.intp) % N_SECTORS


def sector_dist(z, k):
    """Hyperbolic distance from half-plane points to the polar sector k,
    the points of the circumscribed disk with disk angle in sector k.

    A point at radius r from i whose angle lies delta outside the sector is
    nearest to the closer edge ray; the ray point at radius t lies at
    cosh d = cosh(r - t) + sinh r sinh t (1 - cos delta) (law of cosines),
    least at tanh t = tanh r cos delta, clipped to [0, VERTEX_RADIUS].
    Inside the sector's angle this is max(0, r - VERTEX_RADIUS).
    """
    w = to_disk(np.asarray(z, dtype=complex))
    r = 2.0 * np.arctanh(np.abs(w))
    half = np.pi / N_SECTORS
    off = np.abs(np.angle(w * np.exp(-1j * (2.0 * np.asarray(k) + 1.0) * half)))
    cos = np.cos(np.maximum(off - half, 0.0))
    t = np.arctanh(np.clip(np.tanh(r) * cos, 0.0, np.tanh(VERTEX_RADIUS)))
    ch = np.cosh(r - t) + np.sinh(r) * np.sinh(t) * (1.0 - cos)
    return np.arccosh(np.maximum(ch, 1.0))


def sample_octagon_positions(n, rng, weight=None, weight_sup=None):
    """Half-plane points distributed by (weighted) hyperbolic area on the octagon.

    Draws from the area measure on the circumscribed disk (closed-form radial
    inverse), rejects outside the polygon, then thins by weight/weight_sup
    when a weight is given.  A candidate whose weight exceeds weight_sup
    raises ValueError: thinning by a bound that is not one would bias the
    sample silently.
    """
    rho_v = np.tanh(0.5 * VERTEX_RADIUS)
    cap = rho_v * rho_v / (1.0 - rho_v * rho_v)
    if weight is not None and weight_sup is None:
        raise ValueError("weight_sup is required alongside weight")
    out = np.empty(n, dtype=complex)
    have = 0
    while have < n:
        m = max(2 * (n - have), 256)
        a = rng.uniform(0.0, cap, size=m)
        rho = np.sqrt(a / (1.0 + a))
        phi = rng.uniform(0.0, 2.0 * np.pi, size=m)
        keep = rho <= octagon_rho_max(phi)
        z = to_halfplane(rho[keep] * np.exp(1j * phi[keep]))
        if weight is not None:
            u = rng.uniform(0.0, 1.0, size=keep.sum())
            w = weight(z)
            if np.any(w > weight_sup):
                raise ValueError("weight %.17g exceeds weight_sup %.17g"
                                 % (np.max(w), weight_sup))
            z = z[u * weight_sup <= w]
        take = min(len(z), n - have)
        out[have : have + take] = z[:take]
        have += take
    return out


class PerturbationShape:
    """Group-periodic bump superposition with value, gradient, and Laplacian.

    Centres are the orbit of a base point under all reduced words up to
    `depth`, pruned to those whose bump can reach the circumscribed disk of
    the polygon above PRUNE_TOL (`centers`).  Each point then sums over
    the list of its symmetry sector only: row k of `sector_table` holds the
    centres whose bump can exceed PRUNE_TOL within SECTOR_MARGIN of the
    polar sector k, padded to a common width (`n_centers`) with a centre so
    far away that its terms are exactly 0.  `pruning_gap` measures what the
    lists drop.  All evaluation assumes arguments lie within SECTOR_MARGIN
    of the fundamental polygon; callers reduce first.
    """

    def __init__(self, generators, sigma=0.35, depth=3, base_point=1j):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)
        self.depth = int(depth)
        self.base_point = complex(base_point)
        words = [np.eye(2)[None]] + [
            mats for mats, _, _ in _word_levels(generators, self.depth)]
        seen = set()
        centers = []
        for c in mobius(np.concatenate(words), self.base_point).tolist():
            key = (round(c.real, 10), round(c.imag, 10))
            if key in seen:
                continue
            seen.add(key)
            centers.append(c)
        self.all_centers = np.array(centers)
        # A bump stays below PRUNE_TOL beyond hyperbolic distance `reach`
        # from its centre.
        reach = self.sigma * np.sqrt(-2.0 * np.log(PRUNE_TOL))
        self.centers = self.all_centers[
            dist_hp(self.all_centers, 1j) - VERTEX_RADIUS <= reach]
        need = (sector_dist(self.centers, np.arange(N_SECTORS)[:, None])
                - SECTOR_MARGIN <= reach)
        # The pad lies 40 sigma beyond every point within the margin of the
        # circumscribed disk, where its bump underflows to exactly 0.
        pad = 1j * np.exp(VERTEX_RADIUS + SECTOR_MARGIN + 40.0 * self.sigma)
        self.sector_table = np.full((N_SECTORS, need.sum(axis=1).max()), pad)
        for row, keep in zip(self.sector_table, need):
            row[: keep.sum()] = self.centers[keep]

    @property
    def n_centers(self):
        """Centres each point sums over: the width of the sector lists."""
        return self.sector_table.shape[1]

    def sector_centers(self, z):
        """The sector list of each point, shape z.shape + (n_centers,)."""
        return self.sector_table[sector_index(z)]

    def _bumps(self, z, centers):
        # cosh d is not kept alive: each (points, centres) float array takes
        # 0.9 MB on a block of the whole orbit sum
        d = np.arccosh(np.maximum(
            1.0, cosh_dist_hp(np.asarray(z, dtype=complex)[..., None], centers)))
        return np.exp(-0.5 * (d / self.sigma) ** 2).sum(axis=-1)

    def value(self, z):
        return self._bumps(z, self.sector_centers(z))

    def value_full(self, z):
        """The whole truncated orbit sum, no pruning; valid anywhere in H.

        Evaluated ``blockwise``: the same bits as one ``_bumps`` call on
        all centres, in bounded memory on certificate grids.
        """
        return blockwise(lambda p: self._bumps(p, self.all_centers), z)

    def pruning_gap(self, z):
        """Max over sectors of what the sector's list drops from the whole
        orbit sum, at those of the given points within SECTOR_MARGIN of the
        sector."""
        z = np.ravel(np.asarray(z, dtype=complex))
        full = self.value_full(z)
        near = sector_dist(z, np.arange(N_SECTORS)[:, None]) <= SECTOR_MARGIN
        gap = 0.0
        for row, mask in zip(self.sector_table, near):
            if mask.any():
                drop = np.abs(full[mask] - self._bumps(z[mask], row))
                gap = max(gap, float(drop.max()))
        return gap

    def pack(self, z, laplacian=True, centers=None):
        """(value, d/dx, d/dy, hyperbolic Laplacian) at half-plane points.

        Each point sums over its row of `centers`, by default its own sector
        list.  A caller may pass ``sector_centers(z0)`` instead when each
        point lies within SECTOR_MARGIN of its reduced point z0.  With
        ``laplacian=False`` the last entry is None and its terms are never
        formed; the first three entries are the same bits either way.
        """
        z = np.asarray(z, dtype=complex)
        c = self.sector_centers(z) if centers is None else centers
        z = z[..., None]
        x, y = z.real, z.imag
        # cosh d(z, c), written out to share its pieces with the partials;
        # u >= 1 exactly, as 1 plus a nonnegative number
        dx = x - c.real
        dy = y - c.imag
        ycy = y * c.imag
        u = 1.0 + (dx * dx + dy * dy) / (2.0 * ycy)
        d = np.arccosh(u)
        dd = d * d
        sh = np.sqrt(u * u - 1.0)
        # r = d / sinh d, extended through d = 0 by its series
        if sh.min(initial=1.0) < 1e-6:
            small = sh < 1e-6
            r = np.where(small, 1.0 - dd / 6.0, d / np.where(small, 1.0, sh))
        else:
            r = d / sh
        s2 = self.sigma * self.sigma
        # same bits as -0.5 * d * d: scaling by a power of two is exact
        g = np.exp(-0.5 * dd / s2)
        # partials of cosh d(z, c) in x and y
        ux = dx / ycy
        uy = dy / ycy - (u - 1.0) / y
        coef = -(g * r) / s2
        val = g.sum(axis=-1)
        gx = (coef * ux).sum(axis=-1)
        gy = (coef * uy).sum(axis=-1)
        lap = None
        if laplacian:
            lap = (g * (dd / (s2 * s2) - 1.0 / s2 - (u * r) / s2)).sum(axis=-1)
        return val, gx, gy, lap

    def invariance_defect(self, generators, n=400, seed=20260814):
        """Max change of the shape under the eight side pairings, sampled.

        Samples area-uniform points of the polygon (corners included by
        construction) and compares the full truncated sum before and after
        each pairing; the result is the genuine truncation tail of the orbit
        sum.  The runtime (pruned) evaluation adds at most two pruning gaps
        on top, which the model builder accounts for separately.
        """
        rng = np.random.default_rng(seed)
        z = sample_octagon_positions(n, rng)
        v0 = self.value_full(z)
        gens = np.asarray(generators)
        mats = np.concatenate([gens, np.linalg.inv(gens)])
        worst = 0.0
        for m in mats:
            worst = max(
                worst, float(np.max(np.abs(self.value_full(mobius(m, z)) - v0)))
            )
        return worst
