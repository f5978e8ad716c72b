"""Hyperbolic isometries, the Cayley disk picture, and the genus-2 octagon group.

Conventions used throughout the package:

* Upper half-plane H = {Im z > 0} with metric (dx^2 + dy^2)/y^2.  A real
  matrix g = [[a, b], [c, d]] with det g = 1 acts by the Moebius map
  z -> (a z + b)/(c z + d).
* g also encodes a unit tangent vector: the base point is z = g(i) and the
  direction is the pushforward of the upward vertical at i, whose angle is
  theta_H = pi/2 - 2 atan2(c, d).  The geodesic flow in this picture is
  right multiplication by a(t) = diag(e^{t/2}, e^{-t/2}).
* The Poincare disk is reached through the Cayley map w = (z - i)/(z + i),
  which sends i to the disk centre.  Direction angles in the disk frame are
  theta_D = theta_H + pi/2 - 2 arg(z + i).

The default co-compact group is the genus-2 surface group generated by four
hyperbolic translations of length 2 arccosh(1 + sqrt 2) along the directions
k pi/4, k = 0..3.  They pair opposite sides of the regular hyperbolic octagon
with all interior angles pi/4, whose area is 4 pi (Gauss-Bonnet for genus 2).
The octagon is the Dirichlet domain of the group centred at i, so membership
and reduction to the fundamental domain are pure nearest-orbit-point tests
against the eight neighbouring octagon centres.
"""
from __future__ import annotations

import numpy as np

# Octagon constants.  The right triangle (centre, edge midpoint, vertex) has
# angles pi/8, pi/2, pi/8, which gives cosh(apothem) = cot(pi/8) = 1 + sqrt 2
# and cosh(vertex radius) = cot^2(pi/8) = 3 + 2 sqrt 2.
APOTHEM = float(np.arccosh(1.0 + np.sqrt(2.0)))
VERTEX_RADIUS = float(np.arccosh(3.0 + 2.0 * np.sqrt(2.0)))
TRANSLATION_LENGTH = 2.0 * APOTHEM
MAX_ROUNDS = 64  # cap on the sweeps of one reduction call

_CAYLEY = np.array([[1.0, -1j], [1.0, 1j]])
_CAYLEY_INV = np.linalg.inv(_CAYLEY)


def to_disk(z):
    """Cayley map H -> D, i -> 0."""
    return (z - 1j) / (z + 1j)


def to_halfplane(w):
    """Inverse Cayley map D -> H."""
    return 1j * (1.0 + w) / (1.0 - w)


def mobius(g, z):
    """Moebius action of one or many 2x2 matrices on complex points.

    Either `g` is a single matrix applied to an array of points, or the
    leading axes of `g` broadcast against `z`.
    """
    g = np.asarray(g)
    return (g[..., 0, 0] * z + g[..., 0, 1]) / (g[..., 1, 0] * z + g[..., 1, 1])


def cosh_dist_hp(z1, z2):
    """cosh of the hyperbolic distance between half-plane points."""
    return 1.0 + np.abs(z1 - z2) ** 2 / (2.0 * np.imag(z1) * np.imag(z2))


def dist_hp(z1, z2):
    return np.arccosh(np.maximum(1.0, cosh_dist_hp(z1, z2)))


def bolza_generators() -> np.ndarray:
    """The four side-pairing translations of the regular octagon, shape (4,2,2).

    Built in SU(1,1) as rotations of the translation along the real diameter
    and conjugated back to SL(2,R) with the Cayley matrix; the results are
    exactly real up to roundoff, which is stripped.
    """
    ch, sh = np.cosh(APOTHEM), np.sinh(APOTHEM)
    gens = np.empty((4, 2, 2))
    for k in range(4):
        phi = k * np.pi / 4.0
        m = np.array([[ch, np.exp(1j * phi) * sh], [np.exp(-1j * phi) * sh, ch]])
        g = _CAYLEY_INV @ m @ _CAYLEY
        if np.max(np.abs(g.imag)) > 1e-12:
            raise AssertionError("octagon generator failed to come out real")
        gens[k] = g.real
    return gens


def matrix_base_point(g):
    """Base point z = g(i) for a (..., 2, 2) matrix array, without inversion.

    Uses det g = 1: z = ((ac + bd) + i) / (c^2 + d^2).
    """
    g = np.asarray(g)
    a, b = g[..., 0, 0], g[..., 0, 1]
    c, d = g[..., 1, 0], g[..., 1, 1]
    den = c * c + d * d
    return (a * c + b * d) / den + 1j / den


def matrix_angle_hp(g):
    """Direction angle at the base point, half-plane frame."""
    g = np.asarray(g)
    return 0.5 * np.pi - 2.0 * np.arctan2(g[..., 1, 0], g[..., 1, 1])


def matrix_to_disk(g):
    """(w, theta_D): disk base point and disk-frame direction angle."""
    z = matrix_base_point(g)
    th = matrix_angle_hp(g) + 0.5 * np.pi - 2.0 * np.angle(z + 1j)
    return to_disk(z), np.mod(th, 2.0 * np.pi)


def halfplane_to_disk_angle(z, theta_h):
    return np.mod(theta_h + 0.5 * np.pi - 2.0 * np.angle(z + 1j), 2.0 * np.pi)


def halfplane_to_matrix(z, theta_h):
    """Unit-determinant matrix for a half-plane point and direction angle.

    Vectorised: z, theta_h broadcast to a (..., 2, 2) array.
    """
    z = np.asarray(z, dtype=complex)
    th = np.asarray(theta_h, dtype=float)
    alpha = 0.5 * (0.5 * np.pi - th)
    x, y = z.real, z.imag
    sy = np.sqrt(y)
    ca, sa = np.cos(alpha), np.sin(alpha)
    g = np.empty(np.broadcast(z, th).shape + (2, 2))
    # [[sy, x/sy], [0, 1/sy]] @ rotation(alpha)
    g[..., 0, 0] = sy * ca + (x / sy) * sa
    g[..., 0, 1] = -sy * sa + (x / sy) * ca
    g[..., 1, 0] = sa / sy
    g[..., 1, 1] = ca / sy
    return g


class DirichletDomain:
    """Reduction to the Dirichlet fundamental polygon of an octagon-type group.

    The polygon is the set of points at least as close to i as to any of the
    eight neighbouring centres gamma_j(i).  Reduction repeatedly applies the
    inverse of the neighbour whose centre is strictly closest; ties are
    broken by the first index in the fixed neighbour order (the four
    generators followed by their inverses).
    """

    def __init__(self, generators: np.ndarray):
        generators = np.asarray(generators, dtype=float)
        dets = np.linalg.det(generators)
        if np.any(np.abs(dets - 1.0) > 1e-9):
            from .errors import ModelValidationError

            raise ModelValidationError(
                "generators must have unit determinant, got det = %s" % dets
            )
        self.generators = generators
        inv = np.linalg.inv(generators)
        self.neighbors = np.concatenate([generators, inv])         # (8,2,2)
        self.neighbors_inv = np.concatenate([inv, generators])     # inverse of each
        self.neighbor_base = mobius(self.neighbors, 1j)            # gamma_j(i)
        self.in_radius = APOTHEM          # inscribed (hyperbolic) radius
        self.out_radius = VERTEX_RADIUS   # circumscribed radius
        # quick-skip threshold: points within the inscribed circle are inside
        self._cosh_in = np.cosh(self.in_radius)

    # -- point form ---------------------------------------------------------

    def margin(self, z):
        """min_j cosh d(z, gamma_j i) - cosh d(z, i); >= 0 inside the polygon."""
        c0 = cosh_dist_hp(z, 1j)
        cj = cosh_dist_hp(z[..., None], self.neighbor_base)
        return cj.min(axis=-1) - c0

    def contains(self, z, tol=1e-12):
        return self.margin(np.asarray(z, dtype=complex)) >= -tol

    def _reduce(self, z, move):
        """The reduction loop over base points z, updated in place.

        ``move(sel, m)`` applies the matrices m[k] to the states at indices
        sel[k] and returns their new base points.  Each sweep moves every
        point that has a strictly closer neighbour in one gathered call.
        Later sweeps touch only the points that moved in the previous one and
        still sit outside the inscribed circle; everything else is already
        reduced.  Returns the number of sweeps used, at most MAX_ROUNDS.
        """
        c0 = cosh_dist_hp(z, 1j)
        active = np.flatnonzero(c0 > self._cosh_in)  # only these can be outside
        rounds = 0
        while len(active) and rounds < MAX_ROUNDS:
            cj = cosh_dist_hp(z[active, None], self.neighbor_base)
            jbest = np.argmin(cj, axis=1)
            better = cj[np.arange(len(jbest)), jbest] < c0[active] * (1.0 - 1e-15)
            if not better.any():
                break
            rounds += 1
            idx = active[better]
            z[idx] = move(idx, self.neighbors_inv[jbest[better]])
            c0[idx] = cosh_dist_hp(z[idx], 1j)
            active = idx[c0[idx] > self._cosh_in]
        return rounds

    def reduce_points(self, z, xi):
        """Reduce 1-d arrays of half-plane points and covectors into the polygon.

        Covectors transform by xi -> xi * conj((c z + d)^2) for the applied
        matrix, which is the inverse-transpose action written complexly.
        Returns (z, xi, rounds_used).
        """
        z = np.array(z, dtype=complex, copy=True)
        xi = np.array(xi, dtype=complex, copy=True)

        def move(sel, m):
            q = m[:, 1, 0] * z[sel] + m[:, 1, 1]
            xi[sel] = xi[sel] * np.conj(q * q)
            return mobius(m, z[sel])

        rounds = self._reduce(z, move)
        return z, xi, rounds

    def quotient_cosh_dist(self, z, w):
        """cosh of the surface distance between reduced half-plane points.

        Minimises over w and its eight neighbouring translates, which is
        exact whenever the true distance is below the polygon in-radius and
        continuous across the polygon boundary in any case; that covers every
        use here (bump observables with a few-sigma reach).
        """
        z = np.asarray(z, dtype=complex)[..., None]
        reps = np.concatenate([[w], mobius(self.neighbors, w)])
        return cosh_dist_hp(z, reps).min(axis=-1)

    def quotient_dist(self, z, w):
        return np.arccosh(np.maximum(1.0, self.quotient_cosh_dist(z, w)))

    # -- matrix form --------------------------------------------------------

    def reduce_matrices(self, g):
        """Left-multiply (n,2,2) matrices by group elements until the base
        point lies in the polygon.  Returns the number of sweeps used."""
        g = np.asarray(g)

        def move(sel, m):
            moved = np.einsum("nab,nbc->nac", m, g[sel])
            g[sel] = moved
            return matrix_base_point(moved)

        return self._reduce(matrix_base_point(g), move)


def _word_levels(generators, max_len):
    """Reduced words of lengths 1..max_len, one level at a time.

    Yields (mats, parent, last) per level: the (k, 2, 2) products, the index
    of each word's prefix in the previous level, and its last letter (an
    index into [g0..g3, g0^-1..g3^-1]).  Words come parent-major with the
    appended letter minor, and every product is one matmul of its prefix by
    a generator.
    """
    gens = np.asarray(generators, dtype=float)
    gen8 = np.concatenate([gens, np.linalg.inv(gens)])
    mats, last = gen8, np.arange(8)
    yield mats, np.zeros(8, dtype=int), last
    for _ in range(max_len - 1):
        # skip the letter that would cancel the last one (no backtracking)
        keep = np.arange(8)[None, :] != (last[:, None] + 4) % 8
        parent, last = np.nonzero(keep)
        mats = np.matmul(mats[:, None], gen8)[keep]
        yield mats, parent, last


def group_words(generators, max_len, include_identity=True):
    """All reduced words (no immediate backtracking) up to the given length.

    Yields (matrix, word) where word is a tuple of indices into the list
    [g0..g3, g0^-1..g3^-1].
    """
    if include_identity:
        yield np.eye(2), ()
    words = [()]
    for mats, parent, last in _word_levels(generators, max_len):
        words = [words[p] + (j,) for p, j in zip(parent.tolist(), last.tolist())]
        yield from zip(mats, words)


def closed_geodesic_elements(generators, max_len, limit=None):
    """Hyperbolic group elements keyed by distinct |trace|, shortest first.

    Conjugate words and inverses share the trace, so rounding |trace| is a
    cheap conjugacy-class proxy; completeness is not needed, diversity is.
    Returns a list of (matrix, length) with length = 2 arccosh(|tr| / 2).
    """
    seen = {}
    for mats, _, _ in _word_levels(generators, max_len):
        # distinct exact traces in order of first appearance, so each key
        # keeps the first word that produced it
        traces, first = np.unique(np.abs(mats[:, 0, 0] + mats[:, 1, 1]),
                                  return_index=True)
        order = np.argsort(first)
        for tr, i in zip(traces[order].tolist(), first[order].tolist()):
            if tr <= 2.0 + 1e-9:
                continue  # not hyperbolic (identity or elliptic); none expected
            key = round(tr, 9)
            if key not in seen:
                seen[key] = (mats[i].copy(), 2.0 * float(np.arccosh(0.5 * tr)))
    out = sorted(seen.values(), key=lambda t: t[1])
    if limit is not None:
        out = out[:limit]
    return out


def axis_seed(m):
    """A phase point on the axis of a hyperbolic element, and its period.

    Diagonalising m = P a(ell) P^{-1} with det P = 1 makes g = P a point whose
    forward orbit closes after time ell = 2 arccosh(|tr m| / 2): indeed
    m P = P a(ell), so flowing by ell lands in the same left coset.
    """
    ev, P = np.linalg.eig(np.asarray(m, dtype=float))
    if np.max(np.abs(ev.imag)) > 1e-9:
        raise ValueError("element is not hyperbolic")
    order = np.argsort(-np.abs(ev.real))
    P = P.real[:, order]
    det = float(np.linalg.det(P))
    if det < 0:
        P[:, 1] *= -1.0
        det = -det
    P = P / np.sqrt(det)
    ell = 2.0 * np.log(abs(float(ev.real[order][0])))
    return P, ell
