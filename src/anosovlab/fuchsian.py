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
The octagon is the Dirichlet domain of the group centred at i.  Its eight
neighbouring centres sit on one disk circle at the angles j pi/4, so reduction
to the fundamental domain picks the nearest of them by a point's disk angle.
"""
from __future__ import annotations

import numpy as np

from .errors import ModelValidationError, StepSizeError

# Octagon constants.  The right triangle (centre, edge midpoint, vertex) has
# angles pi/8, pi/2, pi/8, which gives cosh(apothem) = cot(pi/8) = 1 + sqrt 2
# and cosh(vertex radius) = cot^2(pi/8) = 3 + 2 sqrt 2.
APOTHEM = float(np.arccosh(1.0 + np.sqrt(2.0)))
VERTEX_RADIUS = float(np.arccosh(3.0 + 2.0 * np.sqrt(2.0)))
TRANSLATION_LENGTH = 2.0 * APOTHEM
MAX_ROUNDS = 64  # cap on the sweeps of one reduction call
_Q = float(np.tanh(APOTHEM))  # disk radius of the neighbouring centres
_HALF_Q = 0.5 * _Q * (1.0 + 1e-15)  # bisector test, with a strict margin
_IN_R2 = float(np.tanh(0.5 * APOTHEM)) ** 2 * (1.0 - 1e-12)  # in-radius^2, shrunk
_TURN = np.exp(-0.25j * np.pi * np.arange(8))  # turns neighbour j onto the axis
# the 7 letters that may follow each letter: all but its inverse (no
# backtracking), so no product is formed and then dropped
_FOLLOW = np.array([np.delete(np.arange(8), (j + 4) % 8) for j in range(8)])
_BLOCK_PARENTS = 2048  # parents per block of the longest words' level

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


def _cosh_dist_less_one(z1, z2):
    """cosh d - 1 = |z1 - z2|^2 / (2 Im z1 Im z2) for half-plane points."""
    return np.abs(z1 - z2) ** 2 / (2.0 * np.imag(z1) * np.imag(z2))


def cosh_dist_hp(z1, z2):
    """cosh of the hyperbolic distance between half-plane points."""
    return 1.0 + _cosh_dist_less_one(z1, z2)


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


def halfplane_to_disk_angle(z, theta):
    return np.mod(theta + 0.5 * np.pi - 2.0 * np.angle(z + 1j), 2.0 * np.pi)


def halfplane_to_matrix(z, theta):
    """Unit-determinant matrix for a half-plane point and direction angle.

    Vectorised: z, theta broadcast to a (..., 2, 2) array.
    """
    z = np.asarray(z, dtype=complex)
    th = np.asarray(theta, dtype=float)
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
    """Reduction to the Dirichlet fundamental polygon of the regular octagon:
    the points at least as close to i as to the eight neighbouring centres
    gamma_j(i) (generators, then inverses: gamma_{j+4} = gamma_j^{-1}), which
    sit in the disk at radius tanh(APOTHEM) and angle j pi/4."""

    def __init__(self, generators: np.ndarray):
        generators = np.asarray(generators, dtype=float)
        dets = np.linalg.det(generators)
        if np.any(np.abs(dets - 1.0) > 1e-9):
            raise ModelValidationError(
                "generators must have unit determinant, got det = %s" % dets)
        self.generators = generators
        self.neighbors = _letters(generators)
        off = np.abs(to_disk(mobius(self.neighbors, 1j)) * _TURN - _Q)
        if np.any(off > 1e-12):  # the layout that _reduce relies on
            raise ModelValidationError("not the regular octagon's layout: %s" % off)

    # -- point form ---------------------------------------------------------

    def _reduce(self, w, move):
        """The reduction loop over disk base points w, updated in place.

        ``move(sel, m)`` applies the matrices m[k] to the states at indices
        sel[k] and returns their new disk base points.  Each sweep moves, in
        one gathered call, every point beyond the bisector of its neighbour
        j = rint(arg w / (pi/4)), Re(w e^{-ij pi/4}) > Q (1 + |w|^2) / 2.
        Later sweeps take only the moved points still outside the in-circle.
        Returns the sweeps used, at most MAX_ROUNDS, or raises StepSizeError.
        """
        r2 = w.real * w.real + w.imag * w.imag
        active = np.flatnonzero(r2 > _IN_R2)  # only these can be outside
        rounds = 0
        while len(active):
            wa = w[active]
            j = np.rint(np.angle(wa) * (4.0 / np.pi)).astype(np.intp) & 7
            better = (wa * _TURN[j]).real > _HALF_Q * (1.0 + r2[active])
            if not better.any():
                break
            if rounds == MAX_ROUNDS:
                raise StepSizeError(
                    "%d points are still outside the fundamental polygon after "
                    "%d reduction sweeps; the step or jump is too long"
                    % (better.sum(), MAX_ROUNDS))
            rounds += 1
            idx = active[better]
            w[idx] = wn = move(idx, self.neighbors.take((j[better] + 4) & 7, axis=0))
            r2[idx] = rn = wn.real * wn.real + wn.imag * wn.imag
            active = idx[rn > _IN_R2]
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
            z[sel] = moved = mobius(m, z[sel])
            return to_disk(moved)

        rounds = self._reduce(to_disk(z), move)
        return z, xi, rounds

    def quotient_cosh_dist(self, z, w):
        """cosh of the surface distance between reduced half-plane points.

        Minimises over w and its eight neighbouring translates, which is
        exact whenever the true distance is below the polygon in-radius and
        continuous across the polygon boundary in any case; that covers every
        use here (bump observables with a few-sigma reach).
        """
        z = np.asarray(z, dtype=complex)
        reps = np.concatenate([[w], mobius(self.neighbors, w)])
        # translate-major (9, *z.shape), reduced along the leading axis; fl(1 + x)
        # is monotone in x, so adding 1 after the minimum keeps the bits
        return 1.0 + _cosh_dist_less_one(
            z, reps.reshape((9,) + (1,) * z.ndim)).min(axis=0)

    def quotient_dist(self, z, w):
        return np.arccosh(np.maximum(1.0, self.quotient_cosh_dist(z, w)))

    # -- matrix form --------------------------------------------------------

    def reduce_matrices(self, g):
        """Left-multiply (n,2,2) matrices by group elements until the base
        point lies in the polygon.  Returns the number of sweeps used."""
        g = np.asarray(g)
        # w = to_disk(h(i)) = ((b + c) + i(a - d)) / ((b - c) + i(a + d)), its
        # four sums formed by one product, bit for bit (two +-1 terms each)
        rows = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [1, 0, -1, 0], [0, -1, 0, 1]], float)

        def disk_point(h):
            nd = (h.reshape(-1, 4) @ rows).view(complex)
            return nd[:, 0] / nd[:, 1]

        def move(sel, m):
            # the 2x2 products written out: the same bits as einsum, faster
            h = g.take(sel, axis=0)
            moved = np.empty_like(h)
            for i in range(2):
                for j in range(2):
                    moved[:, i, j] = m[:, i, 0] * h[:, 0, j] + m[:, i, 1] * h[:, 1, j]
            g[sel] = moved
            return disk_point(moved)

        return self._reduce(disk_point(g), move)


def _letters(generators):
    """[g0..g3, g0^-1..g3^-1], shape (8, 2, 2): the letters of the words."""
    gens = np.asarray(generators, dtype=float)
    return np.concatenate([gens, np.linalg.inv(gens)])


def _children(mats, last, gen8):
    """Products and last letters of the words (mats, last) extended by one
    letter of gen8, parent-major with the appended letter minor."""
    # one matmul per last letter, written in place: no gathered copy
    prod = np.empty((len(mats), 7, 2, 2))
    for j in range(8):
        rows = last == j
        prod[rows] = np.matmul(mats[rows][:, None], gen8[_FOLLOW[j]])
    return prod.reshape(-1, 2, 2), _FOLLOW[last].ravel()


def _word_levels(generators, max_len):
    """Reduced words of lengths 1..max_len, one level at a time.

    Yields (mats, parent, last) per level: the (k, 2, 2) products, the index
    of each word's prefix in the previous level, and its last letter (an
    index into [g0..g3, g0^-1..g3^-1]).  Words come parent-major with the
    appended letter minor (see ``_children``).
    """
    mats = gen8 = _letters(generators)
    last = np.arange(8)
    yield mats, np.zeros(8, dtype=int), last
    for _ in range(max_len - 1):
        parent = np.repeat(np.arange(len(mats)), 7)
        mats, last = _children(mats, last, gen8)
        yield mats, parent, last


def _round9(x):
    """round(v, 9) for each v >= 0 in x: n / 1e9 with n the integer nearest
    v * 1e9 exactly.  rint(x * 1e9) is that n unless the product, off by at
    most half an ulp, lies within an ulp of a half-integer; round takes those.
    """
    p = x * 1e9
    n = np.rint(p)
    out = n / 1e9
    near = 0.5 - np.abs(p - n) <= np.spacing(p)
    out[near] = [round(v, 9) for v in x[near].tolist()]
    return out


def _first_per_key(mats):
    """The hyperbolic elements of mats first for their key round(|trace|, 9),
    in the order of mats, and their |trace|.  The first index per key is
    np.unique's return_index without its stable sort (3x the cost): the least
    index in each run of equal sorted keys."""
    tr = np.abs(mats[:, 0, 0] + mats[:, 1, 1])
    hyp = np.flatnonzero(tr > 2.0 + 1e-9)  # identity, elliptic: none expected
    keys = _round9(tr[hyp])
    perm = np.argsort(keys)
    start = np.flatnonzero(np.diff(keys[perm], prepend=-1.0))  # keys > 2
    pick = hyp[np.sort(np.minimum.reduceat(perm, start))]
    return mats[pick], tr[pick]


def closed_geodesic_elements(generators, max_len, limit=None):
    """Hyperbolic group elements keyed by distinct |trace|, shortest first.

    Conjugate words and inverses share the trace, so round(|trace|, 9) is a
    cheap conjugacy-class proxy; completeness is not needed, diversity is.
    Each key keeps its first word in `_word_levels` order: first per level
    (the last level, never formed whole, per block of parents), then first
    among the survivors; a stable sort keeps that order among equal lengths.
    Returns the (k, 2, 2) matrices and their lengths 2 arccosh(|tr| / 2).
    """
    firsts = []
    for mats, _, last in _word_levels(generators, max_len - 1):
        firsts.append(_first_per_key(mats)[0])
    if max_len > 1:  # the level of max_len, a block of parents at a time
        gen8 = _letters(generators)
        for start in range(0, len(mats), _BLOCK_PARENTS):
            block = slice(start, start + _BLOCK_PARENTS)
            firsts.append(_first_per_key(
                _children(mats[block], last[block], gen8)[0])[0])
    mats, tr = _first_per_key(np.concatenate(firsts))
    lengths = 2.0 * np.arccosh(0.5 * tr)
    order = np.argsort(lengths, kind="stable")[:limit]
    return mats[order], lengths[order]


def axis_seed(m):
    """Phase points on the axes of a stack of hyperbolic elements, and their
    periods.

    Diagonalising m = P a(ell) P^{-1} with det P = 1 makes g = P a point whose
    forward orbit closes after time ell = 2 arccosh(|tr m| / 2): indeed
    m P = P a(ell), so flowing by ell lands in the same left coset.
    """
    ev, P = np.linalg.eig(np.asarray(m, dtype=float))
    if np.max(np.abs(ev.imag)) > 1e-9:
        raise ValueError("element is not hyperbolic")
    order = np.argsort(-np.abs(ev.real), axis=-1)
    P = np.take_along_axis(P.real, order[:, None, :], axis=-1)
    det = np.linalg.det(P)
    P[det < 0, :, 1] *= -1.0
    P /= np.sqrt(np.abs(det))[:, None, None]
    ell = 2.0 * np.log(np.abs(np.take_along_axis(ev.real, order, axis=-1)[:, 0]))
    return P, ell
