"""Harmonic inversion of sampled correlation series.

A truncated resonance expansion C(t) ~= sum_j a_j e^{z_j t} sampled on a
uniform grid is a sum of geometric progressions in w_j = e^{z_j dt}.  The
w_j are recovered by the matrix-pencil method: singular vectors of the
Hankel matrix of the series span the signal subspace, and the one-step
shift acting on that subspace has eigenvalues w_j.  Amplitudes follow from
a Vandermonde least-squares solve.  Rank selection by relative singular
value threshold doubles as the noise gate.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .correlation import CorrelationSeries
from .errors import InversionError

_MAX_HANKEL_ROWS = 500


@dataclass(frozen=True)
class ModeSet:
    """Recovered modes, sorted by Re z descending."""

    z: np.ndarray          # complex decay rates
    amplitude: np.ndarray  # complex amplitudes
    singular_values: np.ndarray
    residual: float        # rms misfit of the reconstruction
    dt: float

    def __len__(self):
        return len(self.z)

    def significant(self, floor: float) -> "ModeSet":
        """Modes with amplitude above a noise floor (e.g. the series stderr)."""
        keep = np.abs(self.amplitude) > floor
        return ModeSet(
            z=self.z[keep],
            amplitude=self.amplitude[keep],
            singular_values=self.singular_values,
            residual=self.residual,
            dt=self.dt,
        )


def _empty_modeset(dt: float, sv: np.ndarray, residual: float) -> ModeSet:
    return ModeSet(
        z=np.zeros(0, dtype=complex),
        amplitude=np.zeros(0, dtype=complex),
        singular_values=sv,
        residual=residual,
        dt=dt,
    )


def _pinv(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with scipy.linalg.pinv's cutoff and
    arithmetic order (np.linalg.pinv rounds differently)."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    r = int(np.count_nonzero(s > max(a.shape) * np.finfo(s.dtype).eps * s[0]))
    return ((u[:, :r] / s[:r]) @ vh[:r]).conj().T


def harmonic_inversion(series: CorrelationSeries, max_modes: int = 12,
                       sv_threshold: float = 1e-3) -> ModeSet:
    """Extract decaying modes from a correlation series.

    The number of retained modes is the Hankel numerical rank at the given
    relative singular-value threshold, capped at max_modes.  Mode rates use
    the principal logarithm, so |Im z| < pi/dt; rates within 1% of that
    Nyquist bound trigger an aliasing warning.
    """
    if max_modes < 1:
        raise InversionError("max_modes must be at least 1")
    if not 0.0 < sv_threshold < 1.0:
        raise InversionError("sv_threshold must lie in (0, 1)")
    c = np.asarray(series.values, dtype=float)
    n = len(c)
    if n < 4 * max_modes:
        raise InversionError(
            "series of length %d cannot resolve %d modes (need 4x)"
            % (n, max_modes)
        )
    dt = series.dt
    if not np.any(c):
        return _empty_modeset(dt, np.zeros(0), 0.0)

    rows = min(n // 2, _MAX_HANKEL_ROWS)
    Y = sliding_window_view(c, n - rows + 1)  # Hankel, Y[i, j] = c[i + j]
    U, sv, _ = np.linalg.svd(Y, full_matrices=False)
    rank = int(np.count_nonzero(sv >= sv_threshold * sv[0]))
    rank = min(rank, max_modes, rows - 1)
    if rank == 0:
        return _empty_modeset(dt, sv, float(np.sqrt(np.mean(c ** 2))))

    U0 = U[:-1, :rank]
    U1 = U[1:, :rank]
    w = np.linalg.eigvals(_pinv(U0) @ U1)
    w = w[np.abs(w) > 1e-12]
    if len(w) == 0:
        return _empty_modeset(dt, sv, float(np.sqrt(np.mean(c ** 2))))
    z = np.log(w) / dt
    near_nyquist = np.abs(z.imag) > 0.99 * np.pi / dt
    if np.any(near_nyquist):
        warnings.warn(
            "recovered frequencies within 1%% of the Nyquist bound pi/dt"
            " = %.4g; increase the sampling rate" % (np.pi / dt),
            RuntimeWarning,
        )

    vand = np.exp(np.outer(series.times, z))
    amp, *_ = np.linalg.lstsq(vand, c.astype(complex), rcond=None)
    misfit = vand @ amp - c
    residual = float(np.sqrt(np.mean(np.abs(misfit) ** 2)))
    order = np.argsort(-z.real)
    return ModeSet(
        z=z[order],
        amplitude=amp[order],
        singular_values=sv,
        residual=residual,
        dt=dt,
    )
