"""Propagation models and the SINR/capacity kernel for the macro/femto downlink.

All link budgets are computed in the linear (milliwatt) domain; decibel
quantities appear only at the conversion boundary.
"""

from __future__ import annotations

import math

import numpy as np

_LN2 = math.log(2.0)


def dbm_to_mw(dbm: float) -> float:
    """Convert a power level in dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


def residential_pathloss_db(
    d: float, pl0: float = 62.3, exponent: float = 4.0, d0: float = 5.0
) -> float:
    """Log-distance path loss (dB) for outdoor residential links.

    ``pl0`` is the loss at the reference distance ``d0`` and ``exponent``
    the decay exponent; monotone nondecreasing in ``d`` for positive
    exponents.
    """
    if d <= 0.0:
        raise ValueError(f"distance must be positive, got {d}")
    if d0 <= 0.0:
        raise ValueError(f"reference distance must be positive, got {d0}")
    return pl0 + 10.0 * exponent * math.log10(d / d0)


def indoor_to_outdoor_pathloss_db(d: float, f_ghz: float) -> float:
    """Empirical femtocell indoor-to-outdoor path loss (dB).

    Combines a frequency-dependent penetration term with a log-distance
    term anchored at 5 m.
    """
    if d <= 0.0:
        raise ValueError(f"distance must be positive, got {d}")
    if f_ghz <= 0.0:
        raise ValueError(f"frequency must be positive, got {f_ghz}")
    frequency_term = -1.8 * f_ghz * f_ghz + 10.6 * f_ghz + 6.1
    distance_term = 62.3 + 32.0 * math.log10(d / 5.0)
    return frequency_term + distance_term


def gain_from_pathloss_db(pl_db: float) -> float:
    """Linear power gain corresponding to a path loss in dB."""
    return 10.0 ** (-pl_db / 10.0)


class GainMatrix:
    """Linear channel gains for every transmitter-receiver pair.

    Row 0 is the macro base station, rows ``1..M`` the femto base
    stations; column 0 is the macro user, columns ``1..M`` the femto
    users. Entries are dimensionless power ratios in ``(0, 1]``.
    """

    __slots__ = ("_gains",)

    def __init__(self, gains: np.ndarray):
        g = np.asarray(gains, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 2:
            raise ValueError(f"gain matrix must be square with M >= 1, got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("gain matrix entries must be finite")
        if np.any(g <= 0.0) or np.any(g > 1.0):
            raise ValueError("gains must lie in (0, 1]; check node separations")
        g = g.copy()
        g.setflags(write=False)
        self._gains = g

    @property
    def m(self) -> int:
        """Number of femto base stations."""
        return self._gains.shape[0] - 1

    def as_array(self) -> np.ndarray:
        """Read-only (M+1) x (M+1) array, transmitter-major."""
        return self._gains


def build_gain_matrix(
    topology,
    *,
    pl0: float = 62.3,
    exponent: float = 4.0,
    d0: float = 5.0,
    f_ghz: float = 2.4,
) -> GainMatrix:
    """Compute the full gain matrix for a topology.

    Serving links (macro station to macro user, each femto station to its
    own user) and the macro-to-femto-user interference links use the
    residential model; femto-to-macro-user and femto-to-other-user links
    use the indoor-to-outdoor model.
    """
    from .topology import distance  # local import avoids a cycle

    m = topology.m
    gains = np.empty((m + 1, m + 1), dtype=float)

    def _residential(a, b) -> float:
        d = distance(a, b)
        if d == 0.0:
            raise ValueError("coincident transmitter/receiver positions")
        return gain_from_pathloss_db(residential_pathloss_db(d, pl0, exponent, d0))

    def _indoor_outdoor(a, b) -> float:
        d = distance(a, b)
        if d == 0.0:
            raise ValueError("coincident transmitter/receiver positions")
        return gain_from_pathloss_db(indoor_to_outdoor_pathloss_db(d, f_ghz))

    gains[0, 0] = _residential(topology.mbs, topology.mue)
    for i in range(m):
        gains[0, 1 + i] = _residential(topology.mbs, topology.fue[i])
        gains[1 + i, 0] = _indoor_outdoor(topology.fbs[i], topology.mue)
        for j in range(m):
            if i == j:
                gains[1 + i, 1 + i] = _residential(topology.fbs[i], topology.fue[i])
            else:
                gains[1 + j, 1 + i] = _indoor_outdoor(topology.fbs[j], topology.fue[i])
    return GainMatrix(gains)


class Links:
    """The capacity kernel: every link of the macro user and a set of femto stations.

    ``ids`` picks the femto stations (all of them when ``None``), in the
    order their powers are given. ``capacities`` takes one joint action
    as an ``(m,)`` power vector or ``k`` of them as a ``(k, m)`` batch.

    The gains are held as basic slices (views into the gain matrix) for
    the full set and as fancy-indexed copies for a subset. A matrix
    product over a strided view and over a contiguous copy can round
    differently in the last bit, and the golden artifact digests were
    written with exactly this layout.
    """

    __slots__ = ("_g_fbs_mue", "_g_cross", "_g_serve", "_mbs_fue", "_signal_mue", "_noise_mw")

    def __init__(self, gains: GainMatrix, p_bs_mw: float, noise_mw: float, ids=None):
        g = gains.as_array()
        if ids is None:
            self._g_fbs_mue = g[1:, 0]
            self._g_cross = g[1:, 1:]
            self._mbs_fue = p_bs_mw * g[0, 1:]
        else:
            idx = 1 + np.asarray(ids, dtype=np.intp)
            self._g_fbs_mue = g[idx, 0]
            self._g_cross = g[np.ix_(idx, idx)]
            self._mbs_fue = p_bs_mw * g[0, idx]
        self._g_serve = np.diag(self._g_cross)
        self._signal_mue = p_bs_mw * g[0, 0]
        self._noise_mw = noise_mw

    def capacities(self, powers_mw: np.ndarray, out: tuple | None = None) -> tuple:
        """Capacities (macro user, femto users) in b/s/Hz, log2(1 + SINR).

        For ``(m,)`` powers: a float and an ``(m,)`` array; for ``(k, m)``
        powers: a ``(k,)`` and a ``(k, m)`` array. A batch may pass
        ``out``, contiguous ``(k,)``, ``(k, m)`` and ``(k, m)`` buffers for
        the two results and the scratch, to be written instead of
        allocated; the results are the same to the last bit.
        """
        if powers_mw.ndim == 1:
            sinr_mue = self._signal_mue / (powers_mw @ self._g_fbs_mue + self._noise_mw)
            # math.log1p, not np.log1p: numpy's SIMD log1p can round the
            # last bit differently, which would change the golden digests
            c_mue = math.log1p(sinr_mue) / _LN2
            signal = powers_mw * self._g_serve
            c_fue = powers_mw @ self._g_cross
        else:
            k, m = powers_mw.shape
            c_mue, c_fue, signal = out or (np.empty(k), np.empty((k, m)), np.empty((k, m)))
            np.matmul(powers_mw, self._g_fbs_mue, out=c_mue)
            c_mue += self._noise_mw
            np.divide(self._signal_mue, c_mue, out=c_mue)
            np.log1p(c_mue, out=c_mue)
            c_mue /= _LN2
            np.multiply(powers_mw, self._g_serve, out=signal)
            np.matmul(powers_mw, self._g_cross, out=c_fue)
        # one buffer carries the received power, then interference plus
        # noise, the SINR and the capacity
        c_fue -= signal
        c_fue += self._mbs_fue
        c_fue += self._noise_mw
        np.divide(signal, c_fue, out=c_fue)
        np.log1p(c_fue, out=c_fue)
        c_fue /= _LN2
        return c_mue, c_fue


def evaluate_capacities(
    p_bs_mw: float, fbs_powers_mw, gains: GainMatrix, noise_mw: float
) -> tuple[float, np.ndarray]:
    """Capacities (macro user, all femto users) for one joint action, checked.

    Matches the scalar SINR and capacity chain link by link.
    """
    powers = np.asarray(fbs_powers_mw, dtype=float)
    _check_powers(p_bs_mw, powers, gains, noise_mw)
    return Links(gains, p_bs_mw, noise_mw).capacities(powers)


def _check_powers(p_bs_mw: float, powers: np.ndarray, gains: GainMatrix, noise_mw: float) -> None:
    if noise_mw <= 0.0:
        raise ValueError(f"noise power must be positive, got {noise_mw}")
    if p_bs_mw < 0.0:
        raise ValueError(f"macro transmit power must be nonnegative, got {p_bs_mw}")
    if powers.shape != (gains.m,):
        raise ValueError(f"expected {gains.m} femto powers, got shape {powers.shape}")
    if np.any(powers < 0.0):
        raise ValueError("femto transmit powers must be nonnegative")
