"""Link gains and the SINR/capacity kernel for the macro/femto downlink.

Each gain comes from its link's path loss in dB; all link budgets are then
computed in the linear (milliwatt) domain.
"""

from __future__ import annotations

import math

import numpy as np

from .topology import Topology, distance

_LN2 = math.log(2.0)


def dbm_to_mw(dbm: float) -> float:
    """Convert a power level in dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


class ActionSet:
    """``n`` transmit power levels, uniformly spaced in dBm, both endpoints included.

    ``ScenarioConfig`` checks that ``n >= 2`` and ``p_min_dbm < p_max_dbm``.
    """

    __slots__ = ("levels_dbm", "levels_mw")

    def __init__(self, p_min_dbm: float, p_max_dbm: float, n: int):
        levels = np.linspace(p_min_dbm, p_max_dbm, n)
        levels.setflags(write=False)
        self.levels_dbm = levels
        mw = dbm_to_mw(levels)
        mw.setflags(write=False)
        self.levels_mw = mw

    def __len__(self) -> int:
        return self.levels_dbm.size


def build_gain_matrix(
    topology: Topology,
    *,
    pl0: float,
    exponent: float,
    d0: float,
    f_ghz: float,
) -> np.ndarray:
    """The read-only ``(M+1, M+1)`` link gains of a topology, one link at a time.

    Row 0 is the macro base station, rows ``1..M`` the femto base
    stations; column 0 is the macro user, columns ``1..M`` the femto
    users. A gain outside ``(0, 1]``, NaN included, is a ``ValueError``.

    Each gain is ``10 ** (-PL / 10)`` for the link's path loss PL in dB.
    The macro station's links and each femto station's link to its own
    user are residential, ``pl0 + 10 exponent log10(d / d0)``. A femto
    station's links to the macro user and to other users are
    indoor-to-outdoor: a frequency-dependent wall loss plus
    ``62.3 + 32 log10(d / 5 m)``. ``Topology`` guarantees positive
    distances.
    """
    wall_db = -1.8 * f_ghz * f_ghz + 10.6 * f_ghz + 6.1
    tx = (topology.mbs, *topology.fbs)
    rx = (topology.mue, *topology.fue)
    gains = np.empty((len(tx), len(rx)), dtype=float)
    for t, a in enumerate(tx):
        for r, b in enumerate(rx):
            d = distance(a, b)
            if t == 0 or t == r:
                pl = pl0 + 10.0 * exponent * math.log10(d / d0)
            else:
                pl = wall_db + (62.3 + 32.0 * math.log10(d / 5.0))
            gains[t, r] = 10.0 ** (-pl / 10.0)
    if not np.all((gains > 0.0) & (gains <= 1.0)):
        raise ValueError("gains must lie in (0, 1]; check node separations")
    gains.setflags(write=False)
    return gains


class Links:
    """The capacity kernel: every link of the macro user and a set of femto stations.

    ``ids`` picks the femto stations (all of them when ``None``), in the
    order their powers are given. ``capacities`` takes one joint action
    as an ``(m,)`` power vector or ``k`` of them as a ``(k, m)`` batch.

    The gains are held as basic slices (views into the gain matrix) for
    the full set and as fancy-indexed copies for a subset. Over copies, the
    full set's one-action products rounded differently in the last bit in
    15-50% of random cases at every m from 4 to 40; the tests'
    ``reference.one_action_capacities`` pins the views.

    A batch's femto-user capacities come out station-major, ``(m, k)``:
    station j's column of the batch is one contiguous row, so the
    elementwise steps and the caller's sums and masks run over whole rows
    instead of m-element ones. The femto interference is
    ``g_cross.T @ powers.T`` into that layout, which BLAS rounds as
    ``(powers @ g_cross).T``. The macro user's matrix-vector product
    stays on the row-major ``(k, m)`` powers: over a column-major copy of
    them it rounds differently in the last bit.
    """

    __slots__ = ("_g_fbs_mue", "_g_cross", "_g_serve", "_mbs_fue", "_signal_mue", "_noise_mw")

    def __init__(self, gains: np.ndarray, p_bs_mw: float, noise_mw: float, ids=None):
        if ids is None:
            self._g_fbs_mue = gains[1:, 0]
            self._g_cross = gains[1:, 1:]
            self._mbs_fue = p_bs_mw * gains[0, 1:]
        else:
            idx = 1 + np.asarray(ids, dtype=np.intp)
            self._g_fbs_mue = gains[idx, 0]
            self._g_cross = gains[np.ix_(idx, idx)]
            self._mbs_fue = p_bs_mw * gains[0, idx]
        self._g_serve = np.diag(self._g_cross)
        self._signal_mue = p_bs_mw * gains[0, 0]
        self._noise_mw = noise_mw

    def capacities(self, powers_mw: np.ndarray, out: tuple | None = None) -> tuple:
        """Capacities (macro user, femto users) in b/s/Hz, log2(1 + SINR).

        For ``(m,)`` powers: a float and an ``(m,)`` array; for ``(k, m)``
        powers: a ``(k,)`` and an ``(m, k)`` array, femto user j's
        capacities in row j. A batch may pass ``out``, contiguous ``(k,)``,
        ``(m, k)`` and ``(m, k)`` buffers for the two results and the
        scratch, to be written instead of allocated; the results are the
        same to the last bit.
        """
        if powers_mw.ndim == 1:
            sinr_mue = self._signal_mue / (powers_mw @ self._g_fbs_mue + self._noise_mw)
            # math.log1p, not np.log1p: numpy's SIMD log1p can round the
            # last bit differently, which would change the golden digests
            c_mue = math.log1p(sinr_mue) / _LN2
            signal = powers_mw * self._g_serve
            c_fue = powers_mw @ self._g_cross
            mbs_fue = self._mbs_fue
        else:
            k, m = powers_mw.shape
            c_mue, c_fue, signal = out or (np.empty(k), np.empty((m, k)), np.empty((m, k)))
            np.matmul(powers_mw, self._g_fbs_mue, out=c_mue)
            c_mue += self._noise_mw
            np.divide(self._signal_mue, c_mue, out=c_mue)
            np.log1p(c_mue, out=c_mue)
            c_mue /= _LN2
            for j in range(m):
                np.multiply(powers_mw[:, j], self._g_serve[j], out=signal[j])
            np.matmul(self._g_cross.T, powers_mw.T, out=c_fue)
            mbs_fue = self._mbs_fue[:, None]
        # one buffer carries the received power, then interference plus
        # noise, the SINR and the capacity
        c_fue -= signal
        c_fue += mbs_fue
        c_fue += self._noise_mw
        np.divide(signal, c_fue, out=c_fue)
        np.log1p(c_fue, out=c_fue)
        c_fue /= _LN2
        return c_mue, c_fue


def evaluate_capacities(
    p_bs_mw: float, fbs_powers_mw, gains: np.ndarray, noise_mw: float
) -> tuple[float, np.ndarray]:
    """Capacities (macro user, all femto users) for one joint action, checked.

    Matches the scalar SINR and capacity chain link by link.
    """
    powers = np.asarray(fbs_powers_mw, dtype=float)
    _check_powers(p_bs_mw, powers, gains, noise_mw)
    return Links(gains, p_bs_mw, noise_mw).capacities(powers)


def _check_powers(p_bs_mw: float, powers: np.ndarray, gains: np.ndarray, noise_mw: float) -> None:
    if noise_mw <= 0.0:
        raise ValueError(f"noise power must be positive, got {noise_mw}")
    if p_bs_mw < 0.0:
        raise ValueError(f"macro transmit power must be nonnegative, got {p_bs_mw}")
    if powers.shape != (len(gains) - 1,):
        raise ValueError(f"expected {len(gains) - 1} femto powers, got shape {powers.shape}")
    if np.any(powers < 0.0):
        raise ValueError("femto transmit powers must be nonnegative")
