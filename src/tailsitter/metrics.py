"""Post-run metrics, each computable from the emitted CSV logs alone."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "amplitude_envelope",
    "max_growth_rate",
    "dominant_frequency",
    "overshoot_pct",
    "first_order_fit",
    "rise_time",
]

ENVELOPE_BIN_S = 0.25  # amplitude-envelope bin width
GROWTH_WINDOW_S = 2.0  # sliding window of the growth-rate fit
GROWTH_FLOOR = 1e-9  # envelope bins below this are noise floor, not signal
DOMINANT_BAND_HZ = (5.0, 40.0)  # searched for the dominant oscillation
FIT_WINDOW_S = 4.0  # response window of the first-order fit


def amplitude_envelope(t, x):
    """Coarse amplitude envelope: peak |x| per ``ENVELOPE_BIN_S`` bin."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    n_bins = max(1, int(math.floor((t[-1] - t[0]) / ENVELOPE_BIN_S)))
    edges = t[0] + ENVELOPE_BIN_S * np.arange(n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    env = np.zeros(n_bins)
    idx = np.clip(((t - t[0]) / ENVELOPE_BIN_S).astype(int), 0, n_bins - 1)
    np.maximum.at(env, idx, np.abs(x))
    return centers, env


def max_growth_rate(t, x, t_lo=None, t_hi=None):
    """Largest exponential growth rate (1/s) of the |x| envelope.

    Fits ln(envelope) against time over sliding windows of
    ``GROWTH_WINDOW_S`` restricted to [t_lo, t_hi]; bins below
    ``GROWTH_FLOOR`` are excluded so the noise floor cannot masquerade as
    decay or growth.
    """
    tc, env = amplitude_envelope(t, x)
    if t_lo is not None or t_hi is not None:
        m = np.ones_like(tc, dtype=bool)
        if t_lo is not None:
            m &= tc >= t_lo
        if t_hi is not None:
            m &= tc <= t_hi
        tc, env = tc[m], env[m]
    good = env > GROWTH_FLOOR
    tc, env = tc[good], env[good]
    if tc.size < 3:
        return float("nan")
    per_window = max(3, int(round(GROWTH_WINDOW_S / (tc[1] - tc[0]))))
    best = -np.inf
    for s in range(0, tc.size - per_window + 1):
        tt = tc[s : s + per_window]
        yy = np.log(env[s : s + per_window])
        slope = np.polyfit(tt, yy, 1)[0]
        best = max(best, slope)
    if tc.size >= 3 and best == -np.inf:
        best = np.polyfit(tc, np.log(env), 1)[0]
    return float(best)


def dominant_frequency(x, sample_hz):
    """Peak of the Hann-windowed periodogram within ``DOMINANT_BAND_HZ``."""
    x = np.asarray(x, dtype=float)
    x = x - np.mean(x)
    w = np.hanning(x.size)
    spec = np.abs(np.fft.rfft(x * w)) ** 2
    freqs = np.fft.rfftfreq(x.size, 1.0 / sample_hz)
    f_lo, f_hi = DOMINANT_BAND_HZ
    band = (freqs >= f_lo) & (freqs <= f_hi)
    if not np.any(band):
        return float("nan")
    i = np.argmax(np.where(band, spec, 0.0))
    return float(freqs[i])


def overshoot_pct(t, y, t_step, y_initial, y_final, settle_window_s=4.0):
    """Peak excursion past the final value, percent of the step size."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    step = y_final - y_initial
    if step == 0.0:
        return 0.0
    m = (t >= t_step) & (t <= t_step + settle_window_s)
    excursion = (y[m] - y_final) / step
    return float(100.0 * max(0.0, np.max(excursion)))


def rise_time(t, y, t_step, y_initial, y_final):
    """10 % to 90 % rise time of a step response, seconds."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    m = t >= t_step
    tt, yy = t[m], (y[m] - y_initial) / (y_final - y_initial)
    t10 = tt[np.argmax(yy >= 0.1)]
    t90 = tt[np.argmax(yy >= 0.9)]
    return float(t90 - t10)


def first_order_fit(t, y, t_step):
    """Fit y = y0 + dy (1 - exp(-(t - t_step)/tau)) over ``FIT_WINDOW_S``.

    Returns (tau, r_squared).  tau is scanned over a log grid with the
    amplitude pair solved linearly at each candidate, which is robust for
    the monotone responses this checks.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    m = (t >= t_step) & (t <= t_step + FIT_WINDOW_S)
    tt = t[m] - t_step
    yy = y[m]
    ss_tot = float(np.sum((yy - np.mean(yy)) ** 2))
    best = (float("nan"), -np.inf)
    for tau in np.logspace(-2, 1, 120):
        basis = np.vstack([np.ones_like(tt), 1.0 - np.exp(-tt / tau)]).T
        coef, *_ = np.linalg.lstsq(basis, yy, rcond=None)
        resid = yy - basis @ coef
        ss_res = float(resid @ resid)
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
        if r2 > best[1]:
            best = (float(tau), r2)
    return best
