"""Reference evaluator for the identified-plant x PID x notch open loop.

The loop is evaluated one factor at a time with numpy, straight from the
``PlantFitParams`` fields and the compensator gains, with the delay as the
exact term e^{-j w tau}.  Nothing here calls ``tailsitter.lti``, so the
margins, slopes and exported filters the package reports can be checked
against an independent computation.

Each factor keeps its phase inside (-180, 180) deg for every w > 0 (first
and second order sections with positive coefficients, a PID whose real part
is kp plus a positive derivative term), so the principal angle of each
factor is its continuous phase and the loop phase needs no unwrapping.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# margins() bisects the crossovers to 1e-7 relative frequency; near a
# crossover |L| moves by at most a few times that, so these leave headroom
# for rounding in the expanded polynomials without hiding a wrong answer
MAG_TOL = 1e-5
PHASE_TOL_DEG = 1e-3
GAIN_TOL_DB = 1e-4
SLOPE_TOL_DB_PER_DEC = 1e-6
# relative loop-gain step either side of the reported gain margin
GM_SCALE_STEP = 0.01


def integrator(gain=1.0):
    return lambda s: gain / s


def first_order_lag(tc):
    return lambda s: 1.0 / (1.0 + tc * s)


def quadratic(c0, c1, c2):
    """Polynomial c0 + c1 s + c2 s^2 with nonnegative coefficients."""
    return lambda s: c0 + s * (c1 + c2 * s)


def butterworth2(corner_hz):
    wn = TWO_PI * corner_hz
    return lambda s: 1.0 / (1.0 + math.sqrt(2.0) * s / wn + (s / wn) ** 2)


def biquad_ratio(center_hz, num_damp, den_damp):
    """(1 + num_damp s/w0 + s^2/w0^2) / (1 + den_damp s/w0 + s^2/w0^2)."""
    w0 = TWO_PI * center_hz

    def h(s):
        x = s / w0
        return (1.0 + num_damp * x + x * x) / (1.0 + den_damp * x + x * x)

    return h


def pid(kp, ki, kd, deriv_corner_hz):
    """kp + ki/s + kd s B(s), B the Butterworth derivative filter."""
    b = butterworth2(deriv_corner_hz)
    return lambda s: kp + ki / s + kd * s * b(s)


class FactoredLoop:
    """L(jw) = prod(factor(jw)) * exp(-j w delay_s)."""

    def __init__(self, factors, delay_s=0.0):
        self.factors = tuple(factors)
        self.delay_s = float(delay_s)

    def response(self, freq_hz):
        s = 1j * TWO_PI * np.asarray(freq_hz, dtype=float)
        h = np.exp(-s * self.delay_s)
        for fac in self.factors:
            h = h * fac(s)
        return h

    def magnitude(self, freq_hz):
        return np.abs(self.response(freq_hz))

    def phase_deg(self, freq_hz):
        """Continuous phase in degrees: factor phases plus the exact delay."""
        f = np.asarray(freq_hz, dtype=float)
        s = 1j * TWO_PI * f
        ph = sum(np.angle(fac(s)) for fac in self.factors)
        return np.degrees(ph) - 360.0 * f * self.delay_s


def plant_factors(params):
    """Factors and delay of the identified plant structure (PlantFitParams)."""
    n0, n1, n2 = params.main_num
    factors = [
        butterworth2(params.lf_corner_hz),
        quadratic(n0, n1, n2),
        integrator(),
        first_order_lag(params.main_pole_tc),
        biquad_ratio(params.peak.freq_hz, params.peak.num_damp,
                     params.peak.den_damp),
        biquad_ratio(params.anti.freq_hz, params.anti.num_damp,
                     params.anti.den_damp),
    ]
    return factors, params.delay_s


def compensator_factors(kp, ki, kd, deriv_corner_hz, notch=None):
    """PID and, when ``notch`` = (center_hz, k1, k2) is given, the notch."""
    factors = [pid(kp, ki, kd, deriv_corner_hz)]
    if notch is not None:
        center_hz, k1, k2 = notch
        factors.append(biquad_ratio(center_hz, k2, k1))
    return factors


def identified_loop(params, kp, ki, kd, deriv_corner_hz, notch=None):
    plant, delay = plant_factors(params)
    return FactoredLoop(
        plant + compensator_factors(kp, ki, kd, deriv_corner_hz, notch), delay)


def log_grid(f_lo, f_hi, points_per_decade):
    n = max(16, int(math.ceil(points_per_decade * math.log10(f_hi / f_lo))) + 1)
    return np.logspace(math.log10(f_lo), math.log10(f_hi), n)


def _first_downward(values, level):
    idx = np.flatnonzero((values[:-1] > level) & (values[1:] <= level))
    return int(idx[0]) if idx.size else None


def check_margins(loop, m, scaled_stable, f_lo=0.05, f_hi=100.0,
                  points_per_decade=400):
    """Problems with a reported ``StabilityMargins``; empty when consistent.

    ``scaled_stable(k)`` is the package's Nyquist verdict on the loop with
    its gain multiplied by k.  Checked: |L| = 1 at the gain crossover, which
    is the lowest downward unity crossing; PM = 180 + angle L(f_c); the
    phase crossover is the first downward -180 crossing and GM matches
    |L| there; and the loop turns unstable between just below and just
    above 10^(GM/20) times its gain.
    """
    problems = []
    grid = log_grid(f_lo, f_hi, points_per_decade)
    mag = loop.magnitude(grid)
    # the magnitude test in margins() is >= 1 then < 1
    i = _first_downward(np.where(mag >= 1.0, 1.0, 0.0), 0.5)
    if m.gain_crossover_hz is None:
        if i is not None:
            problems.append(f"no gain crossover reported, but |L| crosses 1 "
                            f"near {grid[i]:.4f} Hz")
    else:
        fc = m.gain_crossover_hz
        mag_fc = float(loop.magnitude(fc))
        if abs(mag_fc - 1.0) > MAG_TOL:
            problems.append(f"|L| = {mag_fc:.9f} at the reported crossover "
                            f"{fc:.6f} Hz")
        if i is None or not grid[i] <= fc <= grid[i + 1]:
            problems.append(f"crossover {fc:.6f} Hz is not the lowest "
                            "downward unity crossing")
        pm = 180.0 + float(loop.phase_deg(fc))
        if abs(pm - m.phase_margin_deg) > PHASE_TOL_DEG:
            problems.append(f"phase margin {m.phase_margin_deg:.6f} deg, "
                            f"reference {pm:.6f} deg")

    j = _first_downward(loop.phase_deg(grid), -180.0)
    if m.phase_crossover_hz is None:
        if j is not None:
            problems.append(f"no phase crossover reported, but the phase "
                            f"crosses -180 deg near {grid[j]:.4f} Hz")
        return problems
    fpc = m.phase_crossover_hz
    ph = float(loop.phase_deg(fpc))
    if abs(ph + 180.0) > PHASE_TOL_DEG:
        problems.append(f"phase {ph:.6f} deg at the reported phase "
                        f"crossover {fpc:.6f} Hz")
    if j is None or not grid[j] <= fpc <= grid[j + 1]:
        problems.append(f"phase crossover {fpc:.6f} Hz is not the first "
                        "downward -180 deg crossing")
    gm = -20.0 * math.log10(float(loop.magnitude(fpc)))
    if abs(gm - m.gain_margin_db) > GAIN_TOL_DB:
        problems.append(f"gain margin {m.gain_margin_db:.6f} dB, "
                        f"reference {gm:.6f} dB")
    k = 10.0 ** (m.gain_margin_db / 20.0)
    if not scaled_stable(k * (1.0 - GM_SCALE_STEP)):
        problems.append(f"unstable at {1.0 - GM_SCALE_STEP} x the gain margin")
    if scaled_stable(k * (1.0 + GM_SCALE_STEP)):
        problems.append(f"still stable at {1.0 + GM_SCALE_STEP} x the gain margin")
    return problems


def reference_slope(loop, f_lo_hz, f_hi_hz, n_points=50):
    """Least-squares slope of 20 log10|L| against log10 f, dB/decade."""
    f = np.logspace(math.log10(f_lo_hz), math.log10(f_hi_hz), n_points)
    x = np.log10(f)
    y = 20.0 * np.log10(loop.magnitude(f))
    x0 = x - x.mean()
    return float(x0 @ (y - y.mean()) / (x0 @ x0))


def check_slope(loop, reported, f_lo_hz, f_hi_hz):
    ref = reference_slope(loop, f_lo_hz, f_hi_hz)
    if abs(ref - reported) > SLOPE_TOL_DB_PER_DEC:
        return [f"slope {reported:.9f} dB/dec, reference {ref:.9f} dB/dec"]
    return []


def check_cascade(sos, sample_hz, continuous, prewarp_hz, freqs_hz,
                  rel_tol=1e-9):
    """Tustin cascade against its continuous design at ``freqs_hz``.

    ``sos`` rows are (b0, b1, b2, 1, a1, a2) and the digital response comes
    from scipy.signal.  The bilinear map s = k (z - 1)/(z + 1), with k set by
    the prewarp frequency, makes H_d(f) equal H_c at the warped frequency
    k tan(pi f / fs) / (2 pi) exactly, so |H_d / H_c(warped) - 1| is a
    rounding-level quantity below Nyquist.
    """
    from scipy import signal

    f = np.asarray(freqs_hz, dtype=float)
    wp = TWO_PI * prewarp_hz
    k = wp / math.tan(wp / (2.0 * sample_hz))
    f_warped = k * np.tan(math.pi * f / sample_hz) / TWO_PI
    _, h_d = signal.sosfreqz(np.asarray(sos, dtype=float), worN=f, fs=sample_hz)
    err = np.abs(h_d / continuous.response(f_warped) - 1.0)
    i = int(np.argmax(err))
    if err[i] > rel_tol:
        return [f"{sample_hz:g} Hz cascade deviates by {err[i]:.3g} (relative) "
                f"from the continuous compensator at {f[i]:.3f} Hz"]
    return []
