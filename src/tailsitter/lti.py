"""Continuous transfer-function algebra with pure delay, and loop-shaping tools.

Transfer functions are rational in s with coefficient lists stored in
ascending powers plus a nonnegative transport delay in seconds:

    H(s) = (num[0] + num[1] s + ...) / (den[0] + den[1] s + ...) * exp(-delay s)

Everything downstream of system identification speaks this type: the fitted
plant, the notch filter, the PID compensator and the open loop are all
ContinuousTF values composed with tf_series.

_polyval_jw is the one polynomial evaluator, in real arithmetic on a
Python float (a point) or a numpy array (a grid), with the floats of the
complex sum over the powers of s = jw.  A point skips numpy's per-call
overhead, and _divide copies numpy's complex division, so a point keeps
the floats numpy gives a 0-d frequency.  A point and the same frequency on
a grid can differ in the last bit, as they always did: numpy multiplies
complex arrays with fused multiply-adds and complex scalars without.

_unwrap_phase_deg is the one home of a model's phase: it unwraps the
rational part's phase and subtracts the delay phase 360 f delay exactly.
unwrapped_phase_deg (so margins and the Bode export) and sysid's fit
objective read phase from it.  The FRF's trusted-bin unwrap stays apart:
it unwraps measured data.

_encirclements is the one home of the Nyquist winding count; it counts
the wraps of the angle of 1 + h block by block, as only the end-to-end
angle is used.  nyquist_stable applies it to a loop's response h on the
Nyquist grid; max_stable_gain evaluates h once and applies it to k h for each
trial gain k.  That is the test nyquist_stable(k * loop) makes, because a
gain scales only the numerator: the denominator, and with it the
integrator count that closes the contour, is the same for every k.  k h
differs from a fresh evaluation of k * loop by rounding alone, so a
verdict could differ only at a gain within rounding of a change in the
winding count.  A response that is not finite on the whole grid has no
winding number, and its loop is not shown stable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ContinuousTF",
    "StabilityMargins",
    "ResonanceParams",
    "PlantFitParams",
    "tf_eval",
    "tf_series",
    "butterworth2",
    "notch",
    "pid_tf",
    "fitted_plant",
    "unwrapped_phase_deg",
    "margins",
    "magnitude_slope",
    "nyquist_encirclements",
    "nyquist_stable",
    "max_stable_gain",
]

TWO_PI = 2.0 * math.pi
# log-spaced grid densities (points per decade) and the Nyquist band
MARGINS_POINTS_PER_DECADE = 400
MARGINS_BAND_HZ = (0.05, 100.0)  # the default search band of margins
NYQUIST_POINTS_PER_DECADE = 2000
NYQUIST_BAND_HZ = (1e-4, 500.0)
SLOPE_POINTS = 50  # over the whole slope band


def _ascending(coeffs):
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficient list must be a nonempty 1-D sequence")
    # trim trailing (highest-order) zeros, keep at least one entry
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return c[:1].copy()
    return c[: nz[-1] + 1].copy()


@dataclass(frozen=True, eq=False)
class ContinuousTF:
    """Rational transfer function with pure delay; immutable."""

    num: np.ndarray
    den: np.ndarray
    delay: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "num", _ascending(self.num))
        object.__setattr__(self, "den", _ascending(self.den))
        if not np.any(self.den):
            raise ValueError("denominator must have a nonzero coefficient")
        if self.delay < 0.0:
            raise ValueError("delay must be >= 0")
        self.num.flags.writeable = False
        self.den.flags.writeable = False

    @property
    def num_degree(self):
        return len(self.num) - 1

    @property
    def den_degree(self):
        return len(self.den) - 1

    def __call__(self, freq_hz):
        return tf_eval(self, freq_hz)

    def __mul__(self, other):
        if isinstance(other, ContinuousTF):
            return tf_series(self, other)
        if isinstance(other, (int, float)):
            return ContinuousTF(self.num * float(other), self.den, self.delay)
        return NotImplemented

    __rmul__ = __mul__


def _polyval_jw(coeffs, w):
    """(Re, Im) of an ascending-power polynomial at s = jw, w > 0 a float or
    an array: term k adds c_k w^k to the real or imaginary part with the
    sign of j^k, which gives the floats of the complex sum wherever the
    powers stay finite."""
    re = w * 0.0
    im = w * 0.0
    pw = re + 1.0
    for k, c in enumerate(coeffs):
        t = (-c if k & 2 else c) * pw
        if k & 1:
            im += t
        else:
            re += t
        pw *= w
    return re, im


def _divide(ar, ai, br, bi):
    """(ar + j ai) / (br + j bi) in floats as numpy divides complex numbers:
    Smith's method scaled by a reciprocal, where Python's complex division
    divides and can differ in the last bit.  Raises ZeroDivisionError where
    numpy divides by zero: a NaN real part over a zero imaginary part (a
    zero divisor is flagged on a pole before)."""
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return (ar + ai * rat) * scl, (ai - ar * rat) * scl
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return (ar * rat + ai) * scl, (ai * rat - ar) * scl


def tf_eval(tf: ContinuousTF, freq_hz):
    """Complex response at finite positive frequencies in Hz.

    A sample whose denominator magnitude falls within 1e-12 (relative to the
    largest denominator coefficient) of zero sits on a pole and is flagged
    as unbounded (complex inf) rather than returning garbage.  A scalar
    frequency runs on Python floats and returns a complex with the floats
    numpy gives for a 0-d frequency; an array runs on numpy arrays.
    """
    if np.ndim(freq_hz) == 0:
        f = float(freq_hz)
        if not 0.0 < f < math.inf:
            raise ValueError("tf_eval requires finite freq_hz > 0")
        w = TWO_PI * f
        den = tf.den.tolist()
        dr, di = _polyval_jw(den, w)
        # numpy's magnitude: Python's abs can differ from it in the last bit
        if np.abs(complex(dr, di)) < 1e-12 * max(map(abs, den)):
            return complex(math.inf, 0.0)
        try:
            qr, qi = _divide(*_polyval_jw(tf.num.tolist(), w), dr, di)
        except ZeroDivisionError:  # a NaN divisor's zero part: numpy gives NaN
            return complex(math.nan, math.nan)
        e = cmath.exp(complex(0.0, 0.0 - w * tf.delay))
        return complex(qr * e.real - qi * e.imag, qr * e.imag + qi * e.real)
    f = np.asarray(freq_hz, dtype=float)
    if not np.all((f > 0.0) & (f < math.inf)):
        raise ValueError("tf_eval requires finite freq_hz > 0")
    w = TWO_PI * f
    num = np.empty(f.shape, dtype=complex)
    num.real, num.imag = _polyval_jw(tf.num, w)
    den = np.empty(f.shape, dtype=complex)
    den.real, den.imag = _polyval_jw(tf.den, w)
    on_pole = np.abs(den) < 1e-12 * np.max(np.abs(tf.den))
    h = num / np.where(on_pole, 1.0, den) * np.exp(-1j * w * tf.delay)
    return np.where(on_pole, np.inf + 0j, h)


def tf_series(a: ContinuousTF, b: ContinuousTF) -> ContinuousTF:
    """Series composition: polynomial products, delays add."""
    return ContinuousTF(
        np.convolve(a.num, b.num), np.convolve(a.den, b.den), a.delay + b.delay
    )


def butterworth2(corner_hz: float) -> ContinuousTF:
    """Unity-DC second-order Butterworth low-pass, -3.01 dB at the corner."""
    if not corner_hz > 0.0:
        raise ValueError("corner_hz must be > 0")
    wn = TWO_PI * corner_hz
    return ContinuousTF([1.0], [1.0, math.sqrt(2.0) / wn, 1.0 / wn**2])


def notch(center_hz: float, k1: float, k2: float) -> ContinuousTF:
    """Band-stop biquad (a s^2 + c s + 1)/(a s^2 + b s + 1).

    a = 1/w0^2, b = k1/w0, c = k2/w0 with w0 = 2 pi center_hz.  k1 sets the
    width and k2/k1 the center-depth magnitude; unity gain at DC and at
    infinity.  Requires k1 > k2 > 0 so the filter attenuates.
    """
    if not center_hz > 0.0:
        raise ValueError("center_hz must be > 0")
    if not (k1 > k2 > 0.0):
        raise ValueError("need k1 > k2 > 0 for an attenuating notch")
    return ResonanceParams(center_hz, k2, k1).tf()


def pid_tf(kp: float, ki: float, kd: float, deriv_corner_hz: float) -> ContinuousTF:
    """PID with second-order-Butterworth-filtered derivative, as one rational TF.

    C(s) = kp + ki/s + kd s B(s),  B = butterworth2(deriv_corner_hz)
    """
    if min(kp, ki, kd) < 0.0:
        raise ValueError("gains must be >= 0")
    if kp == ki == kd == 0.0:
        raise ValueError("at least one gain must be nonzero")
    if not deriv_corner_hz > 0.0:
        raise ValueError("deriv_corner_hz must be > 0")
    b = butterworth2(deriv_corner_hz)
    s_bd = np.convolve([0.0, 1.0], b.den)  # s * Bden
    num = np.zeros(max(len(s_bd) + 1, len(b.den), len(b.num) + 2))
    t = kp * s_bd
    num[: len(t)] += t
    t = ki * b.den
    num[: len(t)] += t
    t = kd * np.convolve([0.0, 0.0, 1.0], b.num)  # kd s^2 * Bnum
    num[: len(t)] += t
    return ContinuousTF(num, s_bd)


@dataclass(frozen=True)
class ResonanceParams:
    """One lightly damped mode as a normalized biquad.

    Section (s^2/w0^2 + (num_damp/w0) s + 1) / (s^2/w0^2 + (den_damp/w0) s + 1):
    amplifies at the center by num_damp/den_damp when num_damp > den_damp
    (a peak) and attenuates when reversed (an anti-resonance).
    """

    freq_hz: float
    num_damp: float
    den_damp: float

    def __post_init__(self):
        if not (self.freq_hz > 0.0 and self.num_damp > 0.0 and self.den_damp > 0.0):
            raise ValueError("resonance parameters must be positive")

    def tf(self) -> ContinuousTF:
        w0 = TWO_PI * self.freq_hz
        a = 1.0 / w0**2
        return ContinuousTF(
            [1.0, self.num_damp / w0, a], [1.0, self.den_damp / w0, a]
        )


def _reference_peak():
    # Identified 14 Hz structural mode of the reference airframe:
    # (1 + 0.00239 s + 0.000129 s^2) / (1 + 0.000341 s + 0.000129 s^2)
    w0 = 1.0 / math.sqrt(0.000129)
    return ResonanceParams(w0 / TWO_PI, 0.00239 * w0, 0.000341 * w0)


def _reference_anti():
    # Identified 27 Hz anti-resonance:
    # (1 + 0.000118 s + 0.0000348 s^2) / (1 + 0.0013 s + 0.0000348 s^2)
    w0 = 1.0 / math.sqrt(0.0000348)
    return ResonanceParams(w0 / TWO_PI, 0.000118 * w0, 0.0013 * w0)


@dataclass(frozen=True)
class PlantFitParams:
    """Parameters of the identified pitch-rate plant structure.

    The plant is a series of: a second-order Butterworth measurement filter,
    the main rigid-body dynamics (two zeros, one pole, one integrator), a
    resonant peak, an anti-resonance, and a pure transport delay:

        P = LF(s) * (n0 + n1 s + n2 s^2) / ((1 + pole_tc s) s)
              * peak(s) * anti(s) * exp(-delay_s s)
    """

    lf_corner_hz: float = 69.0
    main_num: tuple[float, float, float] = (260.0, 3.764, 0.01362)
    main_pole_tc: float = 0.0637
    peak: ResonanceParams = field(default_factory=_reference_peak)
    anti: ResonanceParams = field(default_factory=_reference_anti)
    delay_s: float = 0.021

    def __post_init__(self):
        if not (self.lf_corner_hz > 0.0 and self.main_pole_tc > 0.0):
            raise ValueError("corner frequency and pole time constant must be > 0")
        if not 0.0 <= self.delay_s <= 0.1:
            raise ValueError("delay_s must lie in [0, 0.1] s")

    @classmethod
    def reference(cls) -> "PlantFitParams":
        """Stock identified model of the reference airframe (the shipped defaults)."""
        return cls()


def fitted_plant(params: PlantFitParams | None = None) -> ContinuousTF:
    """Compose the identified plant structure into a single ContinuousTF."""
    p = params if params is not None else PlantFitParams.reference()
    lf = butterworth2(p.lf_corner_hz)
    main = ContinuousTF(
        np.asarray(p.main_num, dtype=float),
        np.convolve([0.0, 1.0], [1.0, p.main_pole_tc]),
    )
    dly = ContinuousTF([1.0], [1.0], p.delay_s)
    out = tf_series(tf_series(tf_series(lf, main), tf_series(p.peak.tf(), p.anti.tf())), dly)
    return out


def _log_grid(f_lo, f_hi, points_per_decade, min_points=2):
    """Log-spaced frequencies over [f_lo, f_hi] at the given density."""
    n = int(math.ceil(points_per_decade * math.log10(f_hi / f_lo))) + 1
    return np.logspace(math.log10(f_lo), math.log10(f_hi), max(min_points, n))


def _unwrap_phase_deg(rational_response, f, delay):
    """Degrees: the rational response's phase on the grid f unwrapped along
    the last axis, so the unbounded delay phase never confuses the unwrap,
    less 360 f delay exactly.  A stack of responses takes a column of delays."""
    return np.degrees(np.unwrap(np.angle(rational_response))) - 360.0 * f * delay


def unwrapped_phase_deg(tf: ContinuousTF, f):
    """Unwrapped phase in degrees at frequencies f (``_unwrap_phase_deg``)."""
    f = np.asarray(f, dtype=float)
    rational = ContinuousTF(tf.num, tf.den, 0.0)
    return _unwrap_phase_deg(tf_eval(rational, f), f, tf.delay)


@dataclass(frozen=True)
class StabilityMargins:
    """Gain-crossover / phase-margin summary of an open loop.

    ``gain_crossover_hz``/``phase_margin_deg`` are None when |L| never
    crosses unity downward inside the searched band (explicit no-crossover
    result).  ``phase_crossover_hz``/``gain_margin_db`` are None when the
    unwrapped phase never crosses -180 deg in band.
    """

    gain_crossover_hz: float | None
    phase_margin_deg: float | None
    phase_crossover_hz: float | None = None
    gain_margin_db: float | None = None

    @property
    def has_gain_crossover(self):
        return self.gain_crossover_hz is not None


def margins(loop: ContinuousTF, f_lo: float = MARGINS_BAND_HZ[0],
            f_hi: float = MARGINS_BAND_HZ[1]) -> StabilityMargins:
    """Stability margins of an open loop over a search band.

    The gain crossover is the lowest frequency where |L| crosses 1 downward,
    refined by bisection; the phase margin is 180 deg plus the unwrapped
    phase there (delay phase handled exactly).  The phase crossover, when
    one exists in band, is the first downward -180 deg crossing.
    """
    if not 0.0 < f_lo < f_hi:
        raise ValueError("need 0 < f_lo < f_hi")
    f = _log_grid(f_lo, f_hi, MARGINS_POINTS_PER_DECADE, 16)
    mag = np.abs(tf_eval(loop, f))
    rational = ContinuousTF(loop.num, loop.den, 0.0)
    ph_rational = unwrapped_phase_deg(rational, f)
    log_f = np.log(f)

    def phase_at(f0):
        # rational phase at f0, shifted by the multiple of 360 that matches
        # the unwrapped grid value at the nearest grid point (in log f)
        k = int(np.argmin(np.abs(log_f - math.log(f0))))
        raw = math.degrees(np.angle(tf_eval(rational, f0)))
        wraps = round((ph_rational[k] - raw) / 360.0)
        return raw + 360.0 * wraps - 360.0 * f0 * loop.delay

    idx = np.where((mag[:-1] >= 1.0) & (mag[1:] < 1.0))[0]
    fc = None
    pm = None
    if idx.size:
        fc = _bisect_log(lambda x: abs(tf_eval(loop, x)) >= 1.0,
                         f[idx[0]], f[idx[0] + 1])
        pm = 180.0 + phase_at(fc)

    phase = ph_rational - 360.0 * f * loop.delay
    fpc = None
    gm = None
    cross = np.where((phase[:-1] > -180.0) & (phase[1:] <= -180.0))[0]
    if cross.size:
        j = cross[0]
        fpc = _bisect_log(lambda x: phase_at(x) > -180.0, f[j], f[j + 1])
        gm = -20.0 * math.log10(abs(tf_eval(loop, fpc)))
    return StabilityMargins(fc, pm, fpc, gm)


def _bisect_log(pred, lo, hi):
    """Geometric midpoint of [lo, hi] bisected (at most 100 times, until
    hi - lo < 1e-7 lo) to where ``pred``, true at lo and false at hi, flips."""
    for _ in range(100):
        mid = math.sqrt(lo * hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-7 * lo:
            break
    return math.sqrt(lo * hi)


def magnitude_slope(loop: ContinuousTF, f_lo_hz: float, f_hi_hz: float) -> float:
    """Least-squares slope of 20 log10|L| vs log10(f), in dB/decade."""
    if not 0.0 < f_lo_hz < f_hi_hz:
        raise ValueError("need 0 < f_lo < f_hi")
    f = np.logspace(math.log10(f_lo_hz), math.log10(f_hi_hz), SLOPE_POINTS)
    mag_db = 20.0 * np.log10(np.abs(tf_eval(loop, f)))
    a = np.vstack([np.log10(f), np.ones_like(f)]).T
    coef, *_ = np.linalg.lstsq(a, mag_db, rcond=None)
    return float(coef[0])


# The Nyquist grid, built once, in four blocks: a block's complex
# temporaries stay under glibc's 128 KB mmap threshold, so they are not
# page-faulted in afresh on every call.
_NYQUIST_GRID = _log_grid(*NYQUIST_BAND_HZ, NYQUIST_POINTS_PER_DECADE, 64)
_NYQUIST_GRID.flags.writeable = False
_NYQUIST_BLOCKS = np.array_split(_NYQUIST_GRID, 4)
# np.unwrap wraps a step d > pi only when d + pi rounds above 2 pi, which
# the float after pi does not
_WRAP_UP = math.nextafter(math.pi, math.inf)


def _nyquist_response(loop: ContinuousTF):
    """L(jw) on the Nyquist grid, one block at a time; an overflow is no
    error here, as the winding count answers it."""
    for fb in _NYQUIST_BLOCKS:
        with np.errstate(over="ignore", invalid="ignore"):
            h = tf_eval(loop, fb)
        yield h


def _encirclements(h_blocks, den):
    """Net encirclements of -1 by an open-loop response h on the Nyquist grid.

    Winds 1 + h over w > 0, mirrors it for w < 0, and closes the contour
    with the indentation arc around the integrators at the origin, which
    are the leading zero coefficients of the open loop's denominator
    ``den``; each maps the arc to a -pi sweep at infinite radius.  The
    swept angle of 1 + h is its end-to-end angle less 2 pi per step past
    pi and plus 2 pi per step past -pi, within and across the blocks, with
    ``np.unwrap``'s rounding at the boundary.  None when h is not finite
    everywhere (an overflow, or a sample ``tf_eval`` flags as on a pole):
    such a contour has no winding number.
    """
    first = last = None
    wraps = 0
    for hb in h_blocks:
        if not np.isfinite(hb).all():
            return None
        ang = np.angle(hb + 1.0)
        step = np.diff(ang)
        wraps += int(np.count_nonzero(step > _WRAP_UP)
                     - np.count_nonzero(step < -math.pi))
        if first is None:
            first = ang[0]
        else:
            step = ang[0] - last
            wraps += int(step > _WRAP_UP) - int(step < -math.pi)
        last = ang[-1]
    delta = float(last - first) - TWO_PI * wraps
    n_integrators = int(np.nonzero(den)[0][0])
    return round((2.0 * delta - n_integrators * math.pi) / TWO_PI)


def nyquist_encirclements(loop: ContinuousTF) -> int | None:
    """Net encirclements of -1 by L(jw), counted by ``_encirclements`` on
    the Nyquist grid; None when L(jw) is not finite on the whole grid."""
    return _encirclements(_nyquist_response(loop), loop.den)


def nyquist_stable(loop: ContinuousTF) -> bool:
    """Closed-loop stability of unity feedback around an open loop.

    Counts encirclements of -1 by L(jw) on a dense log grid over w > 0 with
    ``_encirclements``, the one winding count.  ``max_stable_gain`` runs
    the same count on k L(jw) from one evaluation of L: a gain leaves the
    denominator, and so the integrator count, unchanged.  Assumes the open
    loop has no right-half-plane poles apart from integrators at the
    origin, which holds for every loop built from the identified plant
    family.  Zero net encirclement means the closed loop is stable; a
    response that is not finite on the grid has no count and reads False.
    """
    return nyquist_encirclements(loop) == 0


def _scaled_nyquist(loop: ContinuousTF):
    """k -> nyquist_stable(k * loop), from one evaluation of loop's response."""
    h_blocks = list(_nyquist_response(loop))

    def stable(k):
        with np.errstate(over="ignore", invalid="ignore"):
            return _encirclements((k * hb for hb in h_blocks), loop.den) == 0

    return stable


def max_stable_gain(loop: ContinuousTF, lo: float, hi: float) -> float:
    """Largest scalar gain k in [lo, hi] for which k * loop is Nyquist stable.

    ``hi`` when k = hi is stable, 0.0 when k = lo is not; otherwise the
    stable end of 40 geometric bisections of [lo, hi].  The loop's response
    is evaluated once and scaled by each trial gain.
    """
    if not 0.0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    stable = _scaled_nyquist(loop)
    if stable(hi):
        return hi
    if not stable(lo):
        return 0.0
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo
