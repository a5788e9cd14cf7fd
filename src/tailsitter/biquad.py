"""Digital realization of continuous filters for the 250 Hz control loop.

A ContinuousTF is factored into first/second-order sections, each section is
discretized with the bilinear (Tustin) transform, optionally prewarped so the
response is exact at one chosen frequency, and the pure delay becomes an
integer-sample delay line.  Sections run in Direct Form II transposed.
"""

from __future__ import annotations

import math

import numpy as np

from .lti import ContinuousTF

__all__ = ["BiquadSection", "BiquadCascade", "discretize_tustin", "ImproperTFError"]


class ImproperTFError(ValueError):
    """Numerator degree exceeds denominator degree; not realizable causally."""


class BiquadSection:
    """One second-order digital section, a0 normalized to 1, with state."""

    __slots__ = ("b0", "b1", "b2", "a1", "a2", "_z1", "_z2")

    def __init__(self, b0, b1, b2, a1, a2):
        self.b0 = float(b0)
        self.b1 = float(b1)
        self.b2 = float(b2)
        self.a1 = float(a1)
        self.a2 = float(a2)
        self._z1 = 0.0
        self._z2 = 0.0

    def process(self, x: float) -> float:
        y = self.b0 * x + self._z1
        self._z1 = self.b1 * x - self.a1 * y + self._z2
        self._z2 = self.b2 * x - self.a2 * y
        return y

    def response(self, freq_hz, sample_hz):
        """Complex response at freq_hz (vectorized)."""
        z = np.exp(-2j * np.pi * np.asarray(freq_hz, dtype=float) / sample_hz)
        return (self.b0 + self.b1 * z + self.b2 * z * z) / (
            1.0 + self.a1 * z + self.a2 * z * z
        )

    def coefficients(self):
        return (self.b0, self.b1, self.b2, self.a1, self.a2)


class BiquadCascade:
    """Series of biquad sections plus an integer-sample input delay line.

    Carries mutable filter state: single-owner use.
    """

    def __init__(self, sections, sample_rate_hz, delay_samples=0,
                 delay_remainder_s=0.0):
        self.sections = list(sections)
        self.sample_rate_hz = float(sample_rate_hz)
        self.delay_samples = int(delay_samples)
        # fractional part of the continuous delay that the integer line drops
        self.delay_remainder_s = float(delay_remainder_s)
        self._delay_buf = [0.0] * self.delay_samples
        self._delay_idx = 0

    def process(self, x: float) -> float:
        if self.delay_samples:
            buf = self._delay_buf
            i = self._delay_idx
            x, buf[i] = buf[i], x
            self._delay_idx = (i + 1) % self.delay_samples
        for s in self.sections:
            x = s.process(x)
        return x

    def process_block(self, xs):
        return np.array([self.process(float(x)) for x in np.asarray(xs)])

    def response(self, freq_hz):
        """Complex response at freq_hz including the integer-sample delay."""
        f = np.asarray(freq_hz, dtype=float)
        h = np.ones_like(f, dtype=complex)
        for s in self.sections:
            h = h * s.response(f, self.sample_rate_hz)
        h = h * np.exp(-2j * np.pi * f * self.delay_samples / self.sample_rate_hz)
        if np.ndim(freq_hz) == 0:
            return complex(h)
        return h


def _conjugate_pair_groups(roots):
    """Group roots into conjugate pairs / real pairs / at most one real single.

    Reals are paired aggressively so that at most one length-1 group remains.
    Groups are sorted by natural frequency |root| ascending (deterministic
    section ordering for golden files).
    """
    roots = np.asarray(roots, dtype=complex)
    reals = sorted([r.real for r in roots if abs(r.imag) <= 1e-9 * (1.0 + abs(r))])
    complexes = sorted(
        [r for r in roots if r.imag > 1e-9 * (1.0 + abs(r))],
        key=lambda r: (abs(r), r.real),
    )
    groups = [[c, c.conjugate()] for c in complexes]
    while len(reals) >= 2:
        groups.append([reals.pop(0), reals.pop(0)])
    if reals:
        groups.append([reals.pop()])
    groups.sort(key=lambda g: (max(abs(r) for r in g), g[0].real))
    return groups


def _poly_from_group(group):
    """Real ascending coefficients [c0, c1, (c2)] of prod(s - r) over the group."""
    if len(group) == 1:
        r = group[0]
        return np.array([-r.real, 1.0])
    r1, r2 = group
    return np.array([(r1 * r2).real, -(r1 + r2).real, 1.0])


def _assign_zero_groups(pole_groups, zero_groups):
    """Deterministically assign zero groups to pole groups, pairs to pairs.

    Returns one numerator coefficient array (or None) per pole group.  With
    reals paired aggressively this always succeeds for proper TFs.
    """
    zero_pairs = [g for g in zero_groups if len(g) == 2]
    zero_singles = [g for g in zero_groups if len(g) == 1]
    nums = []
    for pg in pole_groups:
        if len(pg) == 2 and zero_pairs:
            nums.append(_poly_from_group(zero_pairs.pop(0)))
        elif zero_singles:
            nums.append(_poly_from_group(zero_singles.pop(0)))
        else:
            nums.append(None)
    if zero_pairs or zero_singles:
        raise ImproperTFError("zero/pole pairing produced an improper section")
    return nums


def _tustin_section(num, den, order, k):
    """Bilinear transform of one section of the given order (1 or 2).

    s = k (z - 1)/(z + 1); returns (b0, b1, b2, a1, a2), a0 normalized to 1.
    First-order sections keep b2 = a2 = 0 so a stable source never grows a
    spurious unit-circle pole from (z + 1) padding.
    """
    if order == 1:
        n = np.zeros(2)
        d = np.zeros(2)
        n[: len(num)] = num
        d[: len(den)] = den
        a0 = d[1] * k + d[0]
        if a0 == 0.0:
            raise ValueError("degenerate section: zero leading digital coefficient")
        return (
            (n[1] * k + n[0]) / a0,
            (n[0] - n[1] * k) / a0,
            0.0,
            (d[0] - d[1] * k) / a0,
            0.0,
        )
    n = np.zeros(3)
    d = np.zeros(3)
    n[: len(num)] = num
    d[: len(den)] = den
    a0 = d[2] * k * k + d[1] * k + d[0]
    if a0 == 0.0:
        raise ValueError("degenerate section: zero leading digital coefficient")
    b = np.array(
        [
            n[2] * k * k + n[1] * k + n[0],
            2.0 * n[0] - 2.0 * n[2] * k * k,
            n[2] * k * k - n[1] * k + n[0],
        ]
    )
    a = np.array([2.0 * d[0] - 2.0 * d[2] * k * k, d[2] * k * k - d[1] * k + d[0]])
    return b[0] / a0, b[1] / a0, b[2] / a0, a[0] / a0, a[1] / a0


def discretize_tustin(tf: ContinuousTF, sample_hz: float,
                      prewarp_hz: float | None = None) -> BiquadCascade:
    """Discretize a proper ContinuousTF into a biquad cascade at sample_hz.

    The rational part is factored into second-order sections (poles sorted
    by natural frequency ascending; zeros paired nearest-first), each section
    is Tustin-transformed, and the delay is rounded to the nearest integer
    sample with the discarded fractional remainder recorded on the cascade.
    With prewarp_hz given, the frequency axis is warped so the digital
    response equals the continuous one exactly at that frequency.
    """
    if sample_hz <= 0.0:
        raise ValueError("sample_hz must be > 0")
    if tf.num_degree > tf.den_degree:
        raise ImproperTFError(
            f"numerator degree {tf.num_degree} exceeds denominator degree "
            f"{tf.den_degree}"
        )
    if prewarp_hz is not None:
        if not 0.0 < prewarp_hz < 0.5 * sample_hz:
            raise ValueError("prewarp_hz must lie in (0, sample_hz/2)")
        wp = 2.0 * math.pi * prewarp_hz
        k = wp / math.tan(wp / (2.0 * sample_hz))
    else:
        k = 2.0 * sample_hz

    # np.roots wants descending coefficients
    zeros = np.roots(tf.num[::-1]) if tf.num_degree > 0 else np.array([])
    poles = np.roots(tf.den[::-1]) if tf.den_degree > 0 else np.array([])
    pole_groups = _conjugate_pair_groups(poles)
    nums = _assign_zero_groups(pole_groups, _conjugate_pair_groups(zeros))

    # overall gain = ratio of leading (highest-order) coefficients
    gain = tf.num[-1] / tf.den[-1]

    sections = []
    for pg, num in zip(pole_groups, nums):
        den = _poly_from_group(pg)
        if num is None:
            num = np.array([1.0])
        b0, b1, b2, a1, a2 = _tustin_section(num, den, len(pg), k)
        sections.append(BiquadSection(b0, b1, b2, a1, a2))
    if not sections:
        sections.append(BiquadSection(1.0, 0.0, 0.0, 0.0, 0.0))
    # fold the overall gain into the first section
    s0 = sections[0]
    s0.b0 *= gain
    s0.b1 *= gain
    s0.b2 *= gain

    delay_samples = int(round(tf.delay * sample_hz))
    remainder = tf.delay - delay_samples / sample_hz
    return BiquadCascade(sections, sample_hz, delay_samples, remainder)
