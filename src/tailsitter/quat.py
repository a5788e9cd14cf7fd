"""Unit-quaternion and rotation algebra for tail-sitter attitude control.

Conventions
-----------
* A quaternion is a 4-tuple of floats, scalar first: ``q = (eta, ex, ey, ez)``
  with ``eta`` the scalar part and ``eps = (ex, ey, ez)`` the vector part.
  ``q`` and ``-q`` encode the same physical rotation (double cover) and every
  routine here treats them identically.
* Euler angles use the Z-X-Y Tait-Bryan order (yaw about z, then roll about
  x, then pitch about y).  This order is nonsingular at 90 deg pitch, the
  hover attitude of a tail-sitter, and is singular at +/-90 deg roll instead.
* Rotation matrices map body coordinates into inertial (NED) coordinates;
  ``rotation_rows`` returns one as three row tuples.

All functions are pure and take and return plain floats and tuples.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "EulerZXY",
    "GimbalProximityError",
    "normalize",
    "euler_zxy_to_quat",
    "quat_to_euler_zxy",
    "attitude_error",
]

# Below this half-angle the exact (theta/2)/sin(theta/2) factor is replaced
# by its 2-term Taylor expansion to avoid 0/0.
_SMALL_HALF_ANGLE = 1e-6


class GimbalProximityError(ValueError):
    """Euler extraction requested within 1e-6 rad of the Z-X-Y singularity."""


class EulerZXY(NamedTuple):
    """Z-X-Y Tait-Bryan angles in radians (applied yaw, then roll, then pitch)."""

    roll: float
    pitch: float
    yaw: float


def _fused_square(x, acc):
    """``x * x + acc`` rounded once, as a fused multiply-add computes it.

    The Veltkamp split makes hi*hi, 2*hi*lo and lo*lo exact, so ``fsum``
    (correctly rounded) returns the single rounding of the exact sum.
    """
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    lo = x - hi
    return math.fsum((hi * hi, 2.0 * hi * lo, lo * lo, acc))


def normalize(q):
    """``q / |q|`` as a 4-tuple of floats; the sign is left untouched.

    |q| is the square root of the running sum of squares with one rounding
    per term, which is how numpy's dot product and ``np.linalg.norm``
    accumulate it with a fused multiply-add BLAS kernel, so the result is
    bit-identical to dividing the array by its numpy norm.
    """
    w, x, y, z = q
    n = math.sqrt(_fused_square(z, _fused_square(y, _fused_square(x, w * w))))
    if n < 1e-12:
        raise ValueError("cannot normalize near-zero quaternion")
    return (w / n, x / n, y / n, z / n)


def rotation_rows(w, x, y, z):
    """Rows of the body-to-inertial matrix of a unit (eta, ex, ey, ez), as floats.

    Identical for q and -q.
    """
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return ((1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)),
            (2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)),
            (2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)))


def euler_zxy_to_quat(e: EulerZXY):
    """Unit quaternion for R = Rz(yaw) Rx(roll) Ry(pitch).

    The Hamilton product qz (x) qx (x) qy of the three axis rotations,
    where ``p (x) q`` applies q first, then p.  A zero component is +0.0,
    as the full product with its zero terms gives it.
    """
    cz, sz = math.cos(0.5 * e.yaw), math.sin(0.5 * e.yaw)
    cx, sx = math.cos(0.5 * e.roll), math.sin(0.5 * e.roll)
    cy, sy = math.cos(0.5 * e.pitch), math.sin(0.5 * e.pitch)
    w, x, y, z = cz * cx, cz * sx, sz * sx, sz * cx  # qz (x) qx
    return normalize((w * cy - y * sy, x * cy - z * sy + 0.0,
                      w * sy + y * cy + 0.0, x * sy + z * cy + 0.0))


def quat_to_euler_zxy(q) -> EulerZXY:
    """Extract Z-X-Y angles; roll in [-pi/2, pi/2], pitch and yaw in (-pi, pi].

    Raises GimbalProximityError within 1e-6 rad of |roll| = pi/2, where
    pitch and yaw become coupled.
    """
    (_, r01, _), (_, r11, _), (r20, r21, r22) = rotation_rows(*q)
    roll = math.asin(min(1.0, max(-1.0, r21)))
    if abs(abs(roll) - 0.5 * math.pi) < 1e-6:
        raise GimbalProximityError(
            f"roll = {roll:.9f} rad is within 1e-6 of the Z-X-Y singular axis"
        )
    pitch = math.atan2(-r20, r22)
    yaw = math.atan2(-r01, r11)
    return EulerZXY(roll, pitch, yaw)


def attitude_error(q_current, q_desired):
    """Half-angle axis error vector from current to desired attitude.

    Forms the error quaternion ``q_e = q_current^-1 (x) q_desired = (eta, eps)``,
    normalized, and returns ``sgn(eta) * ((theta/2) / sin(theta/2)) * eps``
    where ``theta = 2 acos|eta|``, as a 3-tuple of floats.  The result has
    magnitude theta/2 <= pi/2, is identical for q and -q on either argument,
    and is continuous at theta = 0 (series limit) and finite at theta = pi
    (sgn(0) := +1).
    """
    w1, x1, y1, z1 = q_current
    w2, x2, y2, z2 = q_desired
    eta, ex, ey, ez = normalize((w1 * w2 + x1 * x2 + y1 * y2 + z1 * z2,
                                 w1 * x2 - x1 * w2 - y1 * z2 + z1 * y2,
                                 w1 * y2 + x1 * z2 - y1 * w2 - z1 * x2,
                                 w1 * z2 - x1 * y2 + y1 * x2 - z1 * w2))
    half = math.acos(min(1.0, abs(eta)))
    if half < _SMALL_HALF_ANGLE:
        scale = 1.0 + half * half / 6.0
    else:
        scale = half / math.sin(half)
    s = (-1.0 if eta < 0.0 else 1.0) * scale
    return (s * ex, s * ey, s * ez)
