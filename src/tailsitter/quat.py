"""Quaternion and rotation algebra for tail-sitter attitude control.

Conventions
-----------
* Quaternions are scalar-first: ``q = (eta, ex, ey, ez)`` with ``eta`` the
  scalar part and ``eps = (ex, ey, ez)`` the vector part.  ``q`` and ``-q``
  encode the same physical rotation (double cover) and every routine here
  treats them identically.
* Euler angles use the Z-X-Y Tait-Bryan order (yaw about z, then roll about
  x, then pitch about y).  This order is nonsingular at 90 deg pitch, the
  hover attitude of a tail-sitter, and is singular at +/-90 deg roll instead.
* Rotation matrices map body coordinates into inertial (NED) coordinates.

All types are immutable values and all functions are pure.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "Quaternion",
    "EulerZXY",
    "GimbalProximityError",
    "quat_to_rotmat",
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


class Quaternion:
    """Unit quaternion, scalar-first storage ``(eta, ex, ey, ez)``.

    The constructor normalizes by default so that public operations keep
    ``eta**2 + |eps|**2 = 1`` to within 1e-9.  The sign is left untouched:
    both hemispheres of the double cover are valid and all consumers are
    sign-agnostic.
    """

    __slots__ = ("_q",)

    def __init__(self, eta, ex, ey, ez, normalize=True):
        q = np.array([eta, ex, ey, ez], dtype=float)
        if normalize:
            n = math.sqrt(float(q @ q))
            if n < 1e-12:
                raise ValueError("cannot normalize near-zero quaternion")
            q /= n
        self._q = q
        self._q.flags.writeable = False

    @property
    def eta(self):
        """Scalar part."""
        return float(self._q[0])

    @property
    def eps(self):
        """Vector part as a length-3 array (copy)."""
        return self._q[1:].copy()

    def as_array(self):
        """Components ``(eta, ex, ey, ez)`` as a length-4 array (copy)."""
        return self._q.copy()

    @property
    def norm(self):
        return float(np.linalg.norm(self._q))

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 0.0, normalize=False)

    @classmethod
    def from_array(cls, q, normalize=True):
        q = np.asarray(q, dtype=float)
        if q.shape != (4,):
            raise ValueError(f"expected 4 components, got shape {q.shape}")
        return cls(q[0], q[1], q[2], q[3], normalize=normalize)

    @classmethod
    def from_axis_angle(cls, axis, angle_rad):
        axis = np.asarray(axis, dtype=float)
        n = np.linalg.norm(axis)
        if n < 1e-12:
            raise ValueError("rotation axis has near-zero magnitude")
        half = 0.5 * float(angle_rad)
        v = (math.sin(half) / n) * axis
        return cls(math.cos(half), v[0], v[1], v[2])

    def __neg__(self):
        q = self._q
        return Quaternion(-q[0], -q[1], -q[2], -q[3], normalize=False)

    def to_rotmat(self):
        return quat_to_rotmat(self)

    def __repr__(self):
        e = self._q
        return f"Quaternion({e[0]:+.9f}, {e[1]:+.9f}, {e[2]:+.9f}, {e[3]:+.9f})"


def _hamilton(p, q):
    """Hamilton product ``p (x) q`` on raw length-4 arrays (no normalization).

    Composition order: ``p (x) q`` applies rotation q first, then p, when
    quaternions map body to inertial coordinates.
    """
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return np.array(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ]
    )


def quat_to_rotmat(q: Quaternion) -> np.ndarray:
    """Body-to-inertial rotation matrix.  Identical for q and -q."""
    return np.array(rotation_rows(*q._q.tolist()))


def rotation_rows(w, x, y, z):
    """Rows of the body-to-inertial matrix of a unit (eta, ex, ey, ez), as floats."""
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return ((1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)),
            (2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)),
            (2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)))


def _axis_quat(half, axis_index):
    q = np.zeros(4)
    q[0] = math.cos(half)
    q[axis_index + 1] = math.sin(half)
    return q


def euler_zxy_to_quat(e: EulerZXY) -> Quaternion:
    """Quaternion for R = Rz(yaw) Rx(roll) Ry(pitch)."""
    qz = _axis_quat(0.5 * e.yaw, 2)
    qx = _axis_quat(0.5 * e.roll, 0)
    qy = _axis_quat(0.5 * e.pitch, 1)
    q = _hamilton(_hamilton(qz, qx), qy)
    return Quaternion(q[0], q[1], q[2], q[3])


def quat_to_euler_zxy(q: Quaternion) -> EulerZXY:
    """Extract Z-X-Y angles; roll in [-pi/2, pi/2], pitch and yaw in (-pi, pi].

    Raises GimbalProximityError within 1e-6 rad of |roll| = pi/2, where
    pitch and yaw become coupled.
    """
    (_, r01, _), (_, r11, _), (r20, r21, r22) = rotation_rows(*q._q.tolist())
    roll = math.asin(min(1.0, max(-1.0, r21)))
    if abs(abs(roll) - 0.5 * math.pi) < 1e-6:
        raise GimbalProximityError(
            f"roll = {roll:.9f} rad is within 1e-6 of the Z-X-Y singular axis"
        )
    pitch = math.atan2(-r20, r22)
    yaw = math.atan2(-r01, r11)
    return EulerZXY(roll, pitch, yaw)


def _fused_square(x, acc):
    """``x * x + acc`` rounded once, as a fused multiply-add computes it.

    The Veltkamp split makes hi*hi, 2*hi*lo and lo*lo exact, so ``fsum``
    (correctly rounded) returns the single rounding of the exact sum.
    """
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    lo = x - hi
    return math.fsum((hi * hi, 2.0 * hi * lo, lo * lo, acc))


def attitude_error(q_current: Quaternion, q_desired: Quaternion):
    """Half-angle axis error vector from current to desired attitude.

    Forms the error quaternion ``q_e = q_current^-1 (x) q_desired = (eta, eps)``
    and returns ``sgn(eta) * ((theta/2) / sin(theta/2)) * eps`` where
    ``theta = 2 acos|eta|``, as a 3-tuple of floats.  The result has
    magnitude theta/2 <= pi/2, is identical for q and -q on either argument,
    and is continuous at theta = 0 (series limit) and finite at theta = pi
    (sgn(0) := +1).

    q_e is renormalized by the square root of its running sum of squares
    with one rounding per term, which is how numpy's dot product (and so
    the ``Quaternion`` constructor) accumulates it with a fused
    multiply-add BLAS kernel.
    """
    w1, x1, y1, z1 = q_current._q.tolist()
    w2, x2, y2, z2 = q_desired._q.tolist()
    w = w1 * w2 + x1 * x2 + y1 * y2 + z1 * z2
    x = w1 * x2 - x1 * w2 - y1 * z2 + z1 * y2
    y = w1 * y2 + x1 * z2 - y1 * w2 - z1 * x2
    z = w1 * z2 - x1 * y2 + y1 * x2 - z1 * w2
    n = math.sqrt(_fused_square(z, _fused_square(y, _fused_square(x, w * w))))
    if n < 1e-12:
        raise ValueError("cannot normalize near-zero quaternion")
    eta = w / n
    half = math.acos(min(1.0, abs(eta)))
    if half < _SMALL_HALF_ANGLE:
        scale = 1.0 + half * half / 6.0
    else:
        scale = half / math.sin(half)
    s = (-1.0 if eta < 0.0 else 1.0) * scale
    return (s * (x / n), s * (y / n), s * (z / n))
