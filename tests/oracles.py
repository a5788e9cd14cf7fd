"""Independent reference computations the tests check the package against.

None of these is used by the package itself: they are the kinematics, the
rotation matrix and velocity-frame aero force, the chirp frequency law, an
exact FRF and small helpers stated directly from their definitions.
"""

import math

import numpy as np

from tailsitter.lti import ContinuousTF, tf_eval
from tailsitter.quat import Quaternion, _hamilton
from tailsitter.sysid import FRFEstimate


def integrator_tf(gain=1.0) -> ContinuousTF:
    return ContinuousTF([float(gain)], [0.0, 1.0])


def same_rotation(a: Quaternion, b: Quaternion, tol=1e-9):
    """True if a and b encode the same rotation (sign-agnostic)."""
    qa, qb = a.as_array(), b.as_array()
    return min(np.linalg.norm(qa - qb), np.linalg.norm(qa + qb)) < tol


def rotation_angle(q: Quaternion):
    """Total rotation angle in [0, pi]."""
    return 2.0 * math.acos(min(1.0, abs(q.eta)))


def quat_derivative(q, omega_body) -> np.ndarray:
    """Kinematics ``q_dot = 0.5 q (x) (0, omega)`` on raw 4-arrays."""
    w = np.asarray(omega_body, dtype=float)
    return 0.5 * _hamilton(q, np.array([0.0, w[0], w[1], w[2]]))


def integrate_rates(q: Quaternion, omega_body, dt: float) -> Quaternion:
    """Advance attitude by body rates over dt (RK4 on the kinematics)."""
    a = q.as_array()

    k1 = quat_derivative(a, omega_body)
    k2 = quat_derivative(a + 0.5 * dt * k1, omega_body)
    k3 = quat_derivative(a + 0.5 * dt * k2, omega_body)
    k4 = quat_derivative(a + dt * k3, omega_body)
    out = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return Quaternion(out[0], out[1], out[2], out[3])


def rotation_matrix(q) -> np.ndarray:
    """Body-to-inertial matrix whose column j is q (x) (0, e_j) (x) q*."""
    q = np.asarray(q, dtype=float)
    qc = q * np.array([1.0, -1.0, -1.0, -1.0])
    return np.column_stack([_hamilton(_hamilton(q, np.r_[0.0, e]), qc)[1:]
                            for e in np.eye(3)])


def velocity_frame_force(q, v, table, params) -> np.ndarray:
    """NED lift and drag of the velocity-frame model, on numpy vectors.

    x_v = v/|v|; y_v is body y less its x_v part, or body z x x_v when the
    velocity lies along body y (pure side-slip); the force is
    -D x_v - L (x_v x y_v) with alpha = atan2 of the body z and x velocity.
    """
    r = rotation_matrix(q)
    v = np.asarray(v, dtype=float)
    speed = np.linalg.norm(v)
    vb = r.T @ v
    cl, cd, _ = table.interpolate(math.atan2(vb[2], vb[0]), speed)
    qbar = 0.5 * params.air_density * speed**2 * params.wing_area
    x_v = v / speed
    y_v = r[:, 1] - (r[:, 1] @ x_v) * x_v
    if np.linalg.norm(y_v) < 1e-9:
        y_v = np.cross(r[:, 2], x_v)
    y_v = y_v / np.linalg.norm(y_v)
    return -qbar * cd * x_v - qbar * cl * np.cross(x_v, y_v)


def chirp_instantaneous_freq(cfg, t):
    """Instantaneous frequency f0 * k**t of the sweep, Hz."""
    t = np.asarray(t, dtype=float)
    if cfg.f1 == cfg.f0:
        return np.full_like(t, cfg.f0)
    k = (cfg.f1 / cfg.f0) ** (1.0 / cfg.duration_s)
    return cfg.f0 * np.power(k, t)


def frf_of_tf(tf: ContinuousTF, freqs, coherence=1.0) -> FRFEstimate:
    """Synthesize an exact FRF from a transfer function."""
    freqs = np.asarray(freqs, dtype=float)
    return FRFEstimate(freqs, tf_eval(tf, freqs), np.full(freqs.shape, coherence))


def section_poles(section):
    """Poles (z-plane) of one biquad section."""
    return np.roots([1.0, section.a1, section.a2])
