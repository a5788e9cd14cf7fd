"""Independent reference computations the tests check the package against.

None of these is used by the package itself: they are the kinematics, the
quaternion product, the rotation matrix and velocity-frame aero force, the
chirp frequency law, an exact FRF, small helpers stated directly from their
definitions, and the numpy-array versions of the 250 Hz rate-loop tick and
the attitude error that the float versions must match bit for bit.
"""

import math

import numpy as np

from tailsitter.control import RateController
from tailsitter.lti import ContinuousTF, tf_eval
from tailsitter.quat import _SMALL_HALF_ANGLE, Quaternion, _hamilton
from tailsitter.sysid import FRFEstimate


def integrator_tf(gain=1.0) -> ContinuousTF:
    return ContinuousTF([float(gain)], [0.0, 1.0])


def conjugate(q: Quaternion) -> Quaternion:
    w, x, y, z = q.as_array()
    return Quaternion(w, -x, -y, -z, normalize=False)


def quat_multiply(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product ``a (x) b``, renormalized."""
    w = _hamilton(a.as_array(), b.as_array())
    return Quaternion(w[0], w[1], w[2], w[3])


def attitude_error(q_current: Quaternion, q_desired: Quaternion) -> np.ndarray:
    """``quat.attitude_error`` on ``Quaternion`` products and numpy arrays."""
    qe = quat_multiply(conjugate(q_current), q_desired)
    eta = qe.eta
    eps = qe.eps
    half = math.acos(min(1.0, abs(eta)))
    if half < _SMALL_HALF_ANGLE:
        scale = 1.0 + half * half / 6.0
    else:
        scale = half / math.sin(half)
    sgn = -1.0 if eta < 0.0 else 1.0
    return sgn * scale * eps


class NumpyRateController(RateController):
    """``RateController`` with its tick on numpy arrays, state included."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.integrator = np.zeros(3)
        self.saturated = np.zeros(3, dtype=bool)

    def step(self, omega_meas, omega_cmd):
        omega_meas = np.asarray(omega_meas, dtype=float)
        omega_cmd = np.asarray(omega_cmd, dtype=float)
        if not (np.all(np.isfinite(omega_meas)) and np.all(np.isfinite(omega_cmd))):
            raise FloatingPointError("rate controller received non-finite input")
        cfg = self.cfg
        err = omega_cmd - omega_meas
        out = np.empty(3)
        for i in range(3):
            d = self._deriv[i].process(omega_meas[i])
            raw = cfg.kp[i] * err[i] + cfg.ki[i] * self.integrator[i] - d
            if self._notch[i] is not None:
                raw = self._notch[i].process(raw)
            clamped = min(max(raw, -cfg.output_limit), cfg.output_limit)
            self.saturated[i] = clamped != raw
            if not (self.saturated[i] and raw * err[i] > 0.0):
                lim = cfg.integrator_limit
                self.integrator[i] = min(max(self.integrator[i] + err[i] * self.dt,
                                             -lim), lim)
            out[i] = clamped
        return out


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
