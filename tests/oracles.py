"""Independent reference computations the tests check the package against.

None of these is used by the package itself: they are the kinematics, the
quaternion product, the rotation matrix and velocity-frame aero force, the
chirp frequency law, an exact FRF, small helpers stated directly from their
definitions, and the numpy-array versions of the 250 Hz rate-loop tick, the
quaternion normalization and the attitude error that the float versions
must match bit for bit, and the list-and-``min``/``max`` forms of the aero
table lookup and the motor mixer and the list-and-``zip`` RK4 step that the
plant kernel must match bit for bit.  The thrust allocation is built here
from the airframe's public fields, the one-axis compensator from the
rate-loop config, and a filter's block output from its per-sample
``process``; ``save_aero_table`` writes the CSV that
``dataio.load_aero_table`` reads.  ``CascadeAxisPlant`` is the linear-axis
plant run sample by sample at the plant rate, and ``lifted_response`` the
polyphase sum that gives its response at the control rate; the package's
control-rate ``LinearAxisPlant`` must match both.  ``complex_tf_eval`` is a
transfer function's response in numpy complex arithmetic and
``unwrap_encirclements`` the Nyquist winding count from ``np.unwrap`` of the
whole contour, which ``lti.tf_eval`` and ``lti._encirclements`` must match
bit for bit and count for count.  Quaternions go in and come out as 4-tuples
of floats, the package's one quaternion form.
"""

import math
from bisect import bisect_right

import numpy as np

from tailsitter.biquad import discretize_tustin
from tailsitter.control import RateController
from tailsitter.dataio import write_csv
from tailsitter.lti import (ContinuousTF, PlantFitParams, fitted_plant, pid_tf, tf_eval,
                            tf_series)
from tailsitter.plant import (CONTROL_RATE_HZ, PLANT_RATE_HZ, SUBSTEPS, SimNumericsError,
                              _derivatives, _propeller_wrench)
from tailsitter.quat import _SMALL_HALF_ANGLE
from tailsitter.sysid import FRFEstimate


def integrator_tf(gain=1.0) -> ContinuousTF:
    return ContinuousTF([float(gain)], [0.0, 1.0])


IDENTITY = (1.0, 0.0, 0.0, 0.0)


def hamilton(p, q) -> np.ndarray:
    """Hamilton product ``p (x) q`` as a length-4 array (no normalization).

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


def normalize(q):
    """``q / sqrt(q @ q)`` on a numpy array, as a 4-tuple of floats."""
    q = np.array(q, dtype=float)
    n = math.sqrt(float(q @ q))
    if n < 1e-12:
        raise ValueError("cannot normalize near-zero quaternion")
    return tuple((q / n).tolist())


def negate(q):
    """-q: the same rotation from the other hemisphere of the double cover."""
    return tuple(-c for c in q)


def axis_angle(axis, angle_rad):
    """Unit quaternion of a rotation by angle_rad about axis."""
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n < 1e-12:
        raise ValueError("rotation axis has near-zero magnitude")
    half = 0.5 * float(angle_rad)
    return normalize(np.r_[math.cos(half), (math.sin(half) / n) * axis])


def euler_zxy_product(e):
    """Normalized numpy product qz (x) qx (x) qy of the Z-X-Y axis quaternions."""
    def axis_quat(angle, i):
        q = np.zeros(4)
        q[0], q[i] = math.cos(0.5 * angle), math.sin(0.5 * angle)
        return q

    return normalize(hamilton(hamilton(axis_quat(e.yaw, 3), axis_quat(e.roll, 1)),
                              axis_quat(e.pitch, 2)))


def conjugate(q):
    w, x, y, z = q
    return (w, -x, -y, -z)


def quat_multiply(a, b):
    """Hamilton product ``a (x) b``, renormalized."""
    return normalize(hamilton(a, b))


def attitude_error(q_current, q_desired) -> np.ndarray:
    """``quat.attitude_error`` on numpy products and arrays."""
    qe = quat_multiply(conjugate(q_current), q_desired)
    eta = qe[0]
    eps = np.array(qe[1:])
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


def same_rotation(a, b, tol=1e-9):
    """True if a and b encode the same rotation (sign-agnostic)."""
    qa, qb = np.asarray(a), np.asarray(b)
    return min(np.linalg.norm(qa - qb), np.linalg.norm(qa + qb)) < tol


def rotation_angle(q):
    """Total rotation angle in [0, pi]."""
    return 2.0 * math.acos(min(1.0, abs(q[0])))


def quat_derivative(q, omega_body) -> np.ndarray:
    """Kinematics ``q_dot = 0.5 q (x) (0, omega)`` on raw 4-arrays."""
    w = np.asarray(omega_body, dtype=float)
    return 0.5 * hamilton(q, np.array([0.0, w[0], w[1], w[2]]))


def integrate_rates(q, omega_body, dt: float):
    """Advance attitude by body rates over dt (RK4 on the kinematics)."""
    a = np.asarray(q, dtype=float)

    k1 = quat_derivative(a, omega_body)
    k2 = quat_derivative(a + 0.5 * dt * k1, omega_body)
    k3 = quat_derivative(a + 0.5 * dt * k2, omega_body)
    k4 = quat_derivative(a + dt * k3, omega_body)
    return normalize(a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def rotation_matrix(q) -> np.ndarray:
    """Body-to-inertial matrix whose column j is q (x) (0, e_j) (x) q*."""
    q = np.asarray(q, dtype=float)
    qc = q * np.array([1.0, -1.0, -1.0, -1.0])
    return np.column_stack([hamilton(hamilton(q, np.r_[0.0, e]), qc)[1:]
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


def aero_lookup(table):
    """``interpolate(alpha, v) -> (CL, CD, clamped)`` on the lists of
    ``table``, with ``min``/``max`` clamps and the ``bisect_right`` cell
    search; a NaN query lands in the last cell and gives NaN coefficients."""
    alphas, vs = table.alpha_grid.tolist(), table.v_grid.tolist()
    cl, cd = table.cl.tolist(), table.cd.tolist()

    def interpolate(alpha, v):
        clamped = not (alphas[0] <= alpha <= alphas[-1] and vs[0] <= v <= vs[-1])
        a = min(max(alpha, alphas[0]), alphas[-1])
        vv = min(max(v, vs[0]), vs[-1])
        i = max(min(bisect_right(alphas, a) - 1, len(alphas) - 2), 0)
        j = max(min(bisect_right(vs, vv) - 1, len(vs) - 2), 0)
        ta = (a - alphas[i]) / (alphas[i + 1] - alphas[i])
        tv = (vv - vs[j]) / (vs[j + 1] - vs[j])
        ua, uv = 1 - ta, 1 - tv
        cl0, cl1, cd0, cd1 = cl[i], cl[i + 1], cd[i], cd[i + 1]
        return (cl0[j] * ua * uv + cl1[j] * ta * uv
                + cl0[j + 1] * ua * tv + cl1[j + 1] * ta * tv,
                cd0[j] * ua * uv + cd1[j] * ta * uv
                + cd0[j + 1] * ua * tv + cd1[j + 1] * ta * tv,
                clamped)

    return interpolate


def allocation_matrix(params):
    """Motor commands -> (total thrust N, torque N m about body x, y, z).

    Each motor pushes F = thrust_coeff / 4 N per unit command along body x
    from its rotor position r = (x, y, z): the torque r x F = (0, z F, -y F),
    plus the rotor's reaction torque spin * rotor_torque_ratio * F about x.
    """
    f = params.thrust_coeff / 4.0
    columns = [(f, f * params.rotor_torque_ratio * float(spin), f * z, -f * y)
               for (_, y, z), spin in zip(params.rotor_positions.tolist(),
                                          params.spin_directions)]
    return np.array(list(zip(*columns)))


def compensator_tf(cfg, axis) -> ContinuousTF:
    """Continuous compensator C(s) of one rate-loop axis: the PID cascaded
    with the axis notch, if it has one."""
    c = pid_tf(cfg.kp[axis], cfg.ki[axis], cfg.kd[axis], cfg.deriv_corner_hz)
    n = cfg.notches[axis]
    return tf_series(c, n.tf()) if n is not None else c


def process_block(cascade, xs) -> np.ndarray:
    """A biquad cascade's output for a whole input sequence, one sample at a
    time through ``process``."""
    return np.array([cascade.process(float(x)) for x in np.asarray(xs)])


def headroom_scale(u0, du):
    """Largest factor in [0, 1] keeping u0 + f*du inside [0, 1]."""
    f = 1.0
    for b, d in zip(u0, du):
        if d > 1e-12:
            f = min(f, (1.0 - b) / d)
        elif d < -1e-12:
            f = min(f, (0.0 - b) / d)
    return max(f, 0.0)


def mix(tx, ty, tz, thrust_cmd, params):
    """(u1, u2, u3, u4, saturated) of the priority mixer on lists: thrust,
    then roll/pitch scaled into the headroom, then yaw, then a clip to
    [0, 1] flagged past ``np.allclose``'s tolerance."""
    a = np.linalg.inv(allocation_matrix(params)).tolist()
    thrust_n = min(max(thrust_cmd, 0.0), 1.0) * params.thrust_coeff
    base = [r[0] * thrust_n for r in a]
    rp = [r[1] * tx + r[2] * ty for r in a]
    yaw = [r[3] * tz for r in a]
    saturated = thrust_cmd < 0.0 or thrust_cmd > 1.0

    f_rp = headroom_scale(base, rp)
    u = [b + f_rp * d for b, d in zip(base, rp)]
    f_yaw = headroom_scale(u, yaw)
    u = [b + f_yaw * d for b, d in zip(u, yaw)]
    out = [min(max(x, 0.0), 1.0) for x in u]
    clipped = any(abs(o - x) > 1e-12 + 1e-5 * abs(x) for o, x in zip(out, u))
    return (*out, saturated or f_rp < 1.0 or f_yaw < 1.0 or clipped)


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


def state_derivatives(x, wrench, params, table):
    """(d/dt of the flat 13-float state as a tuple, aero query clamped): the
    position derivative is the velocity, the rest ``plant._derivatives``."""
    *d, clamped = _derivatives(*x[3:13], wrench, params, table)
    return (x[3], x[4], x[5], *d), clamped


def step_dynamics(x, motors, dt, params, table):
    """``plant.step_dynamics`` with each RK4 stage input built as a list
    ``[a + h * b for a, b in zip(x, k)]`` and the combine zipped over lists."""
    wrench = _propeller_wrench(motors, params)
    h = 0.5 * dt
    k1, c1 = state_derivatives(x, wrench, params, table)
    k2, c2 = state_derivatives([a + h * b for a, b in zip(x, k1)], wrench, params, table)
    k3, c3 = state_derivatives([a + h * b for a, b in zip(x, k2)], wrench, params, table)
    k4, c4 = state_derivatives([a + dt * b for a, b in zip(x, k3)], wrench, params, table)
    h = dt / 6.0
    out = [a + h * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
           for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    if not all(map(math.isfinite, out)):
        raise SimNumericsError("state became non-finite during integration")
    qw, qx, qy, qz = out[6:10]
    n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    out[6:10] = qw / n, qx / n, qy / n, qz / n
    return out, c1 or c2 or c3 or c4


def save_aero_table(path, table):
    """Rectangular grid flattened to `alpha_rad,V_ms,CL,CD` rows."""
    rows = []
    for i, a in enumerate(table.alpha_grid):
        for j, v in enumerate(table.v_grid):
            rows.append((a, v, table.cl[i, j], table.cd[i, j]))
    return write_csv(path, ["alpha_rad", "V_ms", "CL", "CD"], rows)


class CascadeAxisPlant:
    """The linear-axis plant at the plant rate: a delay line of
    ``round(p.delay_s * PLANT_RATE_HZ)`` samples ahead of the Tustin cascade
    of the rational part of ``fitted_plant(p)`` at ``PLANT_RATE_HZ``,
    prewarped at the peak, run ``SUBSTEPS`` times per control tick with the
    command held, the rate sampled at the end of the tick.
    ``plant.LinearAxisPlant`` realizes the same map at the control rate."""

    def __init__(self, p: PlantFitParams):
        tf = fitted_plant(p)
        self.cascade = discretize_tustin(ContinuousTF(tf.num, tf.den), PLANT_RATE_HZ,
                                         prewarp_hz=p.peak.freq_hz)
        self.delay_samples = round(p.delay_s * PLANT_RATE_HZ)
        self._line = [0.0] * self.delay_samples

    def process(self, u):
        """One plant-rate sample through the delay line and the cascade."""
        self._line.append(float(u))
        return self.cascade.process(self._line.pop(0))

    def step(self, u):
        for _ in range(SUBSTEPS):
            y = self.process(u)
        return y

    def response(self, freq_hz):
        """Plant-rate response of the delay line and the cascade."""
        f = np.asarray(freq_hz, dtype=float)
        return (self.cascade.response(f)
                * np.exp(-2j * np.pi * f * self.delay_samples / PLANT_RATE_HZ))


def lifted_response(plant, freq_hz):
    """Response at the control rate of the ``CascadeAxisPlant`` ``plant``
    driven by a command held over each tick and sampled at the tick's end:
    the polyphase sum P(theta) = 1/4 sum_m G(w_m) e^{3j w_m} over the four
    plant-rate frequencies w_m = (theta + 2 pi m) / 4 that alias to theta,
    with G the plant's delay line and cascade times the hold
    1 + z^-1 + z^-2 + z^-3."""
    theta = 2.0 * np.pi * np.asarray(freq_hz, dtype=float) / CONTROL_RATE_HZ
    total = 0.0
    for m in range(SUBSTEPS):
        w = (theta + 2.0 * np.pi * m) / SUBSTEPS
        hold = sum(np.exp(-1j * w * i) for i in range(SUBSTEPS))
        g = plant.response(w * PLANT_RATE_HZ / (2.0 * np.pi)) * hold
        total = total + g * np.exp(1j * w * (SUBSTEPS - 1))
    return total / SUBSTEPS


def complex_tf_eval(tf: ContinuousTF, freq_hz):
    """Response of ``tf`` at positive frequencies in Hz in numpy complex
    arithmetic: each polynomial summed over the powers of s = jw, numpy's
    complex division, exp and on-pole flag (complex inf where the
    denominator magnitude is below 1e-12 of its largest coefficient).  A
    scalar frequency gives a complex, as ``tf_eval`` does."""
    w = 2.0 * np.pi * np.asarray(freq_hz, dtype=float)
    s = 1j * w

    def polyval(coeffs):
        out = np.zeros_like(s)
        p = np.ones_like(s)
        for c in coeffs:
            out += c * p
            p *= s
        return out

    num, den = polyval(tf.num), polyval(tf.den)
    on_pole = np.abs(den) < 1e-12 * np.max(np.abs(tf.den))
    h = num / np.where(on_pole, 1.0, den) * np.exp(-1j * w * tf.delay)
    h = np.where(on_pole, np.inf + 0j, h)
    return complex(h) if np.ndim(freq_hz) == 0 else h


def unwrap_encirclements(h, den) -> int:
    """Net encirclements of -1 by the open-loop response ``h`` on a grid over
    w > 0: the end-to-end angle of ``np.unwrap`` of the angle of 1 + h,
    doubled for the mirrored half, less pi per integrator (the leading zero
    coefficients of ``den``) for the arc around the origin."""
    ang = np.unwrap(np.angle(np.asarray(h) + 1.0))
    n_integrators = int(np.nonzero(den)[0][0])
    return round((2.0 * (ang[-1] - ang[0]) - n_integrators * math.pi)
                 / (2.0 * math.pi))
