"""Simulation plant for the quadrotor tail-sitter.

Two interchangeable plants back the closed-loop experiments:

* ``TailsitterSim`` - nonlinear rigid body in NED coordinates (z down) with
  table-lookup aerodynamic forces, quadrotor thrust allocation, first-order
  motor lag, an optional structural-resonance filter on the pitch torque
  path, actuation transport delay, and a gyro measurement chain running at
  1 kHz with 250 Hz decimated output.
* ``LinearAxisPlant`` - a single-axis discrete realization of an identified
  transfer function (torque command in, measured rate out), used for
  frequency-domain-faithful loop verification.

Both are deterministic under a fixed seed.

The 1 kHz substep of ``TailsitterSim`` is a scalar kernel: the vehicle state
is one flat list of 13 floats (NED position and velocity, the attitude
quaternion, body rates) and every stage of the substep (delay line, flex
biquad, torque scaling, mixer headroom scaling, motor lag, the rigid-body
derivatives, the RK4 combine and renormalization, and the gyro chain) runs
on plain floats, with no array or state object built per substep.  The
public ``mixer``, ``step_dynamics`` and ``aero_forces`` are thin wrappers
over the same scalar code (``_mix``, ``_rk4``, ``_lift_drag``), so the
property tests exercise the kernel the simulator runs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import quat
from .biquad import discretize_tustin
from .lti import ContinuousTF, ResonanceParams, butterworth2, tf_series

__all__ = [
    "AircraftParams",
    "AeroTable",
    "AeroForces",
    "FlexibleModeParams",
    "MotorCommand",
    "RigidBodyState",
    "SensorConfig",
    "VibrationConfig",
    "SimNumericsError",
    "default_aero_table",
    "aero_forces",
    "mixer",
    "step_dynamics",
    "hover_state",
    "LinearAxisPlant",
    "RateSensor",
    "rotor_vibration",
    "TailsitterSim",
]

PLANT_RATE_HZ = 1000.0
CONTROL_RATE_HZ = 250.0
# Shape of the analytic aero table: finite-wing lift slope (1/rad), stall
# angle and blend width (rad), zero-lift drag and induced-drag factor.
LIFT_SLOPE = 4.73
ALPHA_STALL = 0.2618
BLEND_WIDTH = 0.0873
CD0 = 0.03
INDUCED_FACTOR = 0.0654


class SimNumericsError(RuntimeError):
    """Simulation state became non-finite."""


def _default_rotor_positions():
    # booms fore/aft of the wing (z) and along the span (y); x along the nose
    dy, dz = 0.22, 0.09
    return np.array(
        [
            [0.0, +dy, +dz],
            [0.0, -dy, +dz],
            [0.0, -dy, -dz],
            [0.0, +dy, -dz],
        ]
    )


@dataclass(frozen=True, eq=False)
class AircraftParams:
    """Physical constants of the airframe.

    ``thrust_coeff`` is the total thrust in newtons produced when all four
    motors sit at normalized command 1.0 (affine map, no quadratic term);
    hover therefore satisfies thrust_coeff * hover_command = mass * gravity.
    ``rate_damping`` is the linear aerodynamic moment coefficient in
    N m s/rad per axis; ``motor_tau_s`` the first-order thrust lag.
    """

    mass: float = 1.2
    inertia: np.ndarray = field(default_factory=lambda: np.diag((0.03, 0.008, 0.036)))
    wing_area: float = 0.1332
    air_density: float = 1.225
    gravity: float = 9.81
    rotor_positions: np.ndarray = field(default_factory=_default_rotor_positions)
    spin_directions: tuple[float, float, float, float] = (1.0, -1.0, 1.0, -1.0)
    rotor_torque_ratio: float = 0.015
    thrust_coeff: float = 23.544
    hover_command: float = 0.5
    motor_tau_s: float = 0.0637
    rate_damping: tuple[float, float, float] = (0.02, 0.02, 0.03)

    def __post_init__(self):
        if self.mass <= 0.0 or self.wing_area <= 0.0:
            raise ValueError("mass and wing area must be positive")
        if self.motor_tau_s <= 0.0:
            raise ValueError("motor_tau_s must be positive")
        inertia = np.asarray(self.inertia, dtype=float)
        if inertia.shape == (3,):
            inertia = np.diag(inertia)
        elif inertia.shape == (3, 3):
            if not np.allclose(inertia, inertia.T, atol=1e-12):
                raise ValueError("inertia matrix must be symmetric")
        else:
            raise ValueError("inertia must be a 3-vector of principal moments or 3x3")
        if np.any(np.linalg.eigvalsh(inertia) <= 0.0):
            raise ValueError("inertia must be positive definite")
        object.__setattr__(self, "inertia", inertia)
        inertia.flags.writeable = False
        pos = np.asarray(self.rotor_positions, dtype=float)
        if pos.shape != (4, 3):
            raise ValueError("rotor_positions must be 4x3")
        object.__setattr__(self, "rotor_positions", pos)
        pos.flags.writeable = False
        # reject degenerate allocation geometry at construction time
        a = self._build_allocation()
        if np.linalg.cond(a) > 1e6:
            raise ValueError("rotor geometry gives a singular thrust allocation")
        object.__setattr__(self, "_alloc", a)
        # constants of the scalar kernel, as plain floats
        object.__setattr__(self, "_alloc_inv_rows",
                           tuple(map(tuple, np.linalg.inv(a).tolist())))
        object.__setattr__(self, "_inertia_rows", tuple(map(tuple, inertia.tolist())))
        object.__setattr__(self, "_inertia_inv_rows",
                           tuple(map(tuple, np.linalg.inv(inertia).tolist())))
        object.__setattr__(self, "_rotor_yz", (tuple(pos[:, 1].tolist()),
                                               tuple(pos[:, 2].tolist())))

    @property
    def motor_thrust_coeff(self):
        """Thrust per motor per unit normalized command, N."""
        return self.thrust_coeff / 4.0

    @property
    def thrust_ratio(self):
        """Normalized command per newton of thrust (hover identity)."""
        return self.hover_command / (self.mass * self.gravity)

    def _build_allocation(self):
        c = self.motor_thrust_coeff
        y = self.rotor_positions[:, 1]
        z = self.rotor_positions[:, 2]
        s = np.asarray(self.spin_directions, dtype=float)
        return np.array(
            [
                c * np.ones(4),
                c * self.rotor_torque_ratio * s,
                c * z,
                -c * y,
            ]
        )

    def allocation_matrix(self):
        """Map motor commands to (total thrust N, torque N m x/y/z)."""
        return self._alloc.copy()

    def torque_scale(self):
        """Physical torque (N m) produced per unit normalized torque command.

        The identification input channel is normalized torque; this scale
        ties the identified gain to the physical allocation geometry.
        """
        pos = self.rotor_positions
        return self.thrust_coeff * np.array(
            [
                self.rotor_torque_ratio,
                float(np.mean(np.abs(pos[:, 2]))),
                float(np.mean(np.abs(pos[:, 1]))),
            ]
        )


@dataclass(frozen=True)
class AeroForces:
    lift_n: float
    drag_n: float
    clamped: bool = False


class AeroTable:
    """Rectangular (alpha, V) grid of lift/drag coefficients, bilinear lookup.

    alpha spans [-pi, pi] rad; queries outside the grid clamp to the edge and
    report it.  Interpolation reproduces grid nodes exactly.
    """

    def __init__(self, alpha_grid, v_grid, cl, cd):
        self.alpha_grid = np.array(alpha_grid, dtype=float)
        self.v_grid = np.array(v_grid, dtype=float)
        self.cl = np.array(cl, dtype=float)
        self.cd = np.array(cd, dtype=float)
        if np.any(np.diff(self.alpha_grid) <= 0) or np.any(np.diff(self.v_grid) <= 0):
            raise ValueError("grids must be strictly increasing")
        shape = (self.alpha_grid.size, self.v_grid.size)
        if self.cl.shape != shape or self.cd.shape != shape:
            raise ValueError(f"coefficient tables must have shape {shape}")
        if np.any(self.cd < 0.0):
            raise ValueError("drag coefficient must be nonnegative")
        # the lookup runs on these float lists; freeze the arrays they mirror
        for arr in (self.alpha_grid, self.v_grid, self.cl, self.cd):
            arr.flags.writeable = False
        self._alphas = self.alpha_grid.tolist()
        self._vs = self.v_grid.tolist()
        self._cl = self.cl.tolist()
        self._cd = self.cd.tolist()

    def interpolate(self, alpha, v):
        """(CL, CD, clamped) at one query point."""
        alphas, vs = self._alphas, self._vs
        clamped = not (alphas[0] <= alpha <= alphas[-1] and vs[0] <= v <= vs[-1])
        a = min(max(alpha, alphas[0]), alphas[-1])
        vv = min(max(v, vs[0]), vs[-1])
        i = max(min(bisect_right(alphas, a) - 1, len(alphas) - 2), 0)
        j = max(min(bisect_right(vs, vv) - 1, len(vs) - 2), 0)
        ta = (a - alphas[i]) / (alphas[i + 1] - alphas[i])
        tv = (vv - vs[j]) / (vs[j + 1] - vs[j])
        ua, uv = 1 - ta, 1 - tv
        cl0, cl1, cd0, cd1 = self._cl[i], self._cl[i + 1], self._cd[i], self._cd[i + 1]
        return (cl0[j] * ua * uv + cl1[j] * ta * uv
                + cl0[j + 1] * ua * tv + cl1[j + 1] * ta * tv,
                cd0[j] * ua * uv + cd1[j] * ta * uv
                + cd0[j + 1] * ua * tv + cd1[j + 1] * ta * tv,
                clamped)


def default_aero_table():
    """Full-envelope table: thin-airfoil pre-stall blended into flat plate.

    Pre-stall lift is linear (finite-wing slope), post-stall follows the
    flat-plate laws CL = 2 sin a cos a and CD = 2 sin^2 a, blended smoothly
    around the stall angle so the whole alpha range [-pi, pi] needed for
    90-degree-pitch flight is covered.  Wind-tunnel data can replace this
    via the CSV schema; provenance of these defaults is analytic, not
    measured.
    """
    alpha = np.radians(np.arange(-180.0, 180.1, 2.5))
    v = np.array([0.0, 4.0, 8.0, 12.0, 16.0, 20.0])
    w = 1.0 / (1.0 + np.exp(-(np.abs(alpha) - ALPHA_STALL) / (BLEND_WIDTH / 4.0)))
    cl_lin = LIFT_SLOPE * alpha
    cl_fp = 2.0 * np.sin(alpha) * np.cos(alpha)
    cl = (1.0 - w) * cl_lin + w * cl_fp
    cd = CD0 + (1.0 - w) * INDUCED_FACTOR * cl_lin**2 + w * 2.0 * np.sin(alpha) ** 2
    return AeroTable(alpha, v, np.tile(cl[:, None], (1, v.size)),
                     np.tile(cd[:, None], (1, v.size)))


def _lift_drag(alpha, v, table: AeroTable, params: AircraftParams):
    """(lift N, drag N, clamped): L = 1/2 rho V^2 S CL(a, V), same for drag."""
    cl, cd, clamped = table.interpolate(alpha, v)
    q = 0.5 * params.air_density * v * v * params.wing_area
    return q * cl, q * cd, clamped


def aero_forces(alpha, v, table: AeroTable, params: AircraftParams) -> AeroForces:
    """Lift and drag in newtons: L = 1/2 rho V^2 S CL(a, V), same for drag.

    Ground speed stands in for airspeed (small-wind assumption).
    """
    if v < 0.0:
        raise ValueError("airspeed must be >= 0")
    return AeroForces(*_lift_drag(alpha, v, table, params))


@dataclass(frozen=True, eq=False)
class MotorCommand:
    """Normalized per-motor commands in [0, 1]; clipping is never silent."""

    u: np.ndarray
    saturated: bool = False

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.shape != (4,):
            raise ValueError("need 4 motor commands")
        object.__setattr__(self, "u", u)
        u.flags.writeable = False


def _headroom_scale(u0, du):
    """Largest factor in [0, 1] keeping u0 + f*du inside [0, 1]."""
    f = 1.0
    for b, d in zip(u0, du):
        if d > 1e-12:
            f = min(f, (1.0 - b) / d)
        elif d < -1e-12:
            f = min(f, (0.0 - b) / d)
    return max(f, 0.0)


def _mix(tx, ty, tz, thrust_cmd, params: AircraftParams):
    """Scalar mixer body: (u1, u2, u3, u4, saturated); see ``mixer``."""
    a = params._alloc_inv_rows
    thrust_n = min(max(thrust_cmd, 0.0), 1.0) * params.thrust_coeff
    base = [r[0] * thrust_n for r in a]
    rp = [r[1] * tx + r[2] * ty for r in a]
    yaw = [r[3] * tz for r in a]
    saturated = thrust_cmd < 0.0 or thrust_cmd > 1.0

    f_rp = _headroom_scale(base, rp)
    u = [b + f_rp * d for b, d in zip(base, rp)]
    f_yaw = _headroom_scale(u, yaw)
    u = [b + f_yaw * d for b, d in zip(u, yaw)]
    out = [min(max(x, 0.0), 1.0) for x in u]
    # np.allclose(out, u, atol=1e-12) with its default rtol of 1e-5
    clipped = any(abs(o - x) > 1e-12 + 1e-5 * abs(x) for o, x in zip(out, u))
    return (*out, saturated or f_rp < 1.0 or f_yaw < 1.0 or clipped)


def mixer(torque_nm, thrust_cmd, params: AircraftParams) -> MotorCommand:
    """Invert the allocation matrix with priority thrust > roll/pitch > yaw.

    torque_nm is the physical torque demand (N m); thrust_cmd the normalized
    collective in [0, 1].  When the unsaturated solution leaves [0, 1] the
    roll/pitch group is scaled first, then yaw, and the command is flagged.
    """
    tx, ty, tz = (float(t) for t in torque_nm)
    thrust_cmd = float(thrust_cmd)
    if not all(map(math.isfinite, (tx, ty, tz, thrust_cmd))):
        raise ValueError("mixer inputs must be finite")
    *u, saturated = _mix(tx, ty, tz, thrust_cmd, params)
    return MotorCommand(u, saturated)


@dataclass(frozen=True, eq=False)
class RigidBodyState:
    """Position/velocity in NED inertial axes, attitude, body rates."""

    p: np.ndarray
    v: np.ndarray
    q: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        for name in ("p", "v", "omega"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            object.__setattr__(self, name, arr)
            arr.flags.writeable = False
        q = np.asarray(self.q, dtype=float)
        if q.shape != (4,):
            raise ValueError("q must be a 4-vector (eta, ex, ey, ez)")
        n = np.linalg.norm(q)
        if not 0.5 < n < 2.0:
            raise ValueError("quaternion norm wildly off unit")
        q = q / n
        object.__setattr__(self, "q", q)
        q.flags.writeable = False

    @property
    def quaternion(self):
        return quat.Quaternion.from_array(self.q, normalize=False)

    def as_vector(self):
        return np.concatenate([self.p, self.v, self.q, self.omega])

    @classmethod
    def from_vector(cls, x):
        return cls(x[0:3], x[3:6], x[6:10], x[10:13])


def hover_state(params: AircraftParams, altitude_m=50.0) -> RigidBodyState:
    """Nose-up trim: 90 deg pitch, zero velocity, at the given altitude."""
    q = quat.euler_zxy_to_quat(quat.EulerZXY(0.0, 0.5 * math.pi, 0.0))
    return RigidBodyState(
        np.array([0.0, 0.0, -altitude_m]), np.zeros(3), q.as_array(), np.zeros(3)
    )


def angle_of_attack(state: RigidBodyState):
    """(alpha rad, speed m/s) from the inertial velocity and attitude."""
    r = quat.rotmat_from_array(state.q)
    vb = r.T @ state.v
    speed = float(np.linalg.norm(state.v))
    if speed < 1e-9:
        return 0.0, 0.0
    return float(math.atan2(vb[2], vb[0])), speed


def _propeller_wrench(u, params: AircraftParams):
    """(total thrust N, roll, pitch, yaw torque N m) of normalized motor commands.

    Every thrust vector is (T_i, 0, 0) in body axes, so the arm torques
    reduce to dot products with the rotor coordinates.
    """
    c = params.motor_thrust_coeff
    t1, t2, t3, t4 = (c * x for x in u)
    s1, s2, s3, s4 = params.spin_directions
    (y1, y2, y3, y4), (z1, z2, z3, z4) = params._rotor_yz
    return (t1 + t2 + t3 + t4,
            params.rotor_torque_ratio * (s1 * t1 + s2 * t2 + s3 * t3 + s4 * t4),
            z1 * t1 + z2 * t2 + z3 * t3 + z4 * t4,
            -(y1 * t1 + y2 * t2 + y3 * t3 + y4 * t4))


def _derivatives(x, wrench, params: AircraftParams, table: AeroTable):
    """(d/dt of the flat 13-float state, aero query clamped) at fixed thrust.

    The state is (p, v, q, omega): NED position and velocity, the attitude
    quaternion (eta, ex, ey, ez), normalized here, and the body rates.
    """
    _, _, _, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = x
    n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    qw, qx, qy, qz = qw / n, qx / n, qy / n, qz / n
    # body-to-inertial rotation matrix, as quat.rotmat_from_array
    xx, yy, zz = qx * qx, qy * qy, qz * qz
    xy, xz, yz = qx * qy, qx * qz, qy * qz
    wxq, wyq, wzq = qw * qx, qw * qy, qw * qz
    r00, r01, r02 = 1.0 - 2.0 * (yy + zz), 2.0 * (xy - wzq), 2.0 * (xz + wyq)
    r10, r11, r12 = 2.0 * (xy + wzq), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wxq)
    r20, r21, r22 = 2.0 * (xz - wyq), 2.0 * (yz + wxq), 1.0 - 2.0 * (xx + yy)

    thrust, tau_x, tau_y, tau_z = wrench
    fx, fy, fz = r00 * thrust, r10 * thrust, r20 * thrust

    # aero force in the velocity frame, (-D, 0, -L): x_v along the velocity,
    # z_v in the aircraft symmetry plane (coordinated flight keeps body y
    # perpendicular to the airstream)
    clamped = False
    speed = math.sqrt(vx * vx + vy * vy + vz * vz)
    if speed >= 1e-9:
        alpha = math.atan2(r02 * vx + r12 * vy + r22 * vz,
                           r00 * vx + r10 * vy + r20 * vz)
        lift, drag, clamped = _lift_drag(alpha, speed, table, params)
        ax, ay, az = vx / speed, vy / speed, vz / speed
        d = r01 * ax + r11 * ay + r21 * az
        bx, by, bz = r01 - d * ax, r11 - d * ay, r21 - d * az
        nb = math.sqrt(bx * bx + by * by + bz * bz)
        if nb < 1e-9:
            # velocity along body y (pure side-slip); the symmetry plane is
            # undefined, so body z x x_v stands in for a continuous-ish frame
            bx, by, bz = r12 * az - r22 * ay, r22 * ax - r02 * az, r02 * ay - r12 * ax
            nb = math.sqrt(bx * bx + by * by + bz * bz)
        if nb >= 1e-9:
            bx, by, bz = bx / nb, by / nb, bz / nb
            fx = -drag * ax - lift * (ay * bz - az * by) + fx
            fy = -drag * ay - lift * (az * bx - ax * bz) + fy
            fz = -drag * az - lift * (ax * by - ay * bx) + fz

    (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = params._inertia_rows
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = params._inertia_inv_rows
    dx, dy, dz = params.rate_damping
    hx = i00 * wx + i01 * wy + i02 * wz
    hy = i10 * wx + i11 * wy + i12 * wz
    hz = i20 * wx + i21 * wy + i22 * wz
    # Euler: I dw = -w x (I w) + tau_propellers - damping * w
    mx = -(wy * hz - wz * hy) + tau_x + -dx * wx
    my = -(wz * hx - wx * hz) + tau_y + -dy * wy
    mz = -(wx * hy - wy * hx) + tau_z + -dz * wz
    m = params.mass
    return (vx, vy, vz,
            fx / m, fy / m, params.gravity + fz / m,
            0.5 * (-qx * wx - qy * wy - qz * wz),
            0.5 * (qw * wx + qy * wz - qz * wy),
            0.5 * (qw * wy - qx * wz + qz * wx),
            0.5 * (qw * wz + qx * wy - qy * wx),
            j00 * mx + j01 * my + j02 * mz,
            j10 * mx + j11 * my + j12 * mz,
            j20 * mx + j21 * my + j22 * mz), clamped


def _rk4(x, wrench, dt, params: AircraftParams, table: AeroTable):
    """One RK4 step of the flat state: (new state list, any aero query clamped).

    Raises SimNumericsError on a non-finite result; the quaternion is
    renormalized after the step.
    """
    h = 0.5 * dt
    k1, c1 = _derivatives(x, wrench, params, table)
    k2, c2 = _derivatives([a + h * b for a, b in zip(x, k1)], wrench, params, table)
    k3, c3 = _derivatives([a + h * b for a, b in zip(x, k2)], wrench, params, table)
    k4, c4 = _derivatives([a + dt * b for a, b in zip(x, k3)], wrench, params, table)
    h = dt / 6.0
    out = [a + h * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
           for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    if not all(map(math.isfinite, out)):
        raise SimNumericsError("state became non-finite during integration")
    qw, qx, qy, qz = out[6:10]
    n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    out[6:10] = qw / n, qx / n, qy / n, qz / n
    return out, c1 or c2 or c3 or c4


def step_dynamics(state: RigidBodyState, motors, dt: float,
                  params: AircraftParams, table: AeroTable) -> RigidBodyState:
    """One RK4 step of the rigid-body dynamics with fixed motor thrusts.

    ``motors`` is a MotorCommand or a length-4 array of normalized commands
    held constant over the step (the motor lag, when simulated, lives in
    TailsitterSim).  The quaternion is renormalized after the step.  This is
    the kernel TailsitterSim runs, on the state as a RigidBodyState.
    """
    if not 0.0 < dt <= 0.002:
        raise ValueError("dt must lie in (0, 2 ms]")
    u = motors.u if isinstance(motors, MotorCommand) else np.asarray(motors, float)
    x, _ = _rk4(state.as_vector().tolist(), _propeller_wrench(u.tolist(), params),
                dt, params, table)
    return RigidBodyState.from_vector(x)


class LinearAxisPlant:
    """Stateful single-axis plant realized from an identified TF.

    Maps a normalized torque command to the measured rate, including the
    transport delay as an integer-sample line.  Runs at the fixed 1 kHz
    ``PLANT_RATE_HZ``; ``prewarp_hz``, when given (normally the resonance),
    makes the response exact there, so the structural peak lands on its
    continuous frequency.
    """

    def __init__(self, tf: ContinuousTF, prewarp_hz=None):
        if tf.num_degree > tf.den_degree:
            raise ValueError("improper transfer function is not realizable")
        self.tf = tf
        self.cascade = discretize_tustin(tf, PLANT_RATE_HZ, prewarp_hz)

    def step(self, u: float) -> float:
        return self.cascade.process(float(u))


@dataclass(frozen=True)
class FlexibleModeParams:
    """Structural resonance pair applied in series on the pitch torque path."""

    peak: ResonanceParams
    anti: ResonanceParams

    def __post_init__(self):
        if not self.peak.num_damp > self.peak.den_damp:
            raise ValueError("peak mode must amplify (num_damp > den_damp)")
        if not self.anti.num_damp < self.anti.den_damp:
            raise ValueError("anti mode must attenuate (num_damp < den_damp)")

    def tf(self) -> ContinuousTF:
        return tf_series(self.peak.tf(), self.anti.tf())


@dataclass(frozen=True)
class SensorConfig:
    """Gyro measurement chain: additive noise, anti-alias filter, decimate.

    The chain decimates from the plant rate to the control rate.
    """

    gyro_noise_std: float = 0.005
    corner_hz: float = 100.0


class RateSensor:
    """1 kHz true rates -> 250 Hz measured rates, deterministic under seed.

    The chain runs at the fixed ``PLANT_RATE_HZ`` and decimates to
    ``CONTROL_RATE_HZ``.  Gyro noise is drawn ``NOISE_BLOCK`` samples at a
    time; the generator hands out the same normal stream whether it is
    asked for 3 values per sample or 3 * NOISE_BLOCK at once, so the
    measurements do not depend on the block size.
    """

    NOISE_BLOCK = 1000

    def __init__(self, cfg: SensorConfig, seed=0):
        self.cfg = cfg
        self._filters = [
            discretize_tustin(butterworth2(cfg.corner_hz), PLANT_RATE_HZ)
            for _ in range(3)
        ]
        self._rng = np.random.default_rng(seed)
        self._decimation = int(round(PLANT_RATE_HZ / CONTROL_RATE_HZ))
        self._count = 0
        self._noise = []
        self._noise_at = 0

    def _sample(self, wx, wy, wz):
        """Feed one 1 kHz sample as floats; the 250 Hz measurement or None."""
        std = self.cfg.gyro_noise_std
        if std > 0.0:
            k = self._noise_at
            if k == len(self._noise):
                self._noise = self._rng.normal(0.0, std, 3 * self.NOISE_BLOCK).tolist()
                k = 0
            noise = self._noise
            wx, wy, wz = wx + noise[k], wy + noise[k + 1], wz + noise[k + 2]
            self._noise_at = k + 3
        fx, fy, fz = self._filters
        out = (fx.process(wx), fy.process(wy), fz.process(wz))
        self._count += 1
        if self._count % self._decimation == 0:
            return out
        return None

    def process(self, true_rate):
        """Feed one 1 kHz sample; returns the 250 Hz measurement or None."""
        out = self._sample(*(float(w) for w in true_rate))
        return None if out is None else np.array(out)

    def process_block(self, rates):
        """(N, 3) at 1 kHz -> (N/4, 3) at the control rate."""
        rates = np.atleast_2d(np.asarray(rates, dtype=float))
        out = []
        for row in rates:
            m = self.process(row)
            if m is not None:
                out.append(m)
        return np.array(out)


@dataclass(frozen=True)
class VibrationConfig:
    """Rotor-induced rate disturbance: tones confined to [75, 90] Hz."""

    amplitude: float = 0.0
    f_lo: float = 75.0
    f_hi: float = 90.0
    n_tones: int = 5
    seed: int = 0


@lru_cache(maxsize=16)
def _vibration_tones(f_lo, f_hi, n_tones, seed):
    rng = np.random.default_rng(seed)
    freqs = np.linspace(f_lo, f_hi, n_tones)
    phases = rng.uniform(0.0, 2.0 * np.pi, (3, n_tones))
    return freqs, phases


def rotor_vibration(t, cfg: VibrationConfig):
    """Additive rate disturbance at time(s) t, shape (3,) or (N, 3).

    A seeded mixture of equal-amplitude tones spread over [f_lo, f_hi] with
    independent phases per axis; total RMS per axis equals
    amplitude/sqrt(2).
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.zeros((t.size, 3))
    if cfg.amplitude > 0.0 and cfg.n_tones > 0:
        freqs, phases = _vibration_tones(cfg.f_lo, cfg.f_hi, cfg.n_tones,
                                         cfg.seed)
        amp = cfg.amplitude / cfg.n_tones
        for ax in range(3):
            out[:, ax] = amp * np.sum(
                np.sin(2.0 * np.pi * freqs[None, :] * t[:, None] + phases[ax]),
                axis=1,
            )
    return out[0] if scalar else out


class TailsitterSim:
    """Nonlinear closed-loop vehicle advanced at the 1 kHz plant rate.

    Commands (normalized torque 3-vector + collective) arrive at 250 Hz via
    ``set_command`` and are zero-order held; ``step`` advances one 1 ms
    substep through: transport delay -> structural-mode filter on the pitch
    torque channel -> torque scaling and thrust allocation -> motor lag ->
    rigid-body RK4 -> vibration injection -> gyro chain.  Single-threaded,
    stateful; run several instances for parallel scenarios.

    The substep runs on plain floats: the vehicle state is one flat list of
    13 floats (p, v, q, omega) and the delay line holds command tuples, so
    no array or state object is built per substep.  ``state`` is the
    RigidBodyState view of the flat state, built on the first read after a
    step; reading it once per control tick builds it once per tick.
    """

    def __init__(self, params: AircraftParams, table: AeroTable,
                 flex: FlexibleModeParams | None = None,
                 delay_s: float = 0.021,
                 sensor_cfg: SensorConfig = SensorConfig(),
                 vibration_cfg: VibrationConfig = VibrationConfig(),
                 seed: int = 0,
                 state: RigidBodyState | None = None):
        self.params = params
        self.table = table
        self.state = state if state is not None else hover_state(params)
        self.t = 0.0
        self.dt = 1.0 / PLANT_RATE_HZ
        self.sensor = RateSensor(sensor_cfg, seed)
        self.vibration_cfg = vibration_cfg
        self._cmd = (0.0, 0.0, 0.0, float(params.hover_command))
        n_delay = int(round(delay_s * PLANT_RATE_HZ))
        self._delay_buf = [self._cmd] * n_delay
        self._delay_idx = 0
        self._flex = None
        if flex is not None:
            self._flex = discretize_tustin(
                flex.tf(), PLANT_RATE_HZ, prewarp_hz=flex.peak.freq_hz
            )
            # settle the filter at the current (zero) pitch torque
            for _ in range(8):
                self._flex.process(0.0)
        self._torque_scale = tuple(params.torque_scale().tolist())
        # exact first-order motor lag over one substep
        self._motor_decay = math.exp(-self.dt / params.motor_tau_s)
        self._motor_u = _mix(0.0, 0.0, 0.0, float(params.hover_command), params)[:4]
        self.saturated_last = False
        self.aero_clamped_last = False
        self.last_measurement = None

    @property
    def state(self) -> RigidBodyState:
        """The current rigid-body state."""
        if self._state is None:
            self._state = RigidBodyState.from_vector(self._x)
        return self._state

    @state.setter
    def state(self, st: RigidBodyState):
        self._x = st.as_vector().tolist()
        self._state = st

    def set_command(self, torque_norm, thrust_norm):
        """Latch the 250 Hz controller output (normalized units)."""
        tx, ty, tz = (float(t) for t in torque_norm)
        cmd = (tx, ty, tz, float(thrust_norm))
        if not all(map(math.isfinite, cmd)):
            raise SimNumericsError("controller command is non-finite")
        self._cmd = cmd

    def step(self):
        """Advance one 1 ms plant substep.

        Sets ``saturated_last`` (motor mixer saturated), ``aero_clamped_last``
        (an aero query of the substep clamped to the table edge) and
        ``last_measurement`` (the 250 Hz gyro sample on decimation ticks,
        None otherwise).
        """
        cmd = self._cmd
        buf = self._delay_buf
        if buf:
            i = self._delay_idx
            cmd, buf[i] = buf[i], cmd
            self._delay_idx = (i + 1) % len(buf)
        tx, ty, tz, thrust = cmd
        if self._flex is not None:
            ty = self._flex.process(ty)
        sx, sy, sz = self._torque_scale
        *u, self.saturated_last = _mix(sx * tx, sy * ty, sz * tz, thrust, self.params)
        decay = self._motor_decay
        self._motor_u = [c + (m - c) * decay for c, m in zip(u, self._motor_u)]

        self._x, self.aero_clamped_last = _rk4(
            self._x, _propeller_wrench(self._motor_u, self.params), self.dt,
            self.params, self.table)
        self._state = None
        self.t += self.dt

        wx, wy, wz = self._x[10:13]
        if self.vibration_cfg.amplitude > 0.0:
            vib = rotor_vibration(self.t, self.vibration_cfg).tolist()
            wx, wy, wz = wx + vib[0], wy + vib[1], wz + vib[2]
        out = self.sensor._sample(wx, wy, wz)
        self.last_measurement = None if out is None else np.array(out)

    def altitude(self):
        return -self._x[2]

    def v_z(self):
        """Vertical velocity, NED down-positive."""
        return self._x[5]

    @property
    def motor_states(self):
        """Actual (lagged) normalized motor outputs."""
        return np.array(self._motor_u)
