"""Simulation plant for the quadrotor tail-sitter.

Two plants back the closed-loop experiments:

* ``TailsitterSim`` - nonlinear rigid body in NED coordinates (z down) with
  table-lookup aerodynamic forces, quadrotor thrust allocation, first-order
  motor lag, an optional structural-resonance filter on the pitch torque
  path, actuation transport delay, and a 1 kHz gyro measurement chain.
* ``LinearAxisPlant`` - a single-axis discrete realization of the
  identified plant ``fitted_plant(p)`` (torque command in, measured rate
  out), used for frequency-domain-faithful loop verification.  It is built
  from the plant-rate Tustin cascade and runs at the control rate: one
  update per tick, exact for the held command (``tests/oracles.py`` keeps
  the cascade run sample by sample as its reference).

They are not interchangeable.  The structural modes and the delay agree,
but the pitch axis of ``TailsitterSim``, identified as the pipeline
identifies ``LinearAxisPlant``, fits a numerator with its zeros near 71 Hz,
where the reference transfer function has them at 21.7 and 22.3 Hz; those
zeros give the linear plant about 40 degrees of phase lead at 8 Hz that the
rigid body lacks (measured in ROADMAP.md).  Both are deterministic under
a fixed seed.

The command hold has one home, here.  Both plants are models at
``PLANT_RATE_HZ`` and their ``step`` advances one control tick: it holds the
command over ``SUBSTEPS`` plant samples and returns the measurement at the
end of the tick.  ``TailsitterSim`` integrates the substeps one by one;
``LinearAxisPlant`` is linear, so its constructor lifts the held substeps
into one control-rate update.  ``hold_response`` is that staircase in the
frequency domain, the zero-order hold the identification divides out of the
FRF.  No other module names the plant rate or the substep count.

The transport delay has its home here too: ``biquad`` realizes rational
sections only, and both plants round the delay to ``round(delay_s *
PLANT_RATE_HZ)`` plant samples, a line of commands in ``TailsitterSim`` and
whole ticks plus a lead in ``LinearAxisPlant``.

The 1 kHz substep of ``TailsitterSim`` is a scalar kernel: the vehicle state
is one flat list of 13 floats (NED position and velocity, the attitude
quaternion, body rates) and every stage of the substep (delay line, flex
biquad, torque scaling, mixer headroom scaling, motor lag, the rigid-body
derivatives, the RK4 combine and renormalization, and the gyro chain) runs
on plain floats.  ``step_dynamics`` unpacks the state once and forms each
RK4 stage input as ``a + h * b`` on float locals; ``_derivatives`` takes
the 10 floats it reads (velocity, quaternion, rates) and returns their 10
derivatives, the position derivative being the stage velocity, so no
list is built per stage and the new state is the one list per substep.
The mixer is 4-motor scalar arithmetic, the motor lag a 4-tuple, and the
aero lookup clamps by comparison against edges held on the table; each
writes out the ``min``/``max`` calls it replaced with the same result bit
for bit, NaN and signed zeros included.  ``tests/oracles.py`` keeps the
list forms of the lookup, the mixer and the RK4 step as references.
The kernel shares its body-frame math with the 250 Hz tick of
``sim.run_nonlinear`` and the altitude feedforward: ``quat.rotation_rows``,
``air_data`` and ``aero_force_ned``.  Each stage has one form, under its
public name: ``mixer``, ``step_dynamics``, ``aero_forces`` and
``RateSensor.process`` take and return floats, and ``TailsitterSim.step``
calls them by those names, so the property tests exercise the code the
simulator runs.  ``hover_state`` and ``TailsitterSim.x`` hold the state as
the same 13-float list.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import quat
from .biquad import BiquadSection, discretize_tustin
from .lti import (ContinuousTF, PlantFitParams, ResonanceParams, butterworth2,
                  fitted_plant, tf_series)

__all__ = [
    "AircraftParams",
    "AeroTable",
    "FlexibleModeParams",
    "SensorConfig",
    "VibrationConfig",
    "SimNumericsError",
    "default_aero_table",
    "aero_forces",
    "mixer",
    "step_dynamics",
    "hover_state",
    "LinearAxisPlant",
    "check_plant_peak",
    "check_linear_axis_plant",
    "hold_response",
    "RateSensor",
    "rotor_vibration",
    "TailsitterSim",
]

PLANT_RATE_HZ = 1000.0
CONTROL_RATE_HZ = 250.0
SUBSTEPS = round(PLANT_RATE_HZ / CONTROL_RATE_HZ)  # plant steps per control tick
CONTROL_DT = 1.0 / CONTROL_RATE_HZ
# relative error a LinearAxisPlant's control-rate sections may carry against
# the held impulse response of the plant-rate cascade they realize
LIFT_TOL = 1e-9
# Bits of the telemetry flags column: rate-loop saturation, thrust
# saturation, the no-vertical-authority feedforward fallback, motor-command
# saturation in any substep of the tick, an aero query clamped to the table
# edge in any substep of the tick, feedforward thrust clamped to [0, 1], and
# the feedforward's own aero query clamped to the table edge.  Bits are
# append-only: a bit keeps its meaning once assigned.
FLAG_RATE_SAT = 1
FLAG_THRUST_SAT = 2
FLAG_NO_AUTHORITY = 4
FLAG_MOTOR_SAT = 8
FLAG_AERO_CLAMP = 16
FLAG_FF_CLAMP = 32
FLAG_FF_AERO_CLAMP = 64
# Shape of the analytic aero table: finite-wing lift slope (1/rad), stall
# angle and blend width (rad), zero-lift drag and induced-drag factor.
LIFT_SLOPE = 4.73
ALPHA_STALL = 0.2618
BLEND_WIDTH = 0.0873
CD0 = 0.03
INDUCED_FACTOR = 0.0654


def check_plant_peak(p: PlantFitParams, where: str):
    """Reject a plant whose structural modes, Tustin sections at
    ``PLANT_RATE_HZ``, lie at or above half the plant rate.  ``where`` names
    the parameters' config field in the ValueError."""
    for mode in ("peak", "anti"):
        if not getattr(p, mode).freq_hz < 0.5 * PLANT_RATE_HZ:
            raise ValueError(f"{where}.{mode}.freq_hz: must lie below "
                             f"{0.5 * PLANT_RATE_HZ:g} Hz, half the plant rate")


def check_linear_axis_plant(p: PlantFitParams, where: str):
    """Reject a plant ``LinearAxisPlant`` cannot build, such as
    one whose poles coincide at the control rate; run ``check_plant_peak``
    first.  ``where`` names the parameters' config field in the ValueError."""
    error = _unrealizable(p)
    if error is not None:
        raise ValueError(f"{where}: {error}")


@lru_cache(maxsize=16)
def _unrealizable(p: PlantFitParams):
    """Why ``LinearAxisPlant(p)`` fails, or None; a float
    overflow while building it fails it too.  Memoized: the builtin
    scenarios, rebuilt on every run by name, check the same plants."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            LinearAxisPlant(p)
    except (ValueError, ArithmeticError) as e:
        return str(e)
    return None


def hold_response(freqs):
    """Frequency response of the control-rate command hold at the plant rate.

    A command latched at tick t_k drives the ``SUBSTEPS`` plant samples over
    (t_k, t_k + CONTROL_DT]: the zero-order hold of Franklin, Powell &
    Workman (Digital Control of Dynamic Systems, ch. 6) as a staircase at
    ``PLANT_RATE_HZ``, whose centroid sits half a plant sample later than a
    continuous hold's.
    """
    f = np.asarray(freqs, dtype=float)
    s = SUBSTEPS
    theta = 2.0 * np.pi * f / PLANT_RATE_HZ
    return (np.exp(-0.5j * theta * (s + 1))
            * np.sin(0.5 * s * theta) / (s * np.sin(0.5 * theta)))


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
        if not (self.mass > 0.0 and self.wing_area > 0.0):
            raise ValueError("mass and wing area must be positive")
        if not self.motor_tau_s > 0.0:
            raise ValueError("motor_tau_s must be positive")
        if not 0.0 < self.gravity < math.inf:
            raise ValueError("gravity must be positive and finite")
        inertia = np.array(self.inertia, dtype=float)
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
        pos = np.array(self.rotor_positions, dtype=float)
        if pos.shape != (4, 3):
            raise ValueError("rotor_positions must be 4x3")
        object.__setattr__(self, "rotor_positions", pos)
        pos.flags.writeable = False
        # the allocation maps motor commands to (total thrust N, torque N m
        # x/y/z); reject degenerate geometry at construction time
        c = self.motor_thrust_coeff
        s = np.asarray(self.spin_directions, dtype=float)
        a = np.array([c * np.ones(4), c * self.rotor_torque_ratio * s,
                      c * pos[:, 2], -c * pos[:, 1]])
        if np.linalg.cond(a) > 1e6:
            raise ValueError("rotor geometry gives a singular thrust allocation")
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


class AeroTable:
    """Rectangular (alpha, V) grid of lift/drag coefficients, bilinear lookup.

    alpha spans [-pi, pi] rad; queries outside the grid clamp to the edge and
    report it.  Interpolation reproduces grid nodes exactly.  The lookup runs
    on float lists: the edge values, the last cell index of each axis and
    the node spacings are held at construction, so a query costs two range
    comparisons, two ``bisect_right`` calls and the bilinear weights.  A NaN
    query lands in the last cell, gives NaN coefficients and reports a clamp.
    """

    def __init__(self, alpha_grid, v_grid, cl, cd):
        self.alpha_grid = np.array(alpha_grid, dtype=float)
        self.v_grid = np.array(v_grid, dtype=float)
        self.cl = np.array(cl, dtype=float)
        self.cd = np.array(cd, dtype=float)
        if self.alpha_grid.size < 2 or self.v_grid.size < 2:
            raise ValueError("grids need at least two nodes each")
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
        self._alphas = alphas = self.alpha_grid.tolist()
        self._vs = vs = self.v_grid.tolist()
        self._cl = self.cl.tolist()
        self._cd = self.cd.tolist()
        self._da = [b - a for a, b in zip(alphas, alphas[1:])]
        self._dv = [b - a for a, b in zip(vs, vs[1:])]
        self._edges = (alphas[0], alphas[-1], vs[0], vs[-1],
                       len(alphas) - 2, len(vs) - 2)

    def interpolate(self, alpha, v):
        """(CL, CD, clamped) at one query point."""
        a_lo, a_hi, v_lo, v_hi, i_last, j_last = self._edges
        clamped = not (a_lo <= alpha <= a_hi and v_lo <= v <= v_hi)
        if clamped:  # min(max(x, lo), hi), NaN and signed zeros included
            alpha = a_lo if a_lo > alpha else a_hi if a_hi < alpha else alpha
            v = v_lo if v_lo > v else v_hi if v_hi < v else v
        alphas, vs = self._alphas, self._vs
        i = bisect_right(alphas, alpha) - 1
        if i > i_last:
            i = i_last
        j = bisect_right(vs, v) - 1
        if j > j_last:
            j = j_last
        ta = (alpha - alphas[i]) / self._da[i]
        tv = (v - vs[j]) / self._dv[j]
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


def aero_forces(alpha, v, table: AeroTable, params: AircraftParams):
    """(lift N, drag N, clamped): L = 1/2 rho V^2 S CL(a, V), same for drag.

    Ground speed stands in for airspeed (small-wind assumption).
    """
    cl, cd, clamped = table.interpolate(alpha, v)
    q = 0.5 * params.air_density * v * v * params.wing_area
    return q * cl, q * cd, clamped


def air_data(rot, vx, vy, vz):
    """(alpha rad, speed m/s) of the NED velocity, both zero below 1e-9 m/s.

    alpha is atan2 of the body z and x components of R^T v; ``rot`` holds
    the rows of R, as ``quat.rotation_rows`` returns them.
    """
    speed = math.sqrt(vx * vx + vy * vy + vz * vz)
    if speed < 1e-9:
        return 0.0, 0.0
    (r00, _, r02), (r10, _, r12), (r20, _, r22) = rot
    return (math.atan2(r02 * vx + r12 * vy + r22 * vz, r00 * vx + r10 * vy + r20 * vz),
            speed)


def aero_force_ned(rot, ax, ay, az, alpha, speed, table: AeroTable,
                   params: AircraftParams):
    """(fx, fy, fz N in NED, clamped) of the table lift and drag at (alpha, speed).

    The force is (-D, 0, -L) in the velocity frame: x_v = (ax, ay, az) is the
    unit airflow direction in NED, and z_v lies in the aircraft symmetry plane
    of ``rot`` (coordinated flight keeps body y perpendicular to the airstream).
    """
    lift, drag, clamped = aero_forces(alpha, speed, table, params)
    (_, r01, r02), (_, r11, r12), (_, r21, r22) = rot
    d = r01 * ax + r11 * ay + r21 * az
    bx, by, bz = r01 - d * ax, r11 - d * ay, r21 - d * az
    nb = math.sqrt(bx * bx + by * by + bz * bz)
    if nb < 1e-9:
        # velocity along body y (pure side-slip); the symmetry plane is
        # undefined, so body z x x_v (of unit length here) stands in for it
        bx, by, bz = r12 * az - r22 * ay, r22 * ax - r02 * az, r02 * ay - r12 * ax
        nb = math.sqrt(bx * bx + by * by + bz * bz)
    bx, by, bz = bx / nb, by / nb, bz / nb
    return (-drag * ax - lift * (ay * bz - az * by),
            -drag * ay - lift * (az * bx - ax * bz),
            -drag * az - lift * (ax * by - ay * bx), clamped)


def _headroom_scale(b1, b2, b3, b4, d1, d2, d3, d4):
    """Largest factor in [0, 1] keeping b + f*d inside [0, 1] for all 4 motors.

    A motor whose |d| is at most 1e-12 sets no limit.  The comparisons are
    ``min(f, g)`` and ``max(f, 0.0)`` written out, with the same result for
    NaN and signed zeros.
    """
    f = 1.0
    if d1 > 1e-12 or d1 < -1e-12:
        g = ((1.0 if d1 > 0.0 else 0.0) - b1) / d1
        if g < f:
            f = g
    if d2 > 1e-12 or d2 < -1e-12:
        g = ((1.0 if d2 > 0.0 else 0.0) - b2) / d2
        if g < f:
            f = g
    if d3 > 1e-12 or d3 < -1e-12:
        g = ((1.0 if d3 > 0.0 else 0.0) - b3) / d3
        if g < f:
            f = g
    if d4 > 1e-12 or d4 < -1e-12:
        g = ((1.0 if d4 > 0.0 else 0.0) - b4) / d4
        if g < f:
            f = g
    return 0.0 if 0.0 > f else f


def _clip_unit(x):
    """(min(max(x, 0.0), 1.0), clipped past ``np.allclose``'s tolerance)."""
    if 0.0 > x:
        o = 0.0
    elif 1.0 < x:
        o = 1.0
    else:
        return x, False
    # np.allclose(o, x, atol=1e-12) with its default rtol of 1e-5
    return o, abs(o - x) > 1e-12 + 1e-5 * abs(x)


def mixer(tx, ty, tz, thrust_cmd, params: AircraftParams):
    """(u1, u2, u3, u4, saturated): invert the allocation matrix with
    priority thrust > roll/pitch > yaw.

    (tx, ty, tz) is the physical torque demand (N m); thrust_cmd the
    normalized collective in [0, 1].  When the unsaturated solution leaves
    [0, 1] the roll/pitch group is scaled first, then yaw, and the command
    is flagged; the motor commands are clipped to [0, 1], never silently.
    """
    ((a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33),
     (a40, a41, a42, a43)) = params._alloc_inv_rows
    t = 0.0 if 0.0 > thrust_cmd else thrust_cmd
    thrust_n = (1.0 if 1.0 < t else t) * params.thrust_coeff
    b1, b2, b3, b4 = a10 * thrust_n, a20 * thrust_n, a30 * thrust_n, a40 * thrust_n
    d1, d2, d3, d4 = (a11 * tx + a12 * ty, a21 * tx + a22 * ty,
                      a31 * tx + a32 * ty, a41 * tx + a42 * ty)
    f_rp = _headroom_scale(b1, b2, b3, b4, d1, d2, d3, d4)
    b1, b2, b3, b4 = b1 + f_rp * d1, b2 + f_rp * d2, b3 + f_rp * d3, b4 + f_rp * d4
    d1, d2, d3, d4 = a13 * tz, a23 * tz, a33 * tz, a43 * tz
    f_yaw = _headroom_scale(b1, b2, b3, b4, d1, d2, d3, d4)
    u1, u2, u3, u4 = b1 + f_yaw * d1, b2 + f_yaw * d2, b3 + f_yaw * d3, b4 + f_yaw * d4
    saturated = thrust_cmd < 0.0 or thrust_cmd > 1.0 or f_rp < 1.0 or f_yaw < 1.0
    if 0.0 <= u1 <= 1.0 and 0.0 <= u2 <= 1.0 and 0.0 <= u3 <= 1.0 and 0.0 <= u4 <= 1.0:
        return u1, u2, u3, u4, saturated
    u1, c1 = _clip_unit(u1)
    u2, c2 = _clip_unit(u2)
    u3, c3 = _clip_unit(u3)
    u4, c4 = _clip_unit(u4)
    return u1, u2, u3, u4, saturated or c1 or c2 or c3 or c4


def hover_state(params: AircraftParams, altitude_m=50.0):
    """Nose-up trim as the flat 13-float state: 90 deg pitch, zero velocity,
    at the given altitude."""
    q = quat.euler_zxy_to_quat(quat.EulerZXY(0.0, 0.5 * math.pi, 0.0))
    return [0.0, 0.0, -float(altitude_m), 0.0, 0.0, 0.0, *q, 0.0, 0.0, 0.0]


def _propeller_wrench(u, params: AircraftParams):
    """(total thrust N, roll, pitch, yaw torque N m) of normalized motor commands.

    Every thrust vector is (T_i, 0, 0) in body axes, so the arm torques
    reduce to dot products with the rotor coordinates.
    """
    c = params.motor_thrust_coeff
    u1, u2, u3, u4 = u
    t1, t2, t3, t4 = c * u1, c * u2, c * u3, c * u4
    s1, s2, s3, s4 = params.spin_directions
    (y1, y2, y3, y4), (z1, z2, z3, z4) = params._rotor_yz
    return (t1 + t2 + t3 + t4,
            params.rotor_torque_ratio * (s1 * t1 + s2 * t2 + s3 * t3 + s4 * t4),
            z1 * t1 + z2 * t2 + z3 * t3 + z4 * t4,
            -(y1 * t1 + y2 * t2 + y3 * t3 + y4 * t4))


def _derivatives(vx, vy, vz, qw, qx, qy, qz, wx, wy, wz, wrench,
                 params: AircraftParams, table: AeroTable):
    """d/dt of the velocity, quaternion and rates at fixed thrust, as 10
    floats, then whether an aero query clamped: an 11-tuple.

    The inputs are the NED velocity, the attitude quaternion (eta, ex, ey,
    ez), normalized here, and the body rates; the position derivative is the
    velocity itself, so the caller forms it.
    """
    n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    qw, qx, qy, qz = qw / n, qx / n, qy / n, qz / n
    rot = quat.rotation_rows(qw, qx, qy, qz)
    thrust, tau_x, tau_y, tau_z = wrench
    (r00, _, _), (r10, _, _), (r20, _, _) = rot
    fx, fy, fz = r00 * thrust, r10 * thrust, r20 * thrust

    clamped = False
    alpha, speed = air_data(rot, vx, vy, vz)
    if speed > 0.0:
        fax, fay, faz, clamped = aero_force_ned(rot, vx / speed, vy / speed,
                                                vz / speed, alpha, speed, table, params)
        fx, fy, fz = fx + fax, fy + fay, fz + faz

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
    return (fx / m, fy / m, params.gravity + fz / m,
            0.5 * (-qx * wx - qy * wy - qz * wz),
            0.5 * (qw * wx + qy * wz - qz * wy),
            0.5 * (qw * wy - qx * wz + qz * wx),
            0.5 * (qw * wz + qx * wy - qy * wx),
            j00 * mx + j01 * my + j02 * mz,
            j10 * mx + j11 * my + j12 * mz,
            j20 * mx + j21 * my + j22 * mz, clamped)


def step_dynamics(x, motors, dt, params: AircraftParams, table: AeroTable):
    """One RK4 step of the flat 13-float state with the 4 normalized motor
    commands ``motors`` held: (new state list, any aero query clamped).

    The state is unpacked once; each stage input is ``a + h * b`` on floats
    and the position derivative of a stage is its input velocity.  The motor
    lag, when simulated, lives in TailsitterSim.  Raises SimNumericsError on
    a non-finite result; the quaternion is renormalized after the step.
    """
    wrench = _propeller_wrench(motors, params)
    px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = x
    h = 0.5 * dt
    (ax1, ay1, az1, dqw1, dqx1, dqy1, dqz1, dwx1, dwy1, dwz1,
     c1) = _derivatives(vx, vy, vz, qw, qx, qy, qz, wx, wy, wz, wrench, params, table)
    vx2, vy2, vz2 = vx + h * ax1, vy + h * ay1, vz + h * az1
    (ax2, ay2, az2, dqw2, dqx2, dqy2, dqz2, dwx2, dwy2, dwz2,
     c2) = _derivatives(vx2, vy2, vz2,
                        qw + h * dqw1, qx + h * dqx1, qy + h * dqy1, qz + h * dqz1,
                        wx + h * dwx1, wy + h * dwy1, wz + h * dwz1,
                        wrench, params, table)
    vx3, vy3, vz3 = vx + h * ax2, vy + h * ay2, vz + h * az2
    (ax3, ay3, az3, dqw3, dqx3, dqy3, dqz3, dwx3, dwy3, dwz3,
     c3) = _derivatives(vx3, vy3, vz3,
                        qw + h * dqw2, qx + h * dqx2, qy + h * dqy2, qz + h * dqz2,
                        wx + h * dwx2, wy + h * dwy2, wz + h * dwz2,
                        wrench, params, table)
    vx4, vy4, vz4 = vx + dt * ax3, vy + dt * ay3, vz + dt * az3
    (ax4, ay4, az4, dqw4, dqx4, dqy4, dqz4, dwx4, dwy4, dwz4,
     c4) = _derivatives(vx4, vy4, vz4,
                        qw + dt * dqw3, qx + dt * dqx3, qy + dt * dqy3, qz + dt * dqz3,
                        wx + dt * dwx3, wy + dt * dwy3, wz + dt * dwz3,
                        wrench, params, table)
    h = dt / 6.0
    out = [px + h * (vx + 2.0 * vx2 + 2.0 * vx3 + vx4),
           py + h * (vy + 2.0 * vy2 + 2.0 * vy3 + vy4),
           pz + h * (vz + 2.0 * vz2 + 2.0 * vz3 + vz4),
           vx + h * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4),
           vy + h * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4),
           vz + h * (az1 + 2.0 * az2 + 2.0 * az3 + az4),
           qw + h * (dqw1 + 2.0 * dqw2 + 2.0 * dqw3 + dqw4),
           qx + h * (dqx1 + 2.0 * dqx2 + 2.0 * dqx3 + dqx4),
           qy + h * (dqy1 + 2.0 * dqy2 + 2.0 * dqy3 + dqy4),
           qz + h * (dqz1 + 2.0 * dqz2 + 2.0 * dqz3 + dqz4),
           wx + h * (dwx1 + 2.0 * dwx2 + 2.0 * dwx3 + dwx4),
           wy + h * (dwy1 + 2.0 * dwy2 + 2.0 * dwy3 + dwy4),
           wz + h * (dwz1 + 2.0 * dwz2 + 2.0 * dwz3 + dwz4)]
    if not all(map(math.isfinite, out)):
        raise SimNumericsError("state became non-finite during integration")
    qw, qx, qy, qz = out[6:10]
    n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    out[6:10] = qw / n, qx / n, qy / n, qz / n
    return out, c1 or c2 or c3 or c4


def _filtered(section: BiquadSection, xs):
    """Output list of ``section`` run from rest over the input list ``xs``
    (Direct Form II transposed); the section's own state is not touched."""
    b0, b1, b2, a1, a2 = section.coefficients()
    z1 = z2 = 0.0
    out = []
    for x in xs:
        y = b0 * x + z1
        z1 = b1 * x - a1 * y + z2
        z2 = b2 * x - a2 * y
        out.append(y)
    return out


class LinearAxisPlant:
    """Stateful single-axis plant ``fitted_plant(p)``, realized at the
    control rate by ``LinearAxisPlant(p)``.

    Maps a normalized torque command, held over one control tick, to the
    measured rate at the end of the tick, transport delay included.  The
    rational part is discretized at ``PLANT_RATE_HZ`` first, in Tustin
    sections prewarped at ``p.peak.freq_hz`` to keep the structural peak on
    its continuous frequency; the delay rounds to whole plant samples, as in
    ``TailsitterSim``.  The held input and the end-of-tick sample make that
    map linear and time-invariant at ``CONTROL_RATE_HZ`` ("lifting", Chen &
    Francis, Optimal Sampled-Data Control Systems, 1995), and the
    constructor realizes it exactly, so ``step`` makes one update per tick:

    * the delay splits into ``delay_ticks`` whole ticks, a delay line, and
      a lead of fewer than ``SUBSTEPS`` plant samples;
    * each section 1 + a1 z^-1 + a2 z^-2 with poles p lifts, without root
      finding, to the section with poles p**4 (``SUBSTEPS`` = 4): its z^-2
      coefficient is a2**4 and its value at z = 1 is D(1) D(-1) |D(i)|**2,
      the product over the four fourth roots of 1, which keeps a pole at or
      near z = 1 (the integrator) where rounding would move it;
    * the rest is a parallel sum, one ``sections`` entry b0 + b1 z^-1 over
      each lifted denominator plus the ``direct`` tap.  The held impulse
      response, the lead included, is a sum of the lifted modes from its
      second tick on, so these n unknowns solve its first 2n ticks exactly;
      the extra ticks condition the solve.

    A plant this cannot realize, for example one whose lifted poles
    coincide, raises ValueError here: the solve's condition number times
    the rounding unit, and its misfit relative to the held response, must
    both stay within ``LIFT_TOL``.
    """

    def __init__(self, p: PlantFitParams):
        tf = fitted_plant(p)
        cascade = discretize_tustin(ContinuousTF(tf.num, tf.den), PLANT_RATE_HZ,
                                    prewarp_hz=p.peak.freq_hz)
        self.delay_ticks, lead = divmod(round(p.delay_s * PLANT_RATE_HZ), SUBSTEPS)
        self.sections = []
        for s in cascade.sections:
            a1, a2 = s.a1, s.a2
            if a1 == a2 == 0.0:
                continue  # no pole: the direct tap carries it
            a2_lifted = (a2 * a2) ** 2
            at_one = (1.0 + a1 + a2) * (1.0 - a1 + a2) * ((1.0 - a2) ** 2 + a1 * a1)
            self.sections.append(BiquadSection(1.0, 0.0, 0.0, at_one - 1.0 - a2_lifted,
                                               a2_lifted))
        # held impulse response: a unit command held over one tick, after
        # the whole-tick delay, sampled at the end of each tick
        n = sum(2 if s.a2 != 0.0 else 1 for s in self.sections) + 1
        ticks = 2 * n
        x = [0.0] * (SUBSTEPS * ticks)
        x[lead:lead + SUBSTEPS] = [1.0] * SUBSTEPS
        for s in cascade.sections:
            x = _filtered(s, x)
        held = np.array(x[SUBSTEPS - 1::SUBSTEPS])
        # one column per unknown: each section's impulse response, delayed
        # by a tick for b1, and the direct tap
        impulse = [1.0] + [0.0] * (ticks - 1)
        columns = []
        for s in self.sections:
            h = _filtered(s, impulse)
            columns.append(h)
            if s.a2 != 0.0:
                columns.append([0.0] + h[:-1])
        columns.append(impulse)
        basis = np.array(columns).T
        coef, _, _, sv = np.linalg.lstsq(basis, held)
        misfit = np.max(np.abs(basis @ coef - held))
        if not (sv[0] * np.finfo(float).eps <= LIFT_TOL * sv[-1]
                and misfit <= LIFT_TOL * np.max(np.abs(held))):
            raise ValueError("the plant has no parallel realization at the control "
                             "rate: two of its poles coincide, or nearly, once "
                             f"lifted to {CONTROL_RATE_HZ:g} Hz")
        coef = coef.tolist()
        for s in self.sections:
            s.b0 = coef.pop(0)
            if s.a2 != 0.0:
                s.b1 = coef.pop(0)
        (self.direct,) = coef
        self._delay = deque([0.0] * self.delay_ticks)

    def step(self, u: float) -> float:
        """Hold ``u`` over one control tick; the rate at the end of the tick.

        One pass of the delay line and the parallel sections, each in Direct
        Form II transposed with b2 = 0.
        """
        delay = self._delay
        delay.append(float(u))
        u = delay.popleft()
        y = self.direct * u
        for s in self.sections:
            v = s.b0 * u + s._z1
            s._z1 = s.b1 * u - s.a1 * v + s._z2
            s._z2 = -s.a2 * v
            y += v
        return y

    def response(self, freq_hz):
        """Complex response at freq_hz (vectorized) of the 250 Hz map from
        the held command to the end-of-tick rate, from its own coefficients."""
        f = np.asarray(freq_hz, dtype=float)
        h = self.direct + sum(s.response(f, CONTROL_RATE_HZ) for s in self.sections)
        return h * np.exp(-2j * np.pi * f * self.delay_ticks / CONTROL_RATE_HZ)


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

    The chain decimates from the plant rate to the control rate.  Its filter
    is the unprewarped Tustin form of a second-order Butterworth, which warps
    the corner down: the -3 dB point of the default 100 Hz lies at 96.9 Hz,
    and a 600 Hz request would land at 344.8 Hz.  So ``corner_hz`` must lie
    below half ``PLANT_RATE_HZ``, as a plant peak must.
    """

    gyro_noise_std: float = 0.005
    corner_hz: float = 100.0

    def __post_init__(self):
        if not self.gyro_noise_std >= 0.0:
            raise ValueError("gyro_noise_std must be >= 0")
        if not 0.0 < self.corner_hz < 0.5 * PLANT_RATE_HZ:
            raise ValueError(f"corner_hz must lie in (0, {0.5 * PLANT_RATE_HZ:g}) Hz, "
                             "below half the plant rate")


class RateSensor:
    """1 kHz true rates -> filtered measured rates, deterministic under seed.

    The chain runs at the fixed ``PLANT_RATE_HZ``; ``TailsitterSim.step``
    keeps the sample at the end of each control tick, the decimation to
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
        self._noise = []
        self._noise_at = 0

    def process(self, wx, wy, wz):
        """Feed one 1 kHz sample of true rates; the filtered measurement as
        a 3-tuple of floats."""
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
        return fx.process(wx), fy.process(wy), fz.process(wz)


@dataclass(frozen=True)
class VibrationConfig:
    """Rotor-induced rate disturbance: tones confined to [75, 90] Hz."""

    amplitude: float = 0.0
    f_lo: float = 75.0
    f_hi: float = 90.0
    n_tones: int = 5
    seed: int = 0

    def __post_init__(self):
        if not self.amplitude >= 0.0:
            raise ValueError("amplitude must be >= 0")


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
    """Nonlinear closed-loop vehicle integrated at the 1 kHz plant rate.

    ``step`` advances one 250 Hz control tick: it holds the normalized
    command (torque 3-vector + collective) over ``SUBSTEPS`` 1 ms substeps,
    each through: transport delay -> structural-mode filter on the pitch
    torque channel -> torque scaling and thrust allocation -> motor lag ->
    rigid-body RK4 -> vibration injection -> gyro chain, and returns the
    gyro sample of the tick's last substep.  Single-threaded, stateful; run
    several instances for parallel scenarios.

    The substep runs on plain floats: the vehicle state ``x`` is one flat
    list of 13 floats (NED position and velocity, the attitude quaternion,
    body rates), replaced by each substep, the delay line holds command
    tuples and the motor lag is a 4-tuple, so no array or state object is
    built per substep.  ``state``, when given, is the initial ``x`` in the
    same layout; the default is ``hover_state(params)``.
    """

    def __init__(self, params: AircraftParams, table: AeroTable,
                 flex: FlexibleModeParams | None = None,
                 delay_s: float = PlantFitParams.delay_s,
                 sensor: SensorConfig = SensorConfig(),
                 vibration: VibrationConfig = VibrationConfig(),
                 seed: int = 0,
                 state: list[float] | None = None):
        self.params = params
        self.table = table
        self.x = list(state) if state is not None else hover_state(params)
        self.t = 0.0
        self.dt = 1.0 / PLANT_RATE_HZ
        self.sensor = RateSensor(sensor, seed)
        self.vibration = vibration
        self._vibrating = vibration.amplitude > 0.0
        n_delay = round(delay_s * PLANT_RATE_HZ)
        self._delay_buf = [(0.0, 0.0, 0.0, float(params.hover_command))] * n_delay
        self._delay_idx = 0
        self._flex = None
        if flex is not None:
            self._flex = discretize_tustin(
                flex.tf(), PLANT_RATE_HZ, prewarp_hz=flex.peak.freq_hz
            )
        self._torque_scale = tuple(params.torque_scale().tolist())
        # exact first-order motor lag over one substep
        self._motor_decay = math.exp(-self.dt / params.motor_tau_s)
        self._motor_u = mixer(0.0, 0.0, 0.0, float(params.hover_command), params)[:4]

    def step(self, torque_norm, thrust_norm):
        """Advance one control tick with the normalized command held.

        Returns (the tick's gyro measurement as a 3-tuple of floats, flag
        bits): ``FLAG_MOTOR_SAT`` when the mixer saturated in any substep and
        ``FLAG_AERO_CLAMP`` when an aero query clamped to the table edge in
        any substep.  Raises SimNumericsError on a non-finite command or
        state.
        """
        tx, ty, tz = (float(t) for t in torque_norm)
        held = (tx, ty, tz, float(thrust_norm))
        if not all(map(math.isfinite, held)):
            raise SimNumericsError("controller command is non-finite")
        params = self.params
        buf = self._delay_buf
        flex = self._flex
        sx, sy, sz = self._torque_scale
        decay = self._motor_decay
        dt = self.dt
        motor_sat = aero_clamped = False
        for _ in range(SUBSTEPS):
            cmd = held
            if buf:
                i = self._delay_idx
                cmd, buf[i] = buf[i], cmd
                self._delay_idx = (i + 1) % len(buf)
            tx, ty, tz, thrust = cmd
            if flex is not None:
                ty = flex.process(ty)
            u1, u2, u3, u4, sat = mixer(sx * tx, sy * ty, sz * tz, thrust, params)
            m1, m2, m3, m4 = self._motor_u
            self._motor_u = u = (u1 + (m1 - u1) * decay, u2 + (m2 - u2) * decay,
                                 u3 + (m3 - u3) * decay, u4 + (m4 - u4) * decay)

            x, clamped = step_dynamics(self.x, u, dt, params, self.table)
            self.x = x
            self.t += dt
            motor_sat = motor_sat or sat
            aero_clamped = aero_clamped or clamped

            wx, wy, wz = x[10], x[11], x[12]
            if self._vibrating:
                vib = rotor_vibration(self.t, self.vibration).tolist()
                wx, wy, wz = wx + vib[0], wy + vib[1], wz + vib[2]
            meas = self.sensor.process(wx, wy, wz)
        return meas, ((FLAG_MOTOR_SAT if motor_sat else 0)
                      | (FLAG_AERO_CLAMP if aero_clamped else 0))

    @property
    def motor_states(self):
        """Actual (lagged) normalized motor outputs, as a 4-tuple of floats."""
        return self._motor_u
