"""Cascaded flight controllers: attitude P-loop, 250 Hz rate loop with
PID + notch, and altitude dual loop with feedforward thrust solve.

The rate loop applies the derivative to the measurement (not the error) to
avoid setpoint kick on step commands, clamps its output with conditional
anti-windup on the integrator, and runs the notch as a prewarped biquad.
All controller state is explicit; identical input sequences produce
identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quat
from .biquad import discretize_tustin
from .lti import ContinuousTF, butterworth2, notch, pid_tf, tf_series
from .plant import CONTROL_RATE_HZ, AeroTable, AircraftParams, aero_forces

__all__ = [
    "NotchConfig",
    "RateLoopConfig",
    "AttitudeLoopConfig",
    "AltitudeLoopConfig",
    "RateController",
    "AttitudeController",
    "AltitudeController",
    "altitude_ff_thrust",
    "default_notch_config",
]


@dataclass(frozen=True)
class NotchConfig:
    """Notch placement for one axis: center and the width/depth shape pair."""

    center_hz: float
    k1: float
    k2: float

    def __post_init__(self):
        if self.center_hz <= 0.0 or not self.k1 > self.k2 > 0.0:
            raise ValueError("need center_hz > 0 and k1 > k2 > 0")

    def tf(self) -> ContinuousTF:
        return notch(self.center_hz, self.k1, self.k2)


def default_notch_config(center_hz: float | None = None) -> NotchConfig:
    """Stock notch for the identified 14 Hz mode.

    k1/k2 are calibrated against the design constraints: about 5 degrees of
    phase lag at 7 Hz and enough depth to pull the structural peak of the
    reference plant below -3 dB in the designed open loop.
    """
    if center_hz is None:
        center_hz = 1.0 / math.sqrt(0.000129) / (2.0 * math.pi)
    return NotchConfig(center_hz, 0.15, 0.018)


@dataclass(frozen=True)
class RateLoopConfig:
    """Per-axis PID gains, derivative filter, optional notches and limits.

    The loop runs at the 250 Hz control rate (``plant.CONTROL_RATE_HZ``),
    the identification conditions.  Torque output is in normalized units,
    the same channel the plant model was identified against;
    ``integrator_limit`` bounds the integral state (rad), ``output_limit``
    the commanded torque.
    """

    kp: tuple[float, float, float] = (0.09, 0.09, 0.09)
    ki: tuple[float, float, float] = (0.1, 0.1, 0.1)
    kd: tuple[float, float, float] = (0.01, 0.01, 0.01)
    deriv_corner_hz: float = 18.0
    notches: tuple[NotchConfig | None, ...] = (None, None, None)
    integrator_limit: float = 1.0
    output_limit: float = 1.0

    def __post_init__(self):
        for name in ("kp", "ki", "kd"):
            g = np.asarray(getattr(self, name), dtype=float)
            if g.shape != (3,) or np.any(g < 0.0):
                raise ValueError(f"{name} must be three nonnegative gains")
        if self.deriv_corner_hz <= 0.0:
            raise ValueError("deriv_corner_hz must be > 0")
        if self.integrator_limit <= 0.0 or self.output_limit <= 0.0:
            raise ValueError("limits must be > 0")
        if len(self.notches) != 3:
            raise ValueError("need one notch slot per axis")

    @classmethod
    def reference_pitch_design(cls) -> "RateLoopConfig":
        """Stock loop-shaping design: PID gains with the pitch-axis notch."""
        return cls(notches=(None, default_notch_config(), None))

    def axis_compensator_tf(self, axis: int) -> ContinuousTF:
        """Continuous compensator C(s) of one axis (PID cascaded with notch)."""
        c = pid_tf(self.kp[axis], self.ki[axis], self.kd[axis], self.deriv_corner_hz)
        n = self.notches[axis]
        return tf_series(c, n.tf()) if n is not None else c


class RateController:
    """250 Hz angular-velocity loop: PID with filtered derivative plus notch.

    The derivative branch kd*s*B(s) acts on the measurement; the notch
    filters the summed output so the loop transfer matches the continuous
    design C = PID * N.  Integration halts while the output is clamped in
    the same direction (conditional anti-windup).
    """

    def __init__(self, cfg: RateLoopConfig):
        self.cfg = cfg
        self.dt = 1.0 / CONTROL_RATE_HZ
        b = butterworth2(cfg.deriv_corner_hz)
        # kd s B(s) is proper (degree 1 over 2) and discretizes per axis
        self._deriv = [
            discretize_tustin(
                ContinuousTF(np.convolve([0.0, cfg.kd[i]], b.num), b.den),
                CONTROL_RATE_HZ,
            )
            for i in range(3)
        ]
        self._notch = [
            discretize_tustin(n.tf(), CONTROL_RATE_HZ, prewarp_hz=n.center_hz)
            if n is not None
            else None
            for n in cfg.notches
        ]
        self.integrator = np.zeros(3)
        self.saturated = np.zeros(3, dtype=bool)

    def set_notch_enabled(self, enabled: bool, axis: int = 1):
        """Toggle one axis notch mid-run (state resets on enable)."""
        cfg = self.cfg.notches[axis]
        if enabled:
            if cfg is None:
                raise ValueError(f"axis {axis} has no notch configured")
            self._notch[axis] = discretize_tustin(
                cfg.tf(), CONTROL_RATE_HZ, prewarp_hz=cfg.center_hz
            )
        else:
            self._notch[axis] = None

    def step(self, omega_meas, omega_cmd):
        """One 250 Hz tick: measured and commanded body rates -> torque."""
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
            # halt integration only while pushing further into the clamp
            if not (self.saturated[i] and raw * err[i] > 0.0):
                lim = cfg.integrator_limit
                self.integrator[i] = min(max(self.integrator[i] + err[i] * self.dt,
                                             -lim), lim)
            out[i] = clamped
        return out


@dataclass(frozen=True)
class AttitudeLoopConfig:
    """Proportional gains (1/s) from half-angle attitude error to rate command."""

    gains: tuple[float, float, float] = (4.0, 4.0, 2.0)

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=float)
        if g.shape != (3,) or np.any(g <= 0.0):
            raise ValueError("attitude gains must be three positive values")


class AttitudeController:
    """Stateless attitude P-loop around the quaternion error.

    The rate command (rad/s) is ``gains * xi`` elementwise, with xi the
    half-angle error of ``quat.attitude_error``; the config's positive
    gains turn the current attitude toward the desired one.
    """

    def __init__(self, cfg: AttitudeLoopConfig):
        self.cfg = cfg
        self.gains = np.asarray(cfg.gains, dtype=float)

    def step(self, q_meas: quat.Quaternion, q_cmd: quat.Quaternion):
        return self.gains * quat.attitude_error(q_meas, q_cmd)


@dataclass(frozen=True)
class AltitudeLoopConfig:
    """Altitude P-loop plus vertical-velocity feedforward/PI parallel pair.

    ``ff_gain`` maps desired vertical velocity directly to desired
    acceleration (the model-based feedforward input); the parallel PI
    absorbs the resulting steady-state model mismatch.
    """

    alt_gain: float = 1.0
    ff_gain: float = 1.0
    kp_vz: float = 0.15
    ki_vz: float = 0.05
    v_z_limit: float = 3.0
    min_vertical_authority: float = 0.05

    def __post_init__(self):
        if min(self.alt_gain, self.ff_gain, self.kp_vz, self.ki_vz) < 0.0:
            raise ValueError("gains must be >= 0")
        if self.v_z_limit <= 0.0:
            raise ValueError("v_z_limit must be > 0")


def altitude_ff_thrust(v_zd: float, q: quat.Quaternion, speed: float, alpha: float,
                       cfg: AltitudeLoopConfig, params: AircraftParams,
                       table: AeroTable):
    """Feedforward collective from the vertical force balance.

    Solves  m a_zd = m g + e3.f_aero + r31 T  for the thrust T, where
    a_zd = ff_gain * v_zd and r31 is the vertical component of the body
    thrust axis (negative when thrust points up).  Returns (u_ff, flag)
    with u_ff = thrust_ratio * T clamped to [0, 1]; near-level attitude
    (|r31| below the authority floor) returns the hover command and flags
    it so the feedback path knows the model is silent.
    """
    rot = q.to_rotmat()
    r31 = float(rot[2, 0])
    if abs(r31) < cfg.min_vertical_authority:
        return params.hover_command, "no_vertical_authority"
    a_zd = cfg.ff_gain * v_zd
    f_az = 0.0
    if speed > 1e-9:
        forces = aero_forces(alpha, speed, table, params)
        # velocity direction in body axes from alpha (coordinated flight)
        v_dir_i = rot @ np.array([math.cos(alpha), 0.0, math.sin(alpha)])
        y_b = rot[:, 1]
        y_v = y_b - (y_b @ v_dir_i) * v_dir_i
        n = np.linalg.norm(y_v)
        if n > 1e-9:
            z_v = np.cross(v_dir_i, y_v / n)
            f_az = float(-forces.drag_n * v_dir_i[2] - forces.lift_n * z_v[2])
    t_n = (params.mass * a_zd - params.mass * params.gravity - f_az) / r31
    u = params.thrust_ratio * t_n
    flag = ""
    if not 0.0 <= u <= 1.0:
        u = min(max(u, 0.0), 1.0)
        flag = "thrust_clamped"
    return float(u), flag


class AltitudeController:
    """Altitude loop: P to vertical-velocity command, feedforward + PI to thrust.

    Altitude and its command are up-positive meters; vertical velocity is
    NED down-positive to match the state convention.  Thrust authority is
    assumed to point upward (r31 < 0, the tail-sitter envelope).
    """

    def __init__(self, cfg: AltitudeLoopConfig, params: AircraftParams,
                 table: AeroTable):
        self.cfg = cfg
        self.params = params
        self.table = table
        self.dt = 1.0 / CONTROL_RATE_HZ
        self.integrator = 0.0

    def step(self, alt_meas: float, alt_cmd: float, v_z_meas: float,
             q: quat.Quaternion, speed: float, alpha: float):
        """One 250 Hz tick -> (thrust_cmd in [0, 1], flags)."""
        cfg = self.cfg
        v_zd = cfg.alt_gain * (alt_meas - alt_cmd)  # down-positive command
        v_zd = min(max(v_zd, -cfg.v_z_limit), cfg.v_z_limit)
        u_ff, flag = altitude_ff_thrust(v_zd, q, speed, alpha, cfg,
                                        self.params, self.table)
        err = v_z_meas - v_zd  # positive = sinking faster than commanded
        u = u_ff + cfg.kp_vz * err + cfg.ki_vz * self.integrator
        clamped = min(max(u, 0.0), 1.0)
        saturated = clamped != u
        if not (saturated and (u - clamped) * err > 0.0):
            self.integrator += err * self.dt
        flags = tuple(f for f in (flag, "thrust_saturated" if saturated else "") if f)
        return clamped, flags
