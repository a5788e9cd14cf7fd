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
from .lti import ContinuousTF, PlantFitParams, butterworth2, notch
from .plant import (
    CONTROL_DT,
    CONTROL_RATE_HZ,
    FLAG_FF_AERO_CLAMP,
    FLAG_FF_CLAMP,
    FLAG_NO_AUTHORITY,
    FLAG_THRUST_SAT,
    AeroTable,
    AircraftParams,
    aero_force_ned,
)

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
        if not (self.center_hz > 0.0 and self.k1 > self.k2 > 0.0):
            raise ValueError("need center_hz > 0 and k1 > k2 > 0")
        if not self.center_hz < 0.5 * CONTROL_RATE_HZ:
            raise ValueError(f"center_hz must lie below {0.5 * CONTROL_RATE_HZ:g} Hz, "
                             "half the control rate")

    def tf(self) -> ContinuousTF:
        return notch(self.center_hz, self.k1, self.k2)


def default_notch_config(center_hz: float | None = None) -> NotchConfig:
    """Stock notch, centered by default on the reference plant's 14 Hz mode.

    k1/k2 are calibrated against the design constraints: about 5 degrees of
    phase lag at 7 Hz and enough depth to pull the structural peak of the
    reference plant below -3 dB in the designed open loop.
    """
    if center_hz is None:
        center_hz = PlantFitParams.reference().peak.freq_hz
    return NotchConfig(center_hz, 0.15, 0.018)


@dataclass(frozen=True)
class RateLoopConfig:
    """Per-axis PID gains, derivative filter, optional notches and limits.

    The loop runs at the 250 Hz control rate (``plant.CONTROL_RATE_HZ``),
    the identification conditions.  Torque output is in normalized units,
    the same channel the plant model was identified against;
    ``integrator_limit`` bounds the integral state (rad), ``output_limit``
    the commanded torque.  The derivative filter is an unprewarped Tustin
    Butterworth at the control rate, so its corner lies below half of it.
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
        if not 0.0 < self.deriv_corner_hz < 0.5 * CONTROL_RATE_HZ:
            raise ValueError(f"deriv_corner_hz: must lie in (0, {0.5 * CONTROL_RATE_HZ:g}) "
                             "Hz, below half the control rate")
        if not (self.integrator_limit > 0.0 and self.output_limit > 0.0):
            raise ValueError("limits must be > 0")
        if len(self.notches) != 3:
            raise ValueError("need one notch slot per axis")

    @classmethod
    def reference_pitch_design(cls) -> "RateLoopConfig":
        """Stock loop-shaping design: PID gains with the pitch-axis notch."""
        return cls(notches=(None, default_notch_config(), None))


class RateController:
    """250 Hz angular-velocity loop: PID with filtered derivative plus notch.

    The derivative branch kd*s*B(s) acts on the measurement; the notch
    filters the summed output so the loop transfer matches the continuous
    design C = PID * N.  Integration halts while the output is clamped in
    the same direction (conditional anti-windup).
    """

    def __init__(self, cfg: RateLoopConfig):
        self.cfg = cfg
        self.dt = CONTROL_DT
        b = butterworth2(cfg.deriv_corner_hz)
        # kd s B(s) is proper (degree 1 over 2) and discretizes per axis
        self._deriv = [
            discretize_tustin(
                ContinuousTF(np.convolve([0.0, cfg.kd[i]], b.num), b.den),
                CONTROL_RATE_HZ,
            )
            for i in range(3)
        ]
        self._notch = [None, None, None]
        for axis, n in enumerate(cfg.notches):
            self.set_notch_enabled(n is not None, axis)
        self._kp = tuple(float(k) for k in cfg.kp)
        self._ki = tuple(float(k) for k in cfg.ki)
        self._output_limit = float(cfg.output_limit)
        self._integrator_limit = float(cfg.integrator_limit)
        self.integrator = [0.0, 0.0, 0.0]
        self.saturated = [False, False, False]

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
        """One 250 Hz tick: measured and commanded body rates -> torque 3-tuple.

        Runs on plain floats: no array is built per tick.
        """
        mx, my, mz = omega_meas
        cx, cy, cz = omega_cmd
        if not all(map(math.isfinite, (mx, my, mz, cx, cy, cz))):
            raise FloatingPointError("rate controller received non-finite input")
        kp, ki = self._kp, self._ki
        integ, sat = self.integrator, self.saturated
        lim, ilim = self._output_limit, self._integrator_limit
        dt = self.dt
        out = []
        for i, m, e in ((0, mx, cx - mx), (1, my, cy - my), (2, mz, cz - mz)):
            d = self._deriv[i].process(m)
            raw = kp[i] * e + ki[i] * integ[i] - d
            notch = self._notch[i]
            if notch is not None:
                raw = notch.process(raw)
            clamped = min(max(raw, -lim), lim)
            sat[i] = saturated = clamped != raw
            # halt integration only while pushing further into the clamp
            if not (saturated and raw * e > 0.0):
                integ[i] = min(max(integ[i] + e * dt, -ilim), ilim)
            out.append(clamped)
        return tuple(out)


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
        self.gains = tuple(float(g) for g in cfg.gains)

    def step(self, q_meas, q_cmd):
        """Rate command (rad/s) as a 3-tuple of floats, from two quaternion tuples."""
        gx, gy, gz = self.gains
        ex, ey, ez = quat.attitude_error(q_meas, q_cmd)
        return (gx * ex, gy * ey, gz * ez)


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
        if not self.v_z_limit > 0.0:
            raise ValueError("v_z_limit must be > 0")


def altitude_ff_thrust(v_zd: float, q, speed: float, alpha: float,
                       cfg: AltitudeLoopConfig, params: AircraftParams,
                       table: AeroTable):
    """Feedforward collective from the vertical force balance.

    Solves  m a_zd = m g + e3.f_aero + r31 T  for the thrust T, where
    a_zd = ff_gain * v_zd and r31 is the vertical component of the body
    thrust axis of the unit quaternion tuple q (negative when thrust points
    up).  e3.f_aero comes from the plant's own velocity-frame model
    (``plant.aero_force_ned``), fed the coordinated-flight airflow direction
    R (cos alpha, 0, sin alpha).
    Returns (u_ff, bits) with u_ff = thrust_ratio * T clamped to [0, 1] and
    ``FLAG_FF_CLAMP`` set if it was clamped, and ``FLAG_FF_AERO_CLAMP`` set
    if the aero lookup clamped to the table edge; near-level attitude
    (|r31| below the authority floor) returns the hover command with
    ``FLAG_NO_AUTHORITY``, so the feedback path knows the model is silent.
    """
    rot = quat.rotation_rows(*q)
    (r11, _, r13), (r21, _, r23), (r31, _, r33) = rot
    if abs(r31) < cfg.min_vertical_authority:
        return params.hover_command, FLAG_NO_AUTHORITY
    a_zd = cfg.ff_gain * v_zd
    f_az = 0.0
    bits = 0
    if speed > 1e-9:
        ca, sa = math.cos(alpha), math.sin(alpha)
        _, _, f_az, clamped = aero_force_ned(
            rot, r11 * ca + r13 * sa, r21 * ca + r23 * sa, r31 * ca + r33 * sa,
            alpha, speed, table, params)
        if clamped:
            bits = FLAG_FF_AERO_CLAMP
    t_n = (params.mass * a_zd - params.mass * params.gravity - f_az) / r31
    u = params.thrust_ratio * t_n
    if not 0.0 <= u <= 1.0:
        return float(min(max(u, 0.0), 1.0)), bits | FLAG_FF_CLAMP
    return float(u), bits


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
        self.dt = CONTROL_DT
        self.integrator = 0.0

    def step(self, alt_meas: float, alt_cmd: float, v_z_meas: float,
             q, speed: float, alpha: float):
        """One 250 Hz tick -> (thrust_cmd in [0, 1], flag bits)."""
        cfg = self.cfg
        v_zd = cfg.alt_gain * (alt_meas - alt_cmd)  # down-positive command
        v_zd = min(max(v_zd, -cfg.v_z_limit), cfg.v_z_limit)
        u_ff, bits = altitude_ff_thrust(v_zd, q, speed, alpha, cfg,
                                        self.params, self.table)
        err = v_z_meas - v_zd  # positive = sinking faster than commanded
        u = u_ff + cfg.kp_vz * err + cfg.ki_vz * self.integrator
        clamped = min(max(u, 0.0), 1.0)
        saturated = clamped != u
        if not (saturated and (u - clamped) * err > 0.0):
            self.integrator += err * self.dt
        return clamped, (bits | FLAG_THRUST_SAT) if saturated else bits
