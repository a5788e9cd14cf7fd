"""Closed-loop scenario engine: event-scripted runs of the cascaded
controller against either plant, producing the logged arrays every metric
is computed from.  The harness writes them to CSV files that parse back to
the same arrays bit for bit.

The telemetry flags column is the ``plant.FLAG_*`` bitmask, re-exported
here under the same names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quat
from .control import (
    AltitudeController,
    AltitudeLoopConfig,
    AttitudeController,
    AttitudeLoopConfig,
    RateController,
    RateLoopConfig,
)
from .lti import PlantFitParams, fitted_plant
from .plant import (
    CONTROL_DT,
    FLAG_AERO_CLAMP,
    FLAG_FF_AERO_CLAMP,
    FLAG_FF_CLAMP,
    FLAG_MOTOR_SAT,
    FLAG_NO_AUTHORITY,
    FLAG_RATE_SAT,
    FLAG_THRUST_SAT,
    PLANT_RATE_HZ,
    SUBSTEPS,
    AircraftParams,
    FlexibleModeParams,
    LinearAxisPlant,
    SensorConfig,
    SimNumericsError,
    TailsitterSim,
    VibrationConfig,
    air_data,
    default_aero_table,
    hover_state,
)

__all__ = [
    "EVENT_KINDS",
    "CHECK_SUITE_NEEDS",
    "Event",
    "Scenario",
    "SimLog",
    "run_linear_axis",
    "run_nonlinear",
    "SIMLOG_HEADER",
    "TELEMETRY_HEADER",
    "FLAG_RATE_SAT",
    "FLAG_THRUST_SAT",
    "FLAG_NO_AUTHORITY",
    "FLAG_MOTOR_SAT",
    "FLAG_AERO_CLAMP",
    "FLAG_FF_CLAMP",
    "FLAG_FF_AERO_CLAMP",
]

ABORT_LIMIT = 1e6  # rad/s: a linear-axis run stops past this pitch rate

SIMLOG_HEADER = [
    "t", "px", "py", "pz", "vx", "vy", "vz",
    "eta", "ex", "ey", "ez", "wx", "wy", "wz",
    "m1", "m2", "m3", "m4", "sat_flag",
]
TELEMETRY_HEADER = [
    "t",
    "q_cmd_eta", "q_cmd_ex", "q_cmd_ey", "q_cmd_ez",
    "q_meas_eta", "q_meas_ex", "q_meas_ey", "q_meas_ez",
    "w_cmd_x", "w_cmd_y", "w_cmd_z",
    "w_meas_x", "w_meas_y", "w_meas_z",
    "torque_x", "torque_y", "torque_z",
    "thrust_cmd", "flags",
]


# event kind -> (modes it is valid in, args it accepts, args it requires);
# "enabled" is true/false, every other arg a finite number
EVENT_KINDS = {
    "attitude": (("nonlinear",), ("roll", "pitch", "yaw"), ()),
    "pitch_ramp": (("nonlinear",), ("pitch_to", "duration"), ("pitch_to", "duration")),
    "altitude": (("nonlinear",), ("alt",), ("alt",)),
    "rate_cmd": (("linear-axis",), ("x", "y", "z"), ()),
    "notch": (("nonlinear", "linear-axis"), ("enabled",), ("enabled",)),
}

# check suite -> (mode, the event its checks measure, that event's description)
CHECK_SUITE_NEEDS = {
    "notch_ab": ("linear-axis", lambda e: e.kind == "notch" and e.args["enabled"],
                 "a notch event with enabled true"),
    "rate_step": ("linear-axis", lambda e: e.kind == "rate_cmd", "a rate_cmd event"),
    "transition": ("nonlinear", lambda e: e.kind == "attitude" and "pitch" in e.args,
                   "an attitude event with a pitch"),
}


@dataclass(frozen=True)
class Event:
    """One timed command in a scenario script.

    kinds: "attitude" {roll,pitch,yaw rad} | "pitch_ramp" {pitch_to rad,
    duration s} | "altitude" {alt m} | "rate_cmd" {x,y,z rad/s} |
    "notch" {enabled bool}.
    """

    t: float
    kind: str
    args: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.t < 0.0:
            raise ValueError("event time must be >= 0")
        _, accepted, required = EVENT_KINDS[self.kind]
        for k, v in self.args.items():
            if k not in accepted:
                raise ValueError(f"{self.kind} event has unknown arg {k!r}")
            if (isinstance(v, bool) != (k == "enabled")
                    or not isinstance(v, (int, float)) or not math.isfinite(v)):
                want = "true or false" if k == "enabled" else "a finite number"
                raise ValueError(f"{self.kind} event arg {k!r} must be {want}")
        for k in required:
            if k not in self.args:
                raise ValueError(f"{self.kind} event needs arg {k!r}")
        if self.kind == "pitch_ramp" and not self.args["duration"] > 0.0:
            raise ValueError("pitch_ramp event arg 'duration' must be > 0")


@dataclass(frozen=True)
class Scenario:
    """A deterministic scripted run against one plant mode.

    Six fields load from a config key other than their name, stated once in
    the field metadata (``rate_cfg`` is ``rate_loop`` and so on).
    """

    name: str
    mode: str = "nonlinear"  # or "linear-axis"
    duration_s: float = 20.0
    seed: int = 0
    events: tuple[Event, ...] = ()
    rate_cfg: RateLoopConfig = field(
        default_factory=RateLoopConfig.reference_pitch_design,
        metadata={"key": "rate_loop"})
    attitude_cfg: AttitudeLoopConfig = field(
        default_factory=AttitudeLoopConfig, metadata={"key": "attitude_loop"})
    altitude_cfg: AltitudeLoopConfig = field(
        default_factory=AltitudeLoopConfig, metadata={"key": "altitude_loop"})
    params: AircraftParams = field(default_factory=AircraftParams,
                                   metadata={"key": "aircraft"})
    plant_params: PlantFitParams = field(default_factory=PlantFitParams.reference)
    flex_enabled: bool = True
    delay_enabled: bool = True
    sensor_cfg: SensorConfig = field(default_factory=SensorConfig,
                                     metadata={"key": "sensor"})
    vibration_cfg: VibrationConfig = field(default_factory=VibrationConfig,
                                           metadata={"key": "vibration"})
    meas_noise_std: float = 0.0  # linear-axis measurement noise
    initial_altitude_m: float = 50.0
    initial_pitch_rate: float = 0.0
    aero_table_path: str | None = None
    check_suite: str | None = None

    def __post_init__(self):
        if self.mode not in ("nonlinear", "linear-axis"):
            raise ValueError("mode: must be nonlinear or linear-axis")
        if not self.duration_s > 0.0:
            raise ValueError("duration_s: must be positive")
        if not self.meas_noise_std >= 0.0:
            raise ValueError("meas_noise_std: must be >= 0")
        if not self.plant_params.peak.freq_hz < 0.5 * PLANT_RATE_HZ:
            raise ValueError("plant_params.peak.freq_hz: must lie below "
                             f"{0.5 * PLANT_RATE_HZ:g} Hz, half the plant rate")
        ts = [e.t for e in self.events]
        if ts != sorted(ts):
            raise ValueError("events: must be time-ordered")
        for i, e in enumerate(self.events):
            where = f"events[{i}]: {e.kind} event"
            if self.mode not in EVENT_KINDS[e.kind][0]:
                raise ValueError(f"{where} is not valid in {self.mode} mode")
            if (e.kind == "notch" and e.args["enabled"]
                    and self.rate_cfg.notches[1] is None):
                raise ValueError(f"{where} enables a pitch notch that "
                                 "rate_loop.notches does not configure")
        if self.check_suite is not None:
            if self.check_suite not in CHECK_SUITE_NEEDS:
                raise ValueError(f"check_suite: unknown suite {self.check_suite!r}")
            mode, measured, what = CHECK_SUITE_NEEDS[self.check_suite]
            if self.mode != mode:
                raise ValueError(f"check_suite: {self.check_suite} needs {mode} mode")
            if not any(measured(e) for e in self.events):
                raise ValueError(f"check_suite: {self.check_suite} needs {what}")


@dataclass(frozen=True, eq=False)
class SimLog:
    """In-memory run record; rows match the CSV schemas exactly.

    Each log is a 2-D float array as wide as its header, also when the run
    logged no row.
    """

    telemetry: np.ndarray
    simlog: np.ndarray | None = None
    diverged_at: float | None = None


def _table(rows, header):
    """The logged rows as a (rows, len(header)) float array."""
    return np.array(rows, dtype=float).reshape(-1, len(header))


def _flags_bits(rate_sat, thrust_bits, motor_sat, aero_clamped):
    """The tick's flags: the altitude loop's bits plus the detected ones."""
    bits = thrust_bits
    if any(rate_sat):
        bits |= FLAG_RATE_SAT
    if motor_sat:
        bits |= FLAG_MOTOR_SAT
    if aero_clamped:
        bits |= FLAG_AERO_CLAMP
    return bits


def run_linear_axis(sc: Scenario) -> SimLog:
    """Pitch-rate loop around the identified single-axis plant.

    The plant integrates at 1 kHz; the controller ticks at 250 Hz on the
    decimated measurement.  Divergence beyond ``ABORT_LIMIT`` rad/s stops
    the run and records the departure time instead of raising.
    """
    plant = LinearAxisPlant(fitted_plant(sc.plant_params),
                            prewarp_hz=sc.plant_params.peak.freq_hz)
    ctrl = RateController(sc.rate_cfg)
    rng = np.random.default_rng(sc.seed)
    n = int(round(sc.duration_s / CONTROL_DT))
    events = list(sc.events)
    w_cmd = (0.0, 0.0, 0.0)
    rows = []
    y = sc.initial_pitch_rate
    diverged_at = None
    qid = (1.0, 0.0, 0.0, 0.0)
    for i in range(n):
        t = i * CONTROL_DT
        while events and events[0].t <= t:
            ev = events.pop(0)
            if ev.kind == "rate_cmd":
                w_cmd = (float(ev.args.get("x", 0.0)), float(ev.args.get("y", 0.0)),
                         float(ev.args.get("z", 0.0)))
            elif ev.kind == "notch":
                ctrl.set_notch_enabled(ev.args["enabled"])
        meas = y + (rng.normal(0.0, sc.meas_noise_std)
                    if sc.meas_noise_std > 0.0 else 0.0)
        w_meas = (0.0, meas, 0.0)
        tx, ty, tz = ctrl.step(w_meas, w_cmd)
        for _ in range(SUBSTEPS):
            y = plant.step(ty)
        bits = _flags_bits(ctrl.saturated, 0, False, False)
        rows.append((t, *qid, *qid, *w_cmd, *w_meas, tx, ty, tz, 0.0, bits))
        if abs(y) > ABORT_LIMIT:
            diverged_at = t
            break
    return SimLog(_table(rows, TELEMETRY_HEADER), None, diverged_at)


def _build_sim(sc: Scenario) -> TailsitterSim:
    flex = None
    if sc.flex_enabled:
        flex = FlexibleModeParams(sc.plant_params.peak, sc.plant_params.anti)
    if sc.aero_table_path is not None:
        from .dataio import load_aero_table

        table = load_aero_table(sc.aero_table_path)
    else:
        table = default_aero_table()
    return TailsitterSim(
        sc.params,
        table,
        flex=flex,
        delay_s=sc.plant_params.delay_s if sc.delay_enabled else 0.0,
        sensor_cfg=sc.sensor_cfg,
        vibration_cfg=sc.vibration_cfg,
        seed=sc.seed,
        state=hover_state(sc.params, sc.initial_altitude_m),
    )


def run_nonlinear(sc: Scenario) -> SimLog:
    """Full cascade (attitude + rate + altitude) on the rigid-body plant.

    Each tick reads the plant's flat state ``sim.x``; the measured attitude
    is its quaternion normalized once per tick, and both logs record it.
    """
    sim = _build_sim(sc)
    rate_ctrl = RateController(sc.rate_cfg)
    att_ctrl = AttitudeController(sc.attitude_cfg)
    alt_ctrl = AltitudeController(sc.altitude_cfg, sc.params, sim.table)

    hover_pitch = 0.5 * math.pi
    q_cmd = quat.euler_zxy_to_quat(quat.EulerZXY(0.0, hover_pitch, 0.0))
    alt_cmd = sc.initial_altitude_m
    ramp = None  # (t0, pitch_from, pitch_to, duration, roll, yaw)
    cmd_euler = quat.EulerZXY(0.0, hover_pitch, 0.0)

    events = list(sc.events)
    n = int(round(sc.duration_s / CONTROL_DT))
    w_meas = (0.0, 0.0, 0.0)
    x = sim.x
    q_meas = quat.normalize(x[6:10])
    telemetry = []
    simrows = []
    diverged_at = None

    for i in range(n):
        t = i * CONTROL_DT
        while events and events[0].t <= t:
            ev = events.pop(0)
            if ev.kind == "attitude":
                cmd_euler = quat.EulerZXY(
                    ev.args.get("roll", 0.0),
                    ev.args.get("pitch", hover_pitch),
                    ev.args.get("yaw", 0.0),
                )
                q_cmd = quat.euler_zxy_to_quat(cmd_euler)
                ramp = None
            elif ev.kind == "pitch_ramp":
                ramp = (t, cmd_euler.pitch, ev.args["pitch_to"],
                        ev.args["duration"], cmd_euler.roll, cmd_euler.yaw)
            elif ev.kind == "altitude":
                alt_cmd = float(ev.args["alt"])
            elif ev.kind == "notch":
                rate_ctrl.set_notch_enabled(ev.args["enabled"])

        if ramp is not None:
            t0, p_from, p_to, dur, roll0, yaw0 = ramp
            frac = min(1.0, (t - t0) / dur)
            cmd_euler = quat.EulerZXY(roll0, p_from + frac * (p_to - p_from), yaw0)
            q_cmd = quat.euler_zxy_to_quat(cmd_euler)
            if frac >= 1.0:
                ramp = None

        alpha, speed = air_data(quat.rotation_rows(*q_meas), *x[3:6])
        w_cmd = att_ctrl.step(q_meas, q_cmd)
        torque = rate_ctrl.step(w_meas, w_cmd)
        thrust, alt_bits = alt_ctrl.step(sim.altitude(), alt_cmd, sim.v_z(),
                                         q_meas, speed, alpha)
        aero_clamped = False
        try:
            sim.set_command(torque, thrust)
            for _ in range(SUBSTEPS):
                sim.step()
                aero_clamped = aero_clamped or sim.aero_clamped_last
        except SimNumericsError:
            diverged_at = t
            break
        if sim.last_measurement is not None:
            w_meas = sim.last_measurement

        bits = _flags_bits(rate_ctrl.saturated, alt_bits, sim.saturated_last,
                           aero_clamped)
        x = sim.x
        q_meas = quat.normalize(x[6:10])
        telemetry.append((t, *q_cmd, *q_meas, *w_cmd, *w_meas, *torque, thrust, bits))
        simrows.append((t, *x[0:6], *q_meas, *x[10:13], *sim.motor_states,
                        int(sim.saturated_last)))
    return SimLog(_table(telemetry, TELEMETRY_HEADER),
                  _table(simrows, SIMLOG_HEADER), diverged_at)
