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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import quat
from .biquad import discretize_tustin
from .lti import ContinuousTF, ResonanceParams, tf_series

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
        object.__setattr__(self, "_alloc_inv", np.linalg.inv(a))
        object.__setattr__(self, "_inertia_inv", np.linalg.inv(inertia))
        object.__setattr__(self, "_damping_arr",
                           np.asarray(self.rate_damping, dtype=float))

    @property
    def inertia_matrix(self):
        return self.inertia

    @property
    def inertia_inv(self):
        return self._inertia_inv

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
        self.alpha_grid = np.asarray(alpha_grid, dtype=float)
        self.v_grid = np.asarray(v_grid, dtype=float)
        self.cl = np.asarray(cl, dtype=float)
        self.cd = np.asarray(cd, dtype=float)
        if np.any(np.diff(self.alpha_grid) <= 0) or np.any(np.diff(self.v_grid) <= 0):
            raise ValueError("grids must be strictly increasing")
        shape = (self.alpha_grid.size, self.v_grid.size)
        if self.cl.shape != shape or self.cd.shape != shape:
            raise ValueError(f"coefficient tables must have shape {shape}")
        if np.any(self.cd < 0.0):
            raise ValueError("drag coefficient must be nonnegative")

    def interpolate(self, alpha, v):
        """(CL, CD, clamped) at one query point."""
        clamped = not (
            self.alpha_grid[0] <= alpha <= self.alpha_grid[-1]
            and self.v_grid[0] <= v <= self.v_grid[-1]
        )
        a = min(max(alpha, self.alpha_grid[0]), self.alpha_grid[-1])
        vv = min(max(v, self.v_grid[0]), self.v_grid[-1])
        i = min(np.searchsorted(self.alpha_grid, a, side="right") - 1,
                self.alpha_grid.size - 2)
        j = min(np.searchsorted(self.v_grid, vv, side="right") - 1,
                self.v_grid.size - 2)
        i = max(i, 0)
        j = max(j, 0)
        ta = (a - self.alpha_grid[i]) / (self.alpha_grid[i + 1] - self.alpha_grid[i])
        tv = (vv - self.v_grid[j]) / (self.v_grid[j + 1] - self.v_grid[j])

        def lerp2(tab):
            return (
                tab[i, j] * (1 - ta) * (1 - tv)
                + tab[i + 1, j] * ta * (1 - tv)
                + tab[i, j + 1] * (1 - ta) * tv
                + tab[i + 1, j + 1] * ta * tv
            )

        return float(lerp2(self.cl)), float(lerp2(self.cd)), clamped


def default_aero_table(lift_slope=4.73, alpha_stall=0.2618, blend_width=0.0873,
                       cd0=0.03, induced_factor=0.0654):
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
    w = 1.0 / (1.0 + np.exp(-(np.abs(alpha) - alpha_stall) / (blend_width / 4.0)))
    cl_lin = lift_slope * alpha
    cl_fp = 2.0 * np.sin(alpha) * np.cos(alpha)
    cl = (1.0 - w) * cl_lin + w * cl_fp
    cd = cd0 + (1.0 - w) * induced_factor * cl_lin**2 + w * 2.0 * np.sin(alpha) ** 2
    return AeroTable(alpha, v, np.tile(cl[:, None], (1, v.size)),
                     np.tile(cd[:, None], (1, v.size)))


def aero_forces(alpha, v, table: AeroTable, params: AircraftParams) -> AeroForces:
    """Lift and drag in newtons: L = 1/2 rho V^2 S CL(a, V), same for drag.

    Ground speed stands in for airspeed (small-wind assumption).
    """
    if v < 0.0:
        raise ValueError("airspeed must be >= 0")
    cl, cd, clamped = table.interpolate(alpha, v)
    q = 0.5 * params.air_density * v * v * params.wing_area
    return AeroForces(q * cl, q * cd, clamped)


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


def mixer(torque_nm, thrust_cmd, params: AircraftParams) -> MotorCommand:
    """Invert the allocation matrix with priority thrust > roll/pitch > yaw.

    torque_nm is the physical torque demand (N m); thrust_cmd the normalized
    collective in [0, 1].  When the unsaturated solution leaves [0, 1] the
    roll/pitch group is scaled first, then yaw, and the command is flagged.
    """
    torque_nm = np.asarray(torque_nm, dtype=float)
    if not (np.all(np.isfinite(torque_nm)) and np.isfinite(thrust_cmd)):
        raise ValueError("mixer inputs must be finite")
    a_inv = params._alloc_inv
    thrust_n = float(np.clip(thrust_cmd, 0.0, 1.0)) * params.thrust_coeff
    base = a_inv @ np.array([thrust_n, 0.0, 0.0, 0.0])
    rp = a_inv @ np.array([0.0, torque_nm[0], torque_nm[1], 0.0])
    yaw = a_inv @ np.array([0.0, 0.0, 0.0, torque_nm[2]])

    saturated = bool(thrust_cmd < 0.0 or thrust_cmd > 1.0)

    def headroom_scale(u0, du):
        """Largest factor in [0, 1] keeping u0 + f*du inside [0, 1]."""
        f = 1.0
        for lo, hi, b, d in zip(np.zeros(4), np.ones(4), u0, du):
            if d > 1e-12:
                f = min(f, (hi - b) / d)
            elif d < -1e-12:
                f = min(f, (lo - b) / d)
        return max(f, 0.0)

    f_rp = headroom_scale(base, rp)
    if f_rp < 1.0:
        saturated = True
    u = base + f_rp * rp
    f_yaw = headroom_scale(u, yaw)
    if f_yaw < 1.0:
        saturated = True
    u = u + f_yaw * yaw
    out = np.clip(u, 0.0, 1.0)
    if not np.allclose(out, u, atol=1e-12):
        saturated = True
    return MotorCommand(out, saturated)


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


def _velocity_frame(v_inertial, rot_b2i):
    """x/z axes of the velocity frame in inertial coordinates, or None at rest.

    x_v points along velocity; z_v lies in the aircraft symmetry plane
    (coordinated flight keeps body-y perpendicular to the airstream).
    """
    speed = np.linalg.norm(v_inertial)
    if speed < 1e-9:
        return None
    x_v = v_inertial / speed
    y_b = rot_b2i[:, 1]
    y_v = y_b - (y_b @ x_v) * x_v
    n = np.linalg.norm(y_v)
    if n < 1e-9:
        # velocity along body y (pure side-slip); symmetry plane undefined,
        # fall back to body z for a continuous-ish frame
        y_v = np.cross(rot_b2i[:, 2], x_v)
        n = np.linalg.norm(y_v)
        if n < 1e-9:
            return None
    y_v /= n
    z_v = np.cross(x_v, y_v)
    return x_v, z_v


def angle_of_attack(state: RigidBodyState):
    """(alpha rad, speed m/s) from the inertial velocity and attitude."""
    r = quat.rotmat_from_array(state.q)
    vb = r.T @ state.v
    speed = float(np.linalg.norm(state.v))
    if speed < 1e-9:
        return 0.0, 0.0
    return float(math.atan2(vb[2], vb[0])), speed


def _derivatives(x, thrusts_n, params: AircraftParams, table: AeroTable,
                 extra_torque_nm):
    p, v, q, w = x[0:3], x[3:6], x[6:10], x[10:13]
    qn = q / np.linalg.norm(q)
    r = quat.rotmat_from_array(qn)

    # propeller force along body x; arm torques reduce to dot products since
    # every thrust vector is (T_i, 0, 0) in body axes
    t_total = float(np.sum(thrusts_n))
    f_p_i = r @ np.array([t_total, 0.0, 0.0])
    pos = params.rotor_positions
    spins = np.asarray(params.spin_directions, dtype=float)
    tau = np.array(
        [
            params.rotor_torque_ratio * float(spins @ thrusts_n),
            float(pos[:, 2] @ thrusts_n),
            -float(pos[:, 1] @ thrusts_n),
        ]
    )

    # aero force in the velocity frame: (-D, 0, -L)
    f_a_i = np.zeros(3)
    speed = np.linalg.norm(v)
    if speed >= 1e-9:
        vb = r.T @ v
        alpha = math.atan2(vb[2], vb[0])
        forces = aero_forces(alpha, float(speed), table, params)
        frame = _velocity_frame(v, r)
        if frame is not None:
            x_v, z_v = frame
            f_a_i = -forces.drag_n * x_v - forces.lift_n * z_v

    m_a = -params._damping_arr * w
    if extra_torque_nm is not None:
        tau = tau + extra_torque_nm

    inertia = params.inertia_matrix
    dp = v
    dv = params.gravity * np.array([0.0, 0.0, 1.0]) + (f_a_i + f_p_i) / params.mass
    dq = quat.quat_derivative(qn, w)
    dw = params.inertia_inv @ (-np.cross(w, inertia @ w) + tau + m_a)
    return np.concatenate([dp, dv, dq, dw])


def step_dynamics(state: RigidBodyState, motors, dt: float,
                  params: AircraftParams, table: AeroTable,
                  extra_torque_nm=None) -> RigidBodyState:
    """One RK4 step of the rigid-body dynamics with fixed motor thrusts.

    ``motors`` is a MotorCommand or a length-4 array of normalized commands
    held constant over the step (the motor lag, when simulated, lives in
    TailsitterSim).  The quaternion is renormalized after the step.
    """
    if not 0.0 < dt <= 0.002:
        raise ValueError("dt must lie in (0, 2 ms]")
    u = motors.u if isinstance(motors, MotorCommand) else np.asarray(motors, float)
    thrusts = params.motor_thrust_coeff * u

    x = state.as_vector()
    k1 = _derivatives(x, thrusts, params, table, extra_torque_nm)
    k2 = _derivatives(x + 0.5 * dt * k1, thrusts, params, table, extra_torque_nm)
    k3 = _derivatives(x + 0.5 * dt * k2, thrusts, params, table, extra_torque_nm)
    k4 = _derivatives(x + dt * k3, thrusts, params, table, extra_torque_nm)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise SimNumericsError("state became non-finite during integration")
    out[6:10] /= np.linalg.norm(out[6:10])
    return RigidBodyState.from_vector(out)


class LinearAxisPlant:
    """Stateful single-axis plant realized from an identified TF.

    Maps a normalized torque command to the measured rate, including the
    transport delay as an integer-sample line.  Runs at ``sample_hz``
    (normally the 1 kHz plant rate); prewarping defaults to the resonance
    so the structural peak lands exactly on its continuous frequency.
    """

    def __init__(self, tf: ContinuousTF, sample_hz=PLANT_RATE_HZ, prewarp_hz=None):
        if tf.num_degree > tf.den_degree:
            raise ValueError("improper transfer function is not realizable")
        self.tf = tf
        self.sample_hz = float(sample_hz)
        self.cascade = discretize_tustin(tf, self.sample_hz, prewarp_hz)

    def step(self, u: float) -> float:
        return self.cascade.process(float(u))

    def reset(self):
        self.cascade.reset()


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
    """1 kHz true rates -> 250 Hz measured rates, deterministic under seed."""

    def __init__(self, cfg: SensorConfig, sample_hz=PLANT_RATE_HZ, seed=0):
        from .lti import butterworth2

        self.cfg = cfg
        self.sample_hz = float(sample_hz)
        self._filters = [
            discretize_tustin(butterworth2(cfg.corner_hz), self.sample_hz)
            for _ in range(3)
        ]
        self._rng = np.random.default_rng(seed)
        self._decimation = int(round(self.sample_hz / CONTROL_RATE_HZ))
        self._count = 0

    def process(self, true_rate):
        """Feed one 1 kHz sample; returns the 250 Hz measurement or None."""
        noisy = np.asarray(true_rate, float)
        if self.cfg.gyro_noise_std > 0.0:
            noisy = noisy + self._rng.normal(0.0, self.cfg.gyro_noise_std, 3)
        out = np.array([f.process(x) for f, x in zip(self._filters, noisy)])
        self._count += 1
        if self._count % self._decimation == 0:
            return out
        return None

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
        self.sensor = RateSensor(sensor_cfg, PLANT_RATE_HZ, seed)
        self.vibration_cfg = vibration_cfg
        self._cmd = np.array([0.0, 0.0, 0.0, params.hover_command])
        n_delay = int(round(delay_s * PLANT_RATE_HZ))
        self._delay_buf = [self._cmd.copy() for _ in range(n_delay)]
        self._delay_idx = 0
        self._flex = None
        if flex is not None:
            self._flex = discretize_tustin(
                flex.tf(), PLANT_RATE_HZ, prewarp_hz=flex.peak.freq_hz
            )
            # settle the filter at the current (zero) pitch torque
            for _ in range(8):
                self._flex.process(0.0)
        self._torque_scale = params.torque_scale()
        self._motor_u = mixer(np.zeros(3), params.hover_command, params).u.copy()
        self.saturated_last = False
        self.last_measurement = None

    def set_command(self, torque_norm, thrust_norm):
        """Latch the 250 Hz controller output (normalized units)."""
        t = np.asarray(torque_norm, dtype=float)
        if not (np.all(np.isfinite(t)) and np.isfinite(thrust_norm)):
            raise SimNumericsError("controller command is non-finite")
        self._cmd = np.array([t[0], t[1], t[2], float(thrust_norm)])

    def step(self):
        """Advance one 1 ms plant substep; returns the new state.

        Sets ``last_measurement`` to the 250 Hz gyro sample on decimation
        ticks (None otherwise).
        """
        cmd = self._cmd
        if self._delay_buf:
            i = self._delay_idx
            cmd, self._delay_buf[i] = self._delay_buf[i], self._cmd.copy()
            self._delay_idx = (i + 1) % len(self._delay_buf)
        torque_norm = cmd[:3].copy()
        if self._flex is not None:
            torque_norm[1] = self._flex.process(torque_norm[1])
        torque_nm = self._torque_scale * torque_norm
        motor_cmd = mixer(torque_nm, cmd[3], self.params)
        self.saturated_last = motor_cmd.saturated

        # exact first-order motor lag over the substep
        decay = math.exp(-self.dt / self.params.motor_tau_s)
        self._motor_u = motor_cmd.u + (self._motor_u - motor_cmd.u) * decay

        self.state = step_dynamics(self.state, self._motor_u, self.dt,
                                   self.params, self.table)
        self.t += self.dt

        measured_rate = self.state.omega + rotor_vibration(self.t, self.vibration_cfg)
        self.last_measurement = self.sensor.process(measured_rate)
        return self.state

    def altitude(self):
        return -float(self.state.p[2])

    def v_z(self):
        """Vertical velocity, NED down-positive."""
        return float(self.state.v[2])

    @property
    def motor_states(self):
        """Actual (lagged) normalized motor outputs."""
        return self._motor_u.copy()
