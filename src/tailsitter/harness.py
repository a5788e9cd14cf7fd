"""Scenario runner, design pipeline and report generation.

Built-in scenarios reproduce the reference flight experiments end to end:
``hover_notch_ab`` (divergence without the notch, convergence once it is
enabled), ``rate_step`` (square-wave rate tracking) and ``transition``
(hover -> 85 deg pitch -> hover with altitude hold).  Every reported metric
is recomputed from the CSV logs the run wrote, never from engine internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import metrics, quat
from .control import NotchConfig, RateLoopConfig, default_notch_config
from .dataio import (
    ConfigError,
    from_config,
    load_json,
    plant_params_to_config,
    read_csv,
    to_config,
    write_bode_csv,
    write_csv,
    write_frf_csv,
)
from .lti import (
    PlantFitParams,
    fitted_plant,
    magnitude_slope,
    margins,
    nyquist_stable,
    pid_tf,
    tf_eval,
    tf_series,
)
from .plant import CONTROL_RATE_HZ, PLANT_RATE_HZ, LinearAxisPlant
from .sim import (
    SIMLOG_HEADER,
    TELEMETRY_HEADER,
    Event,
    Scenario,
    run_linear_axis,
    run_nonlinear,
)
from .sysid import (ChirpConfig, averaged_bin_share, chirp, estimate_frf,
                    fit_plant_model, sweep_experiment)

__all__ = [
    "RunReport",
    "PipelineConfig",
    "run_scenario",
    "design_pipeline",
    "compare_runs",
    "builtin_scenarios",
    "scenario_from_config",
    "scenario_to_config",
    "EXIT_OK",
    "EXIT_CHECK_FAILED",
    "EXIT_CONFIG_ERROR",
    "EXIT_NUMERICAL_ABORT",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ABORT = 3


@dataclass
class RunReport:
    """Outcome of one scenario or pipeline run."""

    name: str
    metrics: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # (name, passed, detail)
    artifacts: list = field(default_factory=list)

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def add_check(self, name, ok, detail):
        self.checks.append((name, bool(ok), detail))

    def to_text(self):
        lines = [f"run report: {self.name}", "", "metrics:"]
        for k in sorted(self.metrics):
            lines.append(f"  {k} = {self.metrics[k]}")
        lines.append("")
        lines.append("checks:")
        for name, ok, detail in self.checks:
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        lines.append("")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        if self.artifacts:
            lines.append("")
            lines.append("artifacts:")
            for a in self.artifacts:
                lines.append(f"  {a}")
        return "\n".join(lines) + "\n"

    def write(self, out_dir):
        path = Path(out_dir) / f"{self.name}_report.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_text())
        self.artifacts.append(str(path))
        return path


# ---------------------------------------------------------------------------
# built-in scenarios


def builtin_scenarios() -> dict:
    """The shipped reference scenarios keyed by name."""
    deg = math.pi / 180.0
    # the rate loop runs at 0.6x the design gains so the notch-off
    # instability stays marginal and the oscillation sits on the structural
    # mode; at the full design gains the unstable pole migrates to ~13 Hz
    notch_ab = Scenario(
        name="hover_notch_ab",
        mode="linear-axis",
        duration_s=14.0,
        seed=11,
        events=(
            Event(0.0, "notch", {"enabled": False}),
            Event(10.0, "notch", {"enabled": True}),
        ),
        rate_cfg=RateLoopConfig(
            kp=(0.054, 0.054, 0.054),
            ki=(0.06, 0.06, 0.06),
            kd=(0.006, 0.006, 0.006),
            notches=(None, default_notch_config(), None),
        ),
        initial_pitch_rate=0.01,
        check_suite="notch_ab",
    )
    rate_step = Scenario(
        name="rate_step",
        mode="linear-axis",
        duration_s=8.0,
        seed=12,
        events=tuple(
            Event(1.0 + 2.0 * k, "rate_cmd", {"y": 0.3 if k % 2 == 0 else -0.3})
            for k in range(3)
        ),
        rate_cfg=RateLoopConfig.reference_pitch_design(),
        check_suite="rate_step",
    )
    transition = Scenario(
        name="transition",
        mode="nonlinear",
        duration_s=32.0,
        seed=13,
        events=(
            Event(5.0, "pitch_ramp", {"pitch_to": 85.0 * deg, "duration": 5.0}),
            Event(20.0, "attitude", {"roll": 0.0, "pitch": 90.0 * deg, "yaw": 0.0}),
        ),
        initial_altitude_m=50.0,
        check_suite="transition",
    )
    return {s.name: s for s in (notch_ab, rate_step, transition)}


# ---------------------------------------------------------------------------
# scenario (de)serialization


def scenario_to_config(sc: Scenario) -> dict:
    return to_config(sc)


def scenario_from_config(cfg: dict) -> Scenario:
    return from_config(Scenario, cfg)


# ---------------------------------------------------------------------------
# check suites (metrics recomputed from the written logs)


def _telemetry_col(name):
    return TELEMETRY_HEADER.index(name)


def _checks_notch_ab(sc: Scenario, data: np.ndarray, report: RunReport):
    t = data[:, 0]
    w = data[:, _telemetry_col("w_meas_y")]
    enable_t = next(e.t for e in sc.events if e.kind == "notch" and e.args["enabled"])
    sample_hz = 1.0 / (t[1] - t[0])

    growth = metrics.max_growth_rate(t, w, t_lo=1.0, t_hi=enable_t)
    diverging = growth > 0.1
    report.metrics["divergence_growth_rate_per_s"] = growth
    report.add_check("notch_off_divergence", diverging,
                     f"envelope growth rate {growth:.3f}/s (> 0.1/s required)")

    seg = (t >= enable_t - 6.0) & (t < enable_t)
    f_dom = metrics.dominant_frequency(w[seg], sample_hz)
    report.metrics["divergence_dominant_hz"] = f_dom
    report.add_check("divergence_frequency", abs(f_dom - 14.0) <= 1.0,
                     f"dominant oscillation {f_dom:.2f} Hz (14 +/- 1 Hz required)")

    tc, env = metrics.amplitude_envelope(t, w)
    e_at = env[np.argmin(np.abs(tc - enable_t))]
    e_after = env[np.argmin(np.abs(tc - (enable_t + 3.0)))]
    ratio = e_after / e_at if e_at > 0 else float("inf")
    report.metrics["envelope_ratio_3s_after_enable"] = ratio
    report.add_check("notch_on_convergence", ratio < 0.5,
                     f"envelope shrank to {ratio:.3f} of enable value within 3 s "
                     "(< 0.5 required)")


def _checks_rate_step(sc: Scenario, data: np.ndarray, report: RunReport):
    t = data[:, 0]
    w = data[:, _telemetry_col("w_meas_y")]
    cmd = data[:, _telemetry_col("w_cmd_y")]
    steps = [e for e in sc.events if e.kind == "rate_cmd"]
    worst = 0.0
    prev = 0.0
    for e in steps:
        target = e.args.get("y", 0.0)
        ov = metrics.overshoot_pct(t, w, e.t, prev, target, settle_window_s=1.8)
        worst = max(worst, ov)
        prev = target
    report.metrics["worst_overshoot_pct"] = worst
    # a type-2 loop (plant integrator + PID integrator) cannot avoid step
    # overshoot: the error integral must converge to zero, so the error
    # changes sign.  With the reference gains the slow integrator hump is
    # ~11 %; the 5 % bound stays as the design target (see README notes).
    report.add_check("rate_step_overshoot", worst <= 5.0,
                     f"worst overshoot {worst:.2f} % (<= 5 % required)")
    rt = metrics.rise_time(t, w, steps[0].t, 0.0, steps[0].args.get("y", 0.3))
    report.metrics["rise_time_s"] = rt
    report.add_check("rate_step_rise", rt <= 0.5,
                     f"10-90 % rise time {rt:.3f} s (<= 0.5 s required)")
    # tracking error over the last 0.5 s before each subsequent edge
    errs = []
    for e in steps[1:]:
        m = (t >= e.t - 0.5) & (t < e.t)
        errs.append(w[m] - cmd[m])
    if errs:
        rms = float(np.sqrt(np.mean(np.concatenate(errs) ** 2)))
        report.metrics["settled_rms_error"] = rms


def _checks_transition(sc: Scenario, data: np.ndarray, report: RunReport,
                       simlog: np.ndarray):
    t = simlog[:, 0]
    alt = -simlog[:, SIMLOG_HEADER.index("pz")]
    alt_err = np.max(np.abs(alt - sc.initial_altitude_m))
    report.metrics["max_altitude_error_m"] = float(alt_err)
    report.add_check("altitude_hold", alt_err < 2.0,
                     f"max |altitude error| {alt_err:.3f} m (< 2 m required)")

    # pitch angle series from the logged quaternion
    pitch = np.array([
        quat.quat_to_euler_zxy(
            quat.Quaternion.from_array(row[7:11], normalize=True)).pitch
        for row in simlog
    ])
    step_ev = [e for e in sc.events if e.kind == "attitude" and "pitch" in e.args][-1]
    tau, r2 = metrics.first_order_fit(t, pitch, step_ev.t)
    p0 = pitch[np.argmin(np.abs(t - step_ev.t))]
    ov = metrics.overshoot_pct(t, pitch, step_ev.t, p0, step_ev.args["pitch"])
    report.metrics["stepback_tau_s"] = tau
    report.metrics["stepback_r_squared"] = r2
    report.metrics["stepback_overshoot_pct"] = ov
    report.add_check("stepback_first_order", r2 > 0.95,
                     f"first-order fit R^2 {r2:.4f} (> 0.95 required)")
    report.add_check("stepback_overshoot", ov < 5.0,
                     f"overshoot {ov:.2f} % (< 5 % required)")


CHECK_SUITES = {
    "notch_ab": _checks_notch_ab,
    "rate_step": _checks_rate_step,
    "transition": _checks_transition,
}


def run_scenario(source, out_dir="out", seed=None) -> RunReport:
    """Execute a scenario by builtin name, config path, or Scenario object.

    Writes the telemetry CSV (and the state log for nonlinear runs), then
    recomputes the scenario's check suite from those files.  Divergence is
    recorded as a metric, not raised.
    """
    if isinstance(source, Scenario):
        sc = source
    elif str(source) in builtin_scenarios():
        sc = builtin_scenarios()[str(source)]
    else:
        sc = scenario_from_config(load_json(source))
    if seed is not None:
        sc = replace(sc, seed=int(seed))

    out_dir = Path(out_dir)
    report = RunReport(sc.name)
    log = run_linear_axis(sc) if sc.mode == "linear-axis" else run_nonlinear(sc)

    tele_path = write_csv(out_dir / f"{sc.name}_telemetry.csv",
                          TELEMETRY_HEADER, log.telemetry)
    report.artifacts.append(str(tele_path))
    sim_path = None
    if log.simlog is not None:
        sim_path = write_csv(out_dir / f"{sc.name}_simlog.csv",
                             SIMLOG_HEADER, log.simlog)
        report.artifacts.append(str(sim_path))

    report.metrics["diverged"] = log.diverged_at is not None
    if log.diverged_at is not None:
        report.metrics["diverged_at_s"] = log.diverged_at

    # recompute every metric from the files just written
    if sc.check_suite is not None:
        suite = CHECK_SUITES[sc.check_suite]
        _, tele = read_csv(tele_path)
        if sc.check_suite == "transition":
            _, simdata = read_csv(sim_path)
            suite(sc, tele, report, simdata)
        else:
            suite(sc, tele, report)
    report.write(out_dir)
    return report


# ---------------------------------------------------------------------------
# design pipeline


@dataclass(frozen=True)
class PipelineConfig:
    """Sweep -> identify -> design pipeline settings.

    The FRF stage defaults to 60 cycles per window (finer than the general
    default because the structural peak is only ~3 % wide) and deconvolves
    the known 250 Hz command hold.  Values the stages would reject mid-run
    are rejected here, before anything is simulated or written.
    """

    chirp: ChirpConfig = field(default_factory=ChirpConfig)
    true_params: PlantFitParams = field(default_factory=PlantFitParams.reference)
    n_freqs: int = 64
    cycles_per_window: float = 60.0
    correct_hold: bool = True
    noise_std: float = 0.0
    seed: int = 3
    kp: float = 0.09
    ki: float = 0.1
    kd: float = 0.01
    deriv_corner_hz: float = 18.0
    notch_k1: float = 0.15
    notch_k2: float = 0.018
    skip_notch: bool = False
    slope_band: tuple[float, float] = (0.6, 14.0)

    def __post_init__(self):
        if not self.chirp.f0 < self.chirp.f1:
            raise ValueError("chirp: the FRF band needs f0 < f1")
        if self.n_freqs < 2:
            raise ValueError("n_freqs: need at least 2 frequencies to span the band")
        if self.cycles_per_window <= 0.0:
            raise ValueError("cycles_per_window: must be > 0")
        # the fit needs half the bins trusted, and a bin needs two windows
        share = averaged_bin_share(len(chirp(self.chirp)), self.chirp.sample_hz,
                                   self.n_freqs, self.chirp.f0, self.chirp.f1,
                                   self.cycles_per_window)
        if share < 0.5:
            raise ValueError(f"chirp: too short for its FRF windows: {share:.0%} "
                             "of the bins average two or more, the fit needs 50 %")
        if not 0.0 < self.slope_band[0] < self.slope_band[1]:
            raise ValueError("slope_band: need 0 < f_lo < f_hi")
        try:
            pid_tf(self.kp, self.ki, self.kd, self.deriv_corner_hz)
        except ValueError as e:
            raise ValueError(f"kp: PID gains: {e}")
        try:  # the notch is placed at the fitted peak; any center will do here
            NotchConfig(1.0, self.notch_k1, self.notch_k2)
        except ValueError as e:
            raise ValueError(f"notch_k1: {e}")


def _max_stable_gain_crossover(loop_base, lo=0.01, hi=8.0):
    """Gain sweep: largest stable scalar gain and its crossover frequency."""
    if nyquist_stable(hi * loop_base):
        g_max = hi
    elif not nyquist_stable(lo * loop_base):
        return 0.0, None
    else:
        a, b = lo, hi
        for _ in range(40):
            mid = math.sqrt(a * b)
            if nyquist_stable(mid * loop_base):
                a = mid
            else:
                b = mid
        g_max = a
    m = margins(g_max * loop_base)
    return g_max, m.gain_crossover_hz


def design_pipeline(cfg: PipelineConfig | None = None, out_dir="out") -> RunReport:
    """Reproduce the identification-then-loop-shaping flow on the simulator.

    Stages: chirp sweep against the linear plant, FRF estimation, parametric
    fit, notch placement at the fitted peak, margins and slope of the
    designed loop, and the notch-free stability-limited bandwidth for
    comparison.  Emits Bode CSVs for plant, compensator and open loop, the
    FRF, and a fit report.
    """
    cfg = cfg or PipelineConfig()
    out_dir = Path(out_dir)
    report = RunReport("design_pipeline")

    plant_tf = fitted_plant(cfg.true_params)
    plant = LinearAxisPlant(plant_tf, prewarp_hz=cfg.true_params.peak.freq_hz)
    sweep = sweep_experiment(plant, cfg.chirp, noise_std=cfg.noise_std,
                             seed=cfg.seed)
    sweep_path = write_csv(
        out_dir / "sweep_io.csv",
        ["t", "u_injected", "u_total", "omega_meas"],
        np.column_stack([sweep.total_input.times, sweep.injected.values,
                         sweep.total_input.values, sweep.measured.values]),
    )
    report.artifacts.append(str(sweep_path))

    frf = estimate_frf(
        sweep.total_input, sweep.measured, cfg.n_freqs,
        cfg.chirp.f0, cfg.chirp.f1,
        cycles_per_window=cfg.cycles_per_window,
        hold_rate_hz=cfg.chirp.sample_hz if cfg.correct_hold else None,
        plant_rate_hz=PLANT_RATE_HZ if cfg.correct_hold else None,
    )
    report.artifacts.append(str(write_frf_csv(out_dir / "frf.csv", frf)))
    report.metrics["frf_trusted_fraction"] = float(np.mean(frf.trusted))

    fit = fit_plant_model(frf, seed=cfg.seed)
    report.metrics["fit_converged"] = fit.converged
    report.metrics["fit_cost_per_bin"] = fit.cost_per_bin
    report.metrics["fit_evaluations"] = fit.evaluations
    if not fit.converged:
        report.add_check("fit_converged", False,
                         f"fit stalled at cost/bin {fit.cost_per_bin:.2f}; "
                         "stage-1 parameters reported")
        report.write(out_dir)
        return report
    p = fit.params
    report.metrics["fitted_peak_hz"] = p.peak.freq_hz
    report.metrics["fitted_anti_hz"] = p.anti.freq_hz
    report.metrics["fitted_delay_s"] = p.delay_s
    true_peak = cfg.true_params.peak.freq_hz
    report.add_check(
        "fitted_peak_within_2pct",
        abs(p.peak.freq_hz / true_peak - 1.0) <= 0.02,
        f"fitted peak {p.peak.freq_hz:.3f} Hz vs true {true_peak:.3f} Hz",
    )

    plant_fit_tf = fitted_plant(p)
    fit_report = out_dir / "fit_report.txt"
    fit_lines = ["identified plant parameters:"]
    for k, v in plant_params_to_config(p).items():
        fit_lines.append(f"  {k} = {v}")
    fit_lines.append(f"fit cost per bin = {fit.cost_per_bin:.4f}")
    fit_lines.append(f"fit evaluations = {fit.evaluations}")
    fit_lines.append("restart costs = "
                     + ", ".join(f"{c:.6f}" for c in fit.restart_costs))
    fit_lines.append("per-band magnitude error vs FRF (dB):")
    h_fit = tf_eval(plant_fit_tf, frf.freqs)
    err_db = 20.0 * np.log10(np.abs(h_fit / frf.response))
    for f0, f1 in ((cfg.chirp.f0, 5.0), (5.0, 20.0), (20.0, cfg.chirp.f1)):
        m = (frf.freqs >= f0) & (frf.freqs <= f1) & frf.trusted
        if np.any(m):
            fit_lines.append(f"  [{f0:5.1f}, {f1:5.1f}] Hz: "
                             f"max {np.max(np.abs(err_db[m])):.3f}")
    fit_report.write_text("\n".join(fit_lines) + "\n")
    report.artifacts.append(str(fit_report))

    # loop shaping on the identified model
    pid = pid_tf(cfg.kp, cfg.ki, cfg.kd, cfg.deriv_corner_hz)
    if cfg.skip_notch:
        comp = pid
    else:
        notch_cfg = NotchConfig(p.peak.freq_hz, cfg.notch_k1, cfg.notch_k2)
        comp = tf_series(pid, notch_cfg.tf())
    loop = tf_series(plant_fit_tf, comp)

    m = margins(loop)
    peak_mag_db = 20.0 * math.log10(abs(tf_eval(loop, p.peak.freq_hz)))
    report.metrics["loop_peak_mag_db"] = peak_mag_db
    stable = nyquist_stable(loop)
    report.metrics["closed_loop_stable"] = stable
    if cfg.skip_notch:
        report.add_check(
            "no_notch_flagged_unstable",
            peak_mag_db > 0.0 and not stable,
            f"resonance at {peak_mag_db:.2f} dB (> 0 dB) and Nyquist "
            f"{'stable' if stable else 'unstable'}",
        )
    if m.has_gain_crossover:
        report.metrics["crossover_hz"] = m.gain_crossover_hz
        report.metrics["phase_margin_deg"] = m.phase_margin_deg
        if m.gain_margin_db is not None:
            report.metrics["gain_margin_db"] = m.gain_margin_db
            report.metrics["phase_crossover_hz"] = m.phase_crossover_hz
    slope = magnitude_slope(loop, *cfg.slope_band)
    report.metrics["slope_db_per_decade"] = slope

    if not cfg.skip_notch:
        report.add_check(
            "crossover_band", m.has_gain_crossover
            and 5.8 <= m.gain_crossover_hz <= 7.8,
            f"gain crossover {m.gain_crossover_hz:.3f} Hz "
            "(reference 6.8, accepted [5.8, 7.8])",
        )
        report.add_check(
            "phase_margin_band", m.has_gain_crossover
            and 36.0 <= m.phase_margin_deg <= 52.0,
            f"phase margin {m.phase_margin_deg:.2f} deg "
            "(reference 44, accepted [36, 52])",
        )
        report.add_check(
            "slope_band", -22.0 <= slope <= -16.0,
            f"magnitude slope {slope:.2f} dB/dec over "
            f"[{cfg.slope_band[0]}, {cfg.slope_band[1]}] Hz "
            "(reference -19, accepted [-22, -16])",
        )
        # closed-loop -3 dB bandwidth of the command response, for reference
        report.metrics["notch_loop_14hz_db"] = peak_mag_db

        # bandwidth gained by the notch: compare against the best stable
        # notch-free design found by a pure gain sweep
        base = tf_series(plant_fit_tf, pid)
        g_free, bw_free = _max_stable_gain_crossover(base)
        report.metrics["notch_free_max_gain"] = g_free
        if bw_free is not None:
            report.metrics["notch_free_max_crossover_hz"] = bw_free
            gain_pct = 100.0 * (m.gain_crossover_hz / bw_free - 1.0)
            report.metrics["bandwidth_gain_pct"] = gain_pct
            report.add_check(
                "bandwidth_gain", gain_pct >= 50.0,
                f"notch-enabled crossover {m.gain_crossover_hz:.2f} Hz vs "
                f"notch-free stable limit {bw_free:.2f} Hz: +{gain_pct:.0f} % "
                "(>= 50 % required)",
            )

    report.artifacts.append(str(write_bode_csv(out_dir / "bode_plant_fit.csv",
                                               plant_fit_tf)))
    report.artifacts.append(str(write_bode_csv(out_dir / "bode_compensator.csv",
                                               comp)))
    report.artifacts.append(str(write_bode_csv(out_dir / "bode_open_loop.csv",
                                               loop)))
    # runnable 250 Hz form of the designed compensator
    from .biquad import discretize_tustin
    from .dataio import write_biquad_csv

    cascade = discretize_tustin(comp, CONTROL_RATE_HZ,
                                prewarp_hz=None if cfg.skip_notch
                                else p.peak.freq_hz)
    report.artifacts.append(str(write_biquad_csv(
        out_dir / "compensator_biquads_250hz.csv", cascade)))
    report.write(out_dir)
    return report


# ---------------------------------------------------------------------------
# log comparison


@dataclass
class DiffReport:
    path_a: str
    path_b: str
    columns: list
    max_abs: np.ndarray
    rms: np.ndarray

    @property
    def identical(self):
        return bool(np.all(self.max_abs == 0.0))

    def to_text(self):
        lines = [f"compare {self.path_a} vs {self.path_b}",
                 f"verdict: {'bit-identical' if self.identical else 'differs'}"]
        for c, mx, r in zip(self.columns, self.max_abs, self.rms):
            lines.append(f"  {c}: max|diff| = {mx:.6g}, rms = {r:.6g}")
        return "\n".join(lines) + "\n"


def compare_runs(path_a, path_b) -> DiffReport:
    """Columnwise max/RMS differences between two logs of identical schema."""
    ha, da = read_csv(path_a)
    hb, db = read_csv(path_b)
    if ha != hb:
        raise ConfigError(f"schema mismatch: {ha} vs {hb}")
    if da.shape != db.shape:
        raise ConfigError(f"row-count mismatch: {da.shape} vs {db.shape}")
    d = np.abs(da - db)
    return DiffReport(str(path_a), str(path_b), ha, d.max(axis=0),
                      np.sqrt(np.mean(d * d, axis=0)))
