"""Scenario runner, design pipeline and report generation.

Built-in scenarios reproduce the reference flight experiments end to end:
``hover_notch_ab`` (divergence without the notch, convergence once it is
enabled), ``rate_step`` (square-wave rate tracking) and ``transition``
(hover -> 85 deg pitch -> hover with altitude hold).  Every reported metric
is computed from the logged arrays the run writes to its CSV files, never
from engine internals; a test pins that the files parse back to those
arrays bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import metrics, quat
from .biquad import discretize_tustin
from .control import NotchConfig, RateLoopConfig, default_notch_config
from .dataio import (
    ConfigError,
    from_config,
    load_json,
    read_csv,
    to_config,
    write_biquad_csv,
    write_bode_csv,
    write_csv,
    write_frf_csv,
)
from .lti import (
    MARGINS_BAND_HZ,
    NYQUIST_BAND_HZ,
    PlantFitParams,
    fitted_plant,
    magnitude_slope,
    margins,
    max_stable_gain,
    nyquist_encirclements,
    pid_tf,
    tf_eval,
    tf_series,
)
from .plant import (CONTROL_RATE_HZ, LinearAxisPlant, check_linear_axis_plant,
                    check_plant_peak)
from .sim import (
    CHECK_SUITE_NEEDS,
    SIMLOG_HEADER,
    TELEMETRY_HEADER,
    Event,
    Scenario,
    run_linear_axis,
    run_nonlinear,
)
from .sysid import (DIVERGENCE_LIMIT, MIN_TRUSTED_SHARE, ChirpConfig, averaged_bin_share,
                    estimate_frf, fit_plant_model, sweep_experiment)

__all__ = [
    "RunReport",
    "PipelineConfig",
    "run_scenario",
    "design_pipeline",
    "compare_runs",
    "builtin_scenarios",
    "EXIT_OK",
    "EXIT_CHECK_FAILED",
    "EXIT_CONFIG_ERROR",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2


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
        rate_loop=RateLoopConfig(
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
        rate_loop=RateLoopConfig.reference_pitch_design(),
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
# check suites (metrics computed from the logged arrays the CSVs hold)


def _telemetry_col(name):
    return TELEMETRY_HEADER.index(name)


STEP_WINDOW_S = 1.8  # response window of each rate step's overshoot and rise
SPECTRUM_WINDOW_S = 6.0  # notch-off oscillation window before the enable


def _cut_unmeasured(report: RunReport, sc: Scenario, t_start: float, t_end: float,
                    *names: str) -> bool:
    """Fail the named checks if the log does not cover their window.

    The log spans [0, duration_s), and a diverged run's log stops at
    ``diverged_at_s``; a check whose window [t_start, t_end] the log does not
    cover is reported as failed, not measured.
    """
    at = report.metrics.get("diverged_at_s")
    if at is not None and t_end > at:
        why = (f"the run diverged at diverged_at_s = {at:g} s, before the check "
               f"window ends at {t_end:g} s")
    elif t_start < 0.0 or t_end > sc.duration_s:
        why = (f"the check window [{t_start:g}, {t_end:g}] s is not inside the "
               f"{sc.duration_s:g} s run")
    else:
        return False
    for name in names:
        report.add_check(name, False, f"not measured: {why}")
    return True


def _measured_events(sc: Scenario) -> list:
    """The events the scenario's check suite measures, in time order."""
    measured = CHECK_SUITE_NEEDS[sc.check_suite][1]
    return [e for e in sc.events if measured(e)]


def _checks_notch_ab(sc: Scenario, telemetry: np.ndarray, report: RunReport,
                     simlog: np.ndarray | None):
    t = telemetry[:, 0]
    w = telemetry[:, _telemetry_col("w_meas_y")]
    enable_t = _measured_events(sc)[0].t

    if not _cut_unmeasured(report, sc, enable_t - SPECTRUM_WINDOW_S, enable_t,
                           "notch_off_divergence", "divergence_frequency"):
        growth = metrics.max_growth_rate(t, w, t_lo=1.0, t_hi=enable_t)
        report.metrics["divergence_growth_rate_per_s"] = growth
        report.add_check("notch_off_divergence", growth > 0.1,
                         f"envelope growth rate {growth:.3f}/s (> 0.1/s required)")

        seg = (t >= enable_t - SPECTRUM_WINDOW_S) & (t < enable_t)
        f_dom = metrics.dominant_frequency(w[seg], 1.0 / (t[1] - t[0]))
        report.metrics["divergence_dominant_hz"] = f_dom
        f_peak = sc.plant_params.peak.freq_hz
        report.add_check("divergence_frequency", abs(f_dom - f_peak) <= 1.0,
                         f"dominant oscillation {f_dom:.2f} Hz (plant peak "
                         f"{f_peak:.2f} +/- 1 Hz required)")

    if not _cut_unmeasured(report, sc, enable_t, enable_t + 3.0,
                           "notch_on_convergence"):
        tc, env = metrics.amplitude_envelope(t, w)
        e_at = env[np.argmin(np.abs(tc - enable_t))]
        e_after = env[np.argmin(np.abs(tc - (enable_t + 3.0)))]
        ratio = e_after / e_at if e_at > 0 else float("inf")
        report.metrics["envelope_ratio_3s_after_enable"] = ratio
        report.add_check("notch_on_convergence", ratio < 0.5,
                         f"envelope shrank to {ratio:.3f} of enable value within 3 s "
                         "(< 0.5 required)")


def _checks_rate_step(sc: Scenario, telemetry: np.ndarray, report: RunReport,
                     simlog: np.ndarray | None):
    t = telemetry[:, 0]
    w = telemetry[:, _telemetry_col("w_meas_y")]
    cmd = telemetry[:, _telemetry_col("w_cmd_y")]
    steps = _measured_events(sc)
    if not _cut_unmeasured(report, sc, steps[0].t, steps[-1].t + STEP_WINDOW_S,
                           "rate_step_overshoot"):
        worst = 0.0
        prev = 0.0
        for e in steps:
            target = e.args.get("y", 0.0)
            # a response that stays short of the target has no excursion
            # past it: that is not 0 % overshoot but an unmeasured step
            window = t <= e.t + STEP_WINDOW_S
            if target != prev and math.isnan(
                    metrics.rise_time(t[window], w[window], e.t, prev, target)):
                report.add_check("rate_step_overshoot", False,
                                 "not measured: the response never reached 90 % "
                                 f"of the step at {e.t:g} s")
                break
            ov = metrics.overshoot_pct(t, w, e.t, prev, target,
                                       settle_window_s=STEP_WINDOW_S)
            worst = max(worst, ov)
            prev = target
        else:
            report.metrics["worst_overshoot_pct"] = worst
            # a type-2 loop (plant integrator + PID integrator) cannot avoid
            # step overshoot: the error integral must converge to zero, so the
            # error changes sign.  With the reference gains the slow
            # integrator hump is ~11 %; the 5 % bound stays as the design
            # target (see README notes).
            report.add_check("rate_step_overshoot", worst <= 5.0,
                             f"worst overshoot {worst:.2f} % (<= 5 % required)")
    if not _cut_unmeasured(report, sc, steps[0].t, steps[0].t + STEP_WINDOW_S,
                           "rate_step_rise"):
        first = steps[0]
        target = first.args.get("y", 0.0)
        rt = metrics.rise_time(t, w, first.t, 0.0, target)
        report.metrics["rise_time_s"] = rt
        if target == 0.0:
            detail = (f"not measured: the first rate_cmd, at {first.t:g} s, "
                      "is a zero step")
        elif math.isnan(rt):
            detail = ("the response never reached 90 % of the step "
                      "(a 10-90 % rise time <= 0.5 s required)")
        else:
            detail = f"10-90 % rise time {rt:.3f} s (<= 0.5 s required)"
        report.add_check("rate_step_rise", rt <= 0.5, detail)
    # tracking error over the last 0.5 s before each subsequent edge
    at = report.metrics.get("diverged_at_s")
    if len(steps) > 1 and (at is None or steps[-1].t <= at):
        errs = []
        for e in steps[1:]:
            m = (t >= e.t - 0.5) & (t < e.t)
            errs.append(w[m] - cmd[m])
        rms = float(np.sqrt(np.mean(np.concatenate(errs) ** 2)))
        report.metrics["settled_rms_error"] = rms


def _checks_transition(sc: Scenario, telemetry: np.ndarray, report: RunReport,
                       simlog: np.ndarray | None):
    t = simlog[:, 0]
    if not _cut_unmeasured(report, sc, 0.0, sc.duration_s, "altitude_hold"):
        alt = -simlog[:, SIMLOG_HEADER.index("pz")]
        alt_err = np.max(np.abs(alt - sc.initial_altitude_m))
        report.metrics["max_altitude_error_m"] = float(alt_err)
        report.add_check("altitude_hold", alt_err < 2.0,
                         f"max |altitude error| {alt_err:.3f} m (< 2 m required)")

    # the first-order fit and the overshoot both look FIT_WINDOW_S past the step
    step_ev = _measured_events(sc)[-1]
    if _cut_unmeasured(report, sc, step_ev.t, step_ev.t + metrics.FIT_WINDOW_S,
                       "stepback_first_order", "stepback_overshoot"):
        return
    # pitch angle series from the logged quaternion
    pitch = np.array([quat.quat_to_euler_zxy(quat.normalize(q)).pitch
                      for q in simlog[:, 7:11].tolist()])
    tau, r2 = metrics.first_order_fit(t, pitch, step_ev.t)
    p0 = pitch[np.argmin(np.abs(t - step_ev.t))]
    ov = metrics.overshoot_pct(t, pitch, step_ev.t, p0, step_ev.args["pitch"],
                               settle_window_s=metrics.FIT_WINDOW_S)
    report.metrics["stepback_tau_s"] = tau
    report.metrics["stepback_r_squared"] = r2
    report.metrics["stepback_overshoot_pct"] = ov
    report.add_check("stepback_first_order", r2 > 0.95,
                     f"first-order fit R^2 {r2:.4f} (> 0.95 required)")
    report.add_check("stepback_overshoot", ov < 5.0,
                     f"overshoot {ov:.2f} % (< 5 % required)")


# each suite takes (scenario, telemetry rows, report, state-log rows), the
# state log None on linear-axis runs
CHECK_SUITES = {
    "notch_ab": _checks_notch_ab,
    "rate_step": _checks_rate_step,
    "transition": _checks_transition,
}


def run_scenario(source, out_dir="out", seed=None) -> RunReport:
    """Execute a scenario by builtin name, config path, or Scenario object.

    Writes the telemetry CSV (and the state log for nonlinear runs), then
    runs the scenario's check suite on the arrays those files hold.
    Divergence is recorded as a metric, not raised.
    """
    if isinstance(source, Scenario):
        sc = source
    elif str(source) in builtin_scenarios():
        sc = builtin_scenarios()[str(source)]
    else:
        sc = from_config(Scenario, load_json(source))
    if seed is not None:
        sc = replace(sc, seed=int(seed))

    out_dir = Path(out_dir)
    report = RunReport(sc.name)
    log = run_linear_axis(sc) if sc.mode == "linear-axis" else run_nonlinear(sc)

    report.artifacts.append(str(write_csv(out_dir / f"{sc.name}_telemetry.csv",
                                          TELEMETRY_HEADER, log.telemetry)))
    if log.simlog is not None:
        report.artifacts.append(str(write_csv(out_dir / f"{sc.name}_simlog.csv",
                                              SIMLOG_HEADER, log.simlog)))

    report.metrics["diverged"] = log.diverged_at is not None
    if log.diverged_at is not None:
        report.metrics["diverged_at_s"] = log.diverged_at

    # every metric comes from the rows just written, as logged
    if sc.check_suite is not None:
        CHECK_SUITES[sc.check_suite](sc, log.telemetry, report, log.simlog)
    report.write(out_dir)
    return report


# ---------------------------------------------------------------------------
# design pipeline


_PITCH_DESIGN = RateLoopConfig.reference_pitch_design()


@dataclass(frozen=True)
class PipelineConfig:
    """Sweep -> identify -> design pipeline settings.

    The FRF stage defaults to 60 cycles per window (finer than the general
    default because the structural peak is only ~3 % wide) and deconvolves
    the known 250 Hz command hold.  The loop defaults are the pitch axis of
    ``RateLoopConfig.reference_pitch_design``.  Values the stages would
    reject mid-run are rejected here, before anything is simulated or
    written.
    """

    chirp: ChirpConfig = field(default_factory=ChirpConfig)
    true_params: PlantFitParams = field(default_factory=PlantFitParams.reference)
    n_freqs: int = 64
    cycles_per_window: float = 60.0
    noise_std: float = 0.0
    seed: int = 3
    kp: float = _PITCH_DESIGN.kp[1]
    ki: float = _PITCH_DESIGN.ki[1]
    kd: float = _PITCH_DESIGN.kd[1]
    deriv_corner_hz: float = _PITCH_DESIGN.deriv_corner_hz
    notch_k1: float = _PITCH_DESIGN.notches[1].k1
    notch_k2: float = _PITCH_DESIGN.notches[1].k2
    slope_band: tuple[float, float] = (0.6, 14.0)

    def __post_init__(self):
        if not self.chirp.f0 < self.chirp.f1:
            raise ValueError("chirp: the FRF band needs f0 < f1")
        if self.n_freqs < 2:
            raise ValueError("n_freqs: need at least 2 frequencies to span the band")
        if not self.cycles_per_window > 0.0:
            raise ValueError("cycles_per_window: must be > 0")
        if not self.noise_std >= 0.0:
            raise ValueError("noise_std: must be >= 0")
        check_plant_peak(self.true_params, "true_params")
        check_linear_axis_plant(self.true_params, "true_params")
        # a bin the fit may trust averages two or more windows
        share = averaged_bin_share(self.chirp.n_samples, self.n_freqs,
                                   self.chirp.f0, self.chirp.f1,
                                   self.cycles_per_window)
        if share < MIN_TRUSTED_SHARE:
            raise ValueError(f"chirp: too short for its FRF windows: {share:.0%} "
                             "of the bins average two or more, the fit needs "
                             f"{MIN_TRUSTED_SHARE:.0%}")
        if not 0.0 < self.slope_band[0] < self.slope_band[1]:
            raise ValueError("slope_band: need 0 < f_lo < f_hi")
        RateLoopConfig(deriv_corner_hz=self.deriv_corner_hz)  # the loop's bound
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
    g_max = max_stable_gain(loop_base, lo, hi)
    if g_max == 0.0:
        return 0.0, None
    return g_max, margins(g_max * loop_base).gain_crossover_hz


def design_pipeline(cfg: PipelineConfig | None = None, out_dir="out") -> RunReport:
    """Reproduce the identification-then-loop-shaping flow on the simulator.

    Stages: chirp sweep against the linear plant, FRF estimation, parametric
    fit, notch placement at the fitted peak, margins and slope of the
    designed loop, and the notch-free loop's resonance, Nyquist verdict and
    stability-limited bandwidth for comparison.  Emits Bode CSVs for plant,
    compensator and open loop, the FRF, and a fit report.  A sweep that
    diverges fails ``sweep_bounded`` after writing the rows it recorded, and
    too few trusted FRF bins to fit fail ``fit_converged``, as a stalled fit
    does, and a designed or notch-free loop whose response is not finite on
    the Nyquist grid fails ``loop_finite``; each of these writes the report
    and stops there.
    """
    cfg = cfg or PipelineConfig()
    out_dir = Path(out_dir)
    report = RunReport("design_pipeline")

    plant = LinearAxisPlant(cfg.true_params)
    sweep = sweep_experiment(plant, cfg.chirp, noise_std=cfg.noise_std,
                             seed=cfg.seed)
    sweep_path = write_csv(
        out_dir / "sweep_io.csv",
        ["t", "u_injected", "u_total", "omega_meas"],
        np.column_stack([np.arange(sweep.total_input.size) / CONTROL_RATE_HZ,
                         sweep.injected, sweep.total_input, sweep.measured]),
    )
    report.artifacts.append(str(sweep_path))
    if sweep.diverged_at is not None:
        report.metrics["sweep_diverged_at_s"] = sweep.diverged_at
        report.add_check("sweep_bounded", False,
                         f"the response passed {DIVERGENCE_LIMIT:g} rad/s at "
                         f"t = {sweep.diverged_at:.3f} s from the chirp start, "
                         "so nothing was identified")
        report.write(out_dir)
        return report

    frf = estimate_frf(
        sweep.total_input, sweep.measured, cfg.n_freqs,
        cfg.chirp.f0, cfg.chirp.f1,
        cycles_per_window=cfg.cycles_per_window,
        correct_hold=True,
    )
    report.artifacts.append(str(write_frf_csv(out_dir / "frf.csv", frf)))
    trusted = float(np.mean(frf.trusted))
    report.metrics["frf_trusted_fraction"] = trusted
    if trusted < MIN_TRUSTED_SHARE:
        report.metrics["fit_converged"] = False
        report.add_check("fit_converged", False,
                         f"not run: {trusted:.0%} of the FRF bins are "
                         f"coherence-trusted, the fit needs {MIN_TRUSTED_SHARE:.0%}")
        report.write(out_dir)
        return report

    fit = fit_plant_model(frf, seed=cfg.seed)
    report.metrics["fit_converged"] = fit.converged
    report.metrics["fit_cost_per_bin"] = fit.cost_per_bin
    report.metrics["fit_evaluations"] = fit.evaluations
    if not fit.converged:
        report.add_check("fit_converged", False,
                         f"fit stalled at cost/bin {fit.cost_per_bin:.2f}")
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
    for k, v in to_config(p).items():
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
    comp = tf_series(pid, NotchConfig(p.peak.freq_hz, cfg.notch_k1,
                                      cfg.notch_k2).tf())
    loop = tf_series(plant_fit_tf, comp)
    base = tf_series(plant_fit_tf, pid)  # the same loop without the notch
    # a response that is not finite on the Nyquist grid (an overflow, or a
    # sample tf_eval flags as on a pole) has no winding count
    turns = nyquist_encirclements(loop)
    free_turns = nyquist_encirclements(base)
    unbounded = [name for name, n in (("designed", turns), ("notch-free", free_turns))
                 if n is None]
    if unbounded:
        f_lo, f_hi = NYQUIST_BAND_HZ
        report.add_check("loop_finite", False,
                         f"{' and '.join(unbounded)} open-loop response not finite "
                         f"on the Nyquist grid [{f_lo:g}, {f_hi:g}] Hz (an overflow, "
                         "or a sample on a pole): nothing past the fit is measured")
        report.write(out_dir)
        return report

    m = margins(loop)
    report.metrics["loop_peak_mag_db"] = 20.0 * math.log10(
        abs(tf_eval(loop, p.peak.freq_hz)))
    report.metrics["closed_loop_stable"] = turns == 0
    if m.has_gain_crossover:
        report.metrics["crossover_hz"] = m.gain_crossover_hz
        report.metrics["phase_margin_deg"] = m.phase_margin_deg
        if m.gain_margin_db is not None:
            report.metrics["gain_margin_db"] = m.gain_margin_db
            report.metrics["phase_crossover_hz"] = m.phase_crossover_hz
    slope = magnitude_slope(loop, *cfg.slope_band)
    report.metrics["slope_db_per_decade"] = slope

    no_crossover = "no gain crossover in [{:g}, {:g}] Hz".format(*MARGINS_BAND_HZ)
    report.add_check(
        "crossover_band", m.has_gain_crossover
        and 5.8 <= m.gain_crossover_hz <= 7.8,
        (f"gain crossover {m.gain_crossover_hz:.3f} Hz"
         if m.has_gain_crossover else no_crossover)
        + " (reference 6.8, accepted [5.8, 7.8])",
    )
    report.add_check(
        "phase_margin_band", m.has_gain_crossover
        and 36.0 <= m.phase_margin_deg <= 52.0,
        (f"phase margin {m.phase_margin_deg:.2f} deg"
         if m.has_gain_crossover else no_crossover)
        + " (reference 44, accepted [36, 52])",
    )
    report.add_check(
        "slope_band", -22.0 <= slope <= -16.0,
        f"magnitude slope {slope:.2f} dB/dec over "
        f"[{cfg.slope_band[0]}, {cfg.slope_band[1]}] Hz "
        "(reference -19, accepted [-22, -16])",
    )

    # the same loop without the notch: the mode's resonance above 0 dB makes
    # it unstable, and a pure gain sweep finds its best stable bandwidth,
    # which the notch must beat
    free_peak_db = 20.0 * math.log10(abs(tf_eval(base, p.peak.freq_hz)))
    free_stable = free_turns == 0
    report.metrics["notch_free_peak_mag_db"] = free_peak_db
    report.metrics["notch_free_stable"] = free_stable
    report.add_check(
        "no_notch_flagged_unstable", free_peak_db > 0.0 and not free_stable,
        f"notch-free resonance at {free_peak_db:.2f} dB (> 0 dB) and Nyquist "
        f"{'stable' if free_stable else 'unstable'}",
    )
    g_free, bw_free = _max_stable_gain_crossover(base)
    report.metrics["notch_free_max_gain"] = g_free
    if bw_free is not None:
        report.metrics["notch_free_max_crossover_hz"] = bw_free
    ok = False
    if not m.has_gain_crossover:
        detail = f"not measured: the notched loop has {no_crossover}"
    elif g_free == 0.0:
        detail = ("not measured: the notch-free loop is unstable at "
                  "every swept gain")
    elif bw_free is None:
        detail = ("not measured: the notch-free loop at its largest "
                  f"stable gain {g_free:.4g} has {no_crossover}")
    else:
        gain_pct = 100.0 * (m.gain_crossover_hz / bw_free - 1.0)
        report.metrics["bandwidth_gain_pct"] = gain_pct
        ok = gain_pct >= 50.0
        detail = (f"notch-enabled crossover {m.gain_crossover_hz:.2f} Hz vs "
                  f"notch-free stable limit {bw_free:.2f} Hz: "
                  f"+{gain_pct:.0f} % (>= 50 % required)")
    report.add_check("bandwidth_gain", ok, detail)

    report.artifacts.append(str(write_bode_csv(out_dir / "bode_plant_fit.csv",
                                               plant_fit_tf)))
    report.artifacts.append(str(write_bode_csv(out_dir / "bode_compensator.csv",
                                               comp)))
    report.artifacts.append(str(write_bode_csv(out_dir / "bode_open_loop.csv",
                                               loop)))
    # runnable 250 Hz form of the designed compensator
    cascade = discretize_tustin(comp, CONTROL_RATE_HZ, prewarp_hz=p.peak.freq_hz)
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
