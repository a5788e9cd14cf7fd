"""Frequency-domain identification: chirp excitation, FRF estimation with
frequency-dependent resolution, and parametric fitting of the plant structure.

The estimator realizes frequency-dependent resolution as constant
cycles-per-window Welch averaging: each output frequency gets its own
window length (long at low frequency, short at high frequency), Hann
weighting, 50 % overlap, and a single-bin DFT evaluated exactly at the
target frequency.  Coherence below the threshold marks a bin untrusted
rather than dropping it.

The parametric fit minimizes the coherence-weighted log-magnitude and
unwrapped-phase error (Tischler & Remple, Aircraft and Rotorcraft System
Identification, 2012) with restarted Nelder-Mead.  Its objective is built
once per fit with the data side precomputed, and evaluates the plant
structure of ``lti.fitted_plant`` as a product of its factors on the FRF
grid rather than as a composed transfer function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .lti import PlantFitParams, ResonanceParams, butterworth2, tf_eval
from .plant import PLANT_RATE_HZ

WINDOW_OVERLAP = 0.5  # of consecutive FRF windows
MIN_WINDOW_SAMPLES = 16  # shortest FRF window, and so the shortest series
COHERENCE_THRESHOLD = 0.6  # an FRF bin is trusted from this coherence up
# Parametric fit.  The measurement-filter corner is known flight-stack
# configuration, not optimized: sweep data rarely reaches far past it.
PHASE_WEIGHT = 0.1
FIT_RESTARTS = 5
FIT_MAX_ITERATIONS = 4000
CONVERGENCE_COST_PER_BIN = 3.0
KNOWN_LF_CORNER_HZ = 69.0
# Closed-loop sweep: the proportional rate loop that holds the vehicle, the
# settling time before the chirp starts, and the response that aborts it.
STABILIZING_GAIN = 0.05
SETTLE_S = 2.0
DIVERGENCE_LIMIT = 50.0  # rad/s

__all__ = [
    "ChirpConfig",
    "TimeSeries",
    "FRFEstimate",
    "FitResult",
    "SweepData",
    "SweepDivergence",
    "chirp",
    "averaged_bin_share",
    "estimate_frf",
    "fit_plant_model",
    "sweep_experiment",
]


@dataclass(frozen=True)
class ChirpConfig:
    """Exponential sweep from f0 to f1 over T seconds, amplitude A.

    The instantaneous frequency is f0 * k**t with k = (f1/f0)**(1/T), so it
    grows geometrically and reaches f1 exactly at t = T.  f0 == f1 is the
    degenerate pure-sinusoid branch.
    """

    f0: float = 1.0
    f1: float = 60.0
    duration_s: float = 60.0
    amplitude: float = 0.1
    sample_hz: float = 250.0

    def __post_init__(self):
        if not 0.0 < self.f0 <= self.f1 < 0.5 * self.sample_hz:
            raise ValueError("need 0 < f0 <= f1 < sample_hz/2")
        if self.duration_s <= 0.0 or self.amplitude <= 0.0:
            raise ValueError("duration and amplitude must be positive")


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled scalar signal."""

    sample_hz: float
    values: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("values must be 1-D")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", v)
        v.flags.writeable = False

    @property
    def times(self):
        return self.t0 + np.arange(self.values.size) / self.sample_hz

    def __len__(self):
        return self.values.size


def chirp(cfg: ChirpConfig) -> TimeSeries:
    """Sampled exponential chirp u(t) = A sin(phi(t)), u(0) = 0 exactly."""
    n = int(round(cfg.duration_s * cfg.sample_hz))
    t = np.arange(n) / cfg.sample_hz
    if cfg.f1 == cfg.f0:
        phi = 2.0 * math.pi * cfg.f0 * t
    else:
        k = (cfg.f1 / cfg.f0) ** (1.0 / cfg.duration_s)
        phi = 2.0 * math.pi * cfg.f0 * (np.power(k, t) - 1.0) / math.log(k)
    return TimeSeries(cfg.sample_hz, cfg.amplitude * np.sin(phi))


@dataclass(frozen=True, eq=False)
class FRFEstimate:
    """Nonparametric frequency response with per-bin coherence.

    ``trusted`` marks bins whose coherence reaches ``COHERENCE_THRESHOLD``;
    untrusted bins stay in the arrays so nothing is dropped silently.
    """

    freqs: np.ndarray
    response: np.ndarray
    coherence: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freqs, dtype=float)
        h = np.asarray(self.response, dtype=complex)
        c = np.asarray(self.coherence, dtype=float)
        if not (f.shape == h.shape == c.shape) or f.ndim != 1:
            raise ValueError("freqs, response, coherence must be same-shape 1-D")
        if np.any(np.diff(f) <= 0.0):
            raise ValueError("freqs must be strictly increasing")
        if np.any((c < -1e-12) | (c > 1.0 + 1e-12)):
            raise ValueError("coherence must lie in [0, 1]")
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "response", h)
        object.__setattr__(self, "coherence", np.clip(c, 0.0, 1.0))

    @property
    def trusted(self):
        return self.coherence >= COHERENCE_THRESHOLD

    @property
    def magnitude_db(self):
        return 20.0 * np.log10(np.abs(self.response))

    def unwrapped_phase_deg(self):
        """Phase unwrapped along the trusted bins only.

        A garbage untrusted bin must not inject a 360-degree jump into every
        later bin, so the unwrap chain skips untrusted entries; those are
        filled by interpolation (they carry zero weight downstream anyway).
        """
        raw = np.angle(self.response)
        t = self.trusted
        if not np.any(t):
            return np.degrees(np.unwrap(raw))
        out = np.empty_like(raw)
        idx = np.flatnonzero(t)
        out[idx] = np.unwrap(raw[idx])
        out[~t] = np.interp(np.flatnonzero(~t), idx, out[idx])
        return np.degrees(out)


def _frf_freqs(f_lo, f_hi, n_freqs):
    """The log-spaced output grid of estimate_frf."""
    return np.logspace(math.log10(f_lo), math.log10(f_hi), n_freqs)


def _windows(n, f, sample_hz, cycles_per_window):
    """Length and start indices of the windows averaged at frequency f."""
    win_len = int(round(cycles_per_window * sample_hz / f))
    win_len = max(MIN_WINDOW_SAMPLES, min(win_len, n))
    step = max(1, int(round(win_len * (1.0 - WINDOW_OVERLAP))))
    return win_len, range(0, n - win_len + 1, step)


def averaged_bin_share(n_samples, sample_hz, n_freqs, f_lo, f_hi,
                       cycles_per_window):
    """Share of the estimate_frf bins that average two or more windows (a
    bin with one window gets coherence 0, so it is never trusted)."""
    return float(np.mean([
        len(_windows(n_samples, f, sample_hz, cycles_per_window)[1]) >= 2
        for f in _frf_freqs(f_lo, f_hi, n_freqs)]))


def _single_bin_spectra(u, y, f, sample_hz, cycles_per_window):
    """Averaged auto/cross spectra at one frequency via windowed DFT bins."""
    win_len, starts = _windows(u.size, f, sample_hz, cycles_per_window)
    window = np.hanning(win_len)
    probe = window * np.exp(-2j * np.pi * f * np.arange(win_len) / sample_hz)
    suu = syy = 0.0
    suy = 0.0 + 0.0j
    for s in starts:
        fu = probe @ u[s : s + win_len]
        fy = probe @ y[s : s + win_len]
        suu += (fu * fu.conjugate()).real
        syy += (fy * fy.conjugate()).real
        suy += fu.conjugate() * fy
    count = len(starts)
    return suu / count, suy / count, syy / count, count


def estimate_frf(u: TimeSeries, y: TimeSeries, n_freqs: int = 64,
                 f_lo: float = 1.0, f_hi: float = 60.0,
                 cycles_per_window: float = 20.0,
                 hold_rate_hz: float | None = None,
                 plant_rate_hz: float | None = None) -> FRFEstimate:
    """H(f) = S_uy/S_uu with frequency-dependent window lengths.

    The output grid is log-spaced over [f_lo, f_hi]; the window at each
    frequency spans ``cycles_per_window`` periods, which trades variance for
    resolution uniformly across the band.  Coherence is
    |S_uy|^2 / (S_uu S_yy) over the averaged segments.

    ``hold_rate_hz`` and ``plant_rate_hz``, given together, deconvolve the
    exact discrete staircase of the command hold so the estimate refers to
    the plant alone: each command latched at t_k drives the plant substeps
    over (t_k, t_k + 1/hold_rate], whose centroid sits half a plant sample
    later than a continuous zero-order hold.  Resolving a resonance whose
    relative width is 2*zeta requires roughly ``cycles_per_window > 2/zeta``; the default favors variance.
    """
    if u.sample_hz != y.sample_hz or len(u) != len(y):
        raise ValueError("input and output series must share rate and length")
    if len(u) < MIN_WINDOW_SAMPLES:
        raise ValueError(f"series of {len(u)} samples is shorter than the "
                         f"{MIN_WINDOW_SAMPLES}-sample FRF window")
    if not 0.0 < f_lo < f_hi < 0.5 * u.sample_hz:
        raise ValueError("need 0 < f_lo < f_hi < Nyquist")
    if (hold_rate_hz is None) != (plant_rate_hz is None):
        raise ValueError("hold_rate_hz and plant_rate_hz go together")
    freqs = _frf_freqs(f_lo, f_hi, n_freqs)
    h = np.empty(n_freqs, dtype=complex)
    coh = np.empty(n_freqs)
    uu = u.values
    yy = y.values
    for i, f in enumerate(freqs):
        suu, suy, syy, count = _single_bin_spectra(
            uu, yy, f, u.sample_hz, cycles_per_window
        )
        if suu <= 0.0 or syy <= 0.0:
            h[i] = 0.0
            coh[i] = 0.0
            continue
        h[i] = suy / suu
        if count < 2:
            coh[i] = 0.0
        else:
            coh[i] = min(1.0, (abs(suy) ** 2) / (suu * syy))
    if hold_rate_hz is not None:
        h = h / _hold_response(freqs, hold_rate_hz, plant_rate_hz)
    return FRFEstimate(freqs, h, coh)


def _hold_response(freqs, hold_rate_hz, plant_rate_hz):
    """Frequency response of the command hold's staircase at the plant rate."""
    f = np.asarray(freqs, dtype=float)
    s = int(round(plant_rate_hz / hold_rate_hz))
    theta = 2.0 * np.pi * f / plant_rate_hz
    return (np.exp(-0.5j * theta * (s + 1))
            * np.sin(0.5 * s * theta) / (s * np.sin(0.5 * theta)))


@dataclass(frozen=True)
class FitResult:
    params: PlantFitParams
    cost: float
    cost_per_bin: float
    converged: bool
    stage1: PlantFitParams
    restart_costs: tuple
    evaluations: int  # objective calls, summed over the restarts


def _stage1_initial(frf: FRFEstimate) -> PlantFitParams:
    """Heuristic initialization from the raw FRF.

    Resonances come from coherence-weighted extrema of the detrended
    magnitude, the delay from the high-frequency phase slope, and the
    low-frequency gain from the |H * jw| plateau.  A bin whose magnitude
    has no finite log (a zero response) is filled by interpolation over the
    finite bins, so it cannot sink the smoothed baseline.
    """
    f = frf.freqs
    with np.errstate(divide="ignore", invalid="ignore"):
        mag_db = frf.magnitude_db
    bad = ~np.isfinite(mag_db)
    if np.any(bad):
        mag_db[bad] = np.interp(f[bad], f[~bad], mag_db[~bad])
    trusted = frf.trusted

    # low-frequency gain: integrator-compensated plateau
    lo = trusted & (f <= f[0] * 3.0)
    if not np.any(lo):
        lo = np.arange(f.size) < max(3, f.size // 8)
    gain = float(np.median(np.abs(frf.response[lo]) * 2.0 * np.pi * f[lo]))
    gain = max(gain, 1e-6)

    # detrend against a smoothed baseline so the sharp modes stand out
    k = max(3, f.size // 12)
    pad = np.pad(mag_db, k, mode="edge")
    baseline = np.convolve(pad, np.ones(2 * k + 1) / (2 * k + 1), mode="valid")
    resid = np.where(trusted, mag_db - baseline, 0.0)

    band = (f >= 4.0) & (f <= 0.85 * f[-1])
    peak_idx = int(np.argmax(np.where(band, resid, -np.inf)))
    f_peak = float(f[peak_idx])
    above = band & (f > f_peak)
    if np.any(above):
        anti_idx = int(np.argmin(np.where(above, resid, np.inf)))
        f_anti = float(f[anti_idx])
    else:
        f_anti = min(2.0 * f_peak, 0.9 * f[-1])

    # delay from the phase slope over the top half-decade (the rational part
    # contributes a roughly constant extra slope that stage 2 absorbs)
    hi = trusted & (f >= f[-1] / math.sqrt(10.0))
    if np.count_nonzero(hi) < 2:
        hi = f >= f[-1] / math.sqrt(10.0)
    ph = np.radians(frf.unwrapped_phase_deg())
    slope = np.polyfit(f[hi], ph[hi], 1)[0]
    delay = max(1e-4, min(0.1, -slope / (2.0 * math.pi)))

    peak_gain_db = float(resid[peak_idx])
    depth = 10.0 ** (max(peak_gain_db, 3.0) / 20.0)
    return PlantFitParams(
        lf_corner_hz=KNOWN_LF_CORNER_HZ,
        main_num=(gain, gain / 70.0, gain / 19000.0),
        main_pole_tc=0.06,
        peak=ResonanceParams(f_peak, 0.2, 0.2 / depth),
        anti=ResonanceParams(f_anti, 0.02, 0.2),
        delay_s=delay,
    )


def _params_to_vector(p: PlantFitParams):
    return np.array([
        math.log(p.main_num[0]),
        math.log(p.main_num[1]),
        math.log(p.main_num[2]),
        math.log(p.main_pole_tc),
        math.log(p.peak.freq_hz),
        math.log(p.peak.num_damp),
        math.log(p.peak.den_damp),
        math.log(p.anti.freq_hz),
        math.log(p.anti.num_damp),
        math.log(p.anti.den_damp),
        math.log(max(p.delay_s, 1e-5)),
    ])


def _vector_to_params(x) -> PlantFitParams:
    e = np.exp(np.clip(x, -40.0, 40.0))
    return PlantFitParams(
        lf_corner_hz=KNOWN_LF_CORNER_HZ,
        main_num=(float(e[0]), float(e[1]), float(e[2])),
        main_pole_tc=float(e[3]),
        peak=ResonanceParams(float(e[4]), float(e[5]), float(e[6])),
        anti=ResonanceParams(float(e[7]), float(e[8]), float(e[9])),
        delay_s=float(min(e[10], 0.1)),
    )


class _FitObjective:
    """The fit cost of one FRF as a function of the log-parameter vector.

    Everything that depends only on the data is computed once: the
    coherence weights, the data's log-magnitude and unwrapped phase, s and
    s^2 on the grid, and the fixed measurement-filter response.  Each call
    then evaluates the factors of ``fitted_plant`` on the grid and
    multiplies them, with the same clip and delay clamp as
    ``_vector_to_params``; no transfer function is built.  The delay enters
    only as its exact phase, -360 f delay degrees, so the model's rational
    phase is unwrapped on its own, as ``lti.unwrapped_phase_deg`` does.
    """

    def __init__(self, frf: FRFEstimate):
        f = frf.freqs
        self.weight = np.where(frf.trusted, frf.coherence, 0.0)
        # log10 of the weighted bins only (0 elsewhere): a zero-weight bin
        # may hold a zero response, whose log would turn 0 x inf into NaN
        self.log_mag = np.log10(np.where(self.weight > 0.0,
                                         np.abs(frf.response), 1.0))
        self.phase_deg = frf.unwrapped_phase_deg()
        w = 2.0 * np.pi * f
        self.s = 1j * w
        self.s2 = -w * w  # s^2 on the imaginary axis is real
        self.lf = tf_eval(butterworth2(KNOWN_LF_CORNER_HZ), f)
        self.delay_phase_deg = 360.0 * f

    def rational_response(self, x):
        """(delay-free model response on the grid, delay in s) for vector x."""
        b0, b1, b2, tc, fp, pn, pd, fa, an, ad, delay = np.exp(
            np.clip(x, -40.0, 40.0)).tolist()
        s, s2 = self.s, self.s2
        wp = 2.0 * math.pi * fp
        wa = 2.0 * math.pi * fa
        q_p = 1.0 + s2 / (wp * wp)
        q_a = 1.0 + s2 / (wa * wa)
        h = (self.lf * (b0 + b1 * s + b2 * s2) / (s + tc * s2)
             * (q_p + (pn / wp) * s) / (q_p + (pd / wp) * s)
             * (q_a + (an / wa) * s) / (q_a + (ad / wa) * s))
        return h, min(delay, 0.1)

    def __call__(self, x):
        h, delay = self.rational_response(x)
        dmag = 20.0 * (np.log10(np.abs(h)) - self.log_mag)
        dph = (np.degrees(np.unwrap(np.angle(h)))
               - self.delay_phase_deg * delay - self.phase_deg)
        return float(np.sum(self.weight * (dmag**2 + PHASE_WEIGHT * dph**2)))


def fit_plant_model(frf: FRFEstimate, seed: int = 0) -> FitResult:
    """Two-stage fit of the identified-plant structure to an FRF.

    Stage 1 initializes from FRF features; stage 2 runs Nelder-Mead on the
    coherence-weighted [log-magnitude, unwrapped-phase] error with random
    restarts drawn from ``seed`` (lowest cost wins, ties broken by restart
    index).  The objective (``_FitObjective``) is built once per fit: it
    precomputes the data side and evaluates the model as a product of its
    factors on the FRF grid.  Requires at least half the bins trusted; a
    fit that never reaches the convergence threshold is returned flagged,
    carrying the stage-1 parameters.
    """
    if np.mean(frf.trusted) < 0.5:
        raise ValueError("fewer than half the FRF bins are coherence-trusted")
    zero = np.flatnonzero(frf.trusted & ~(np.abs(frf.response) > 0.0))
    if zero.size:
        i = int(zero[0])
        raise ValueError(f"FRF bin {i} ({frf.freqs[i]:.4g} Hz) is trusted but "
                         "its response is zero")
    stage1 = _stage1_initial(frf)
    x0 = _params_to_vector(stage1)
    rng = np.random.default_rng(seed)
    objective = _FitObjective(frf)

    best = None
    costs = []
    evaluations = 0
    for restart in range(FIT_RESTARTS):
        xi = x0 if restart == 0 else x0 + rng.normal(0.0, 0.2, x0.shape)
        res = minimize(
            objective,
            xi,
            method="Nelder-Mead",
            options={
                "maxiter": FIT_MAX_ITERATIONS,
                "xatol": 1e-6,
                "fatol": 1e-9,
                "adaptive": True,
            },
        )
        costs.append(float(res.fun))
        evaluations += res.nfev
        if best is None or res.fun < best[0]:
            best = (float(res.fun), res.x.copy())

    n_bins = int(np.sum(frf.trusted))
    cost_per_bin = best[0] / max(n_bins, 1)
    converged = cost_per_bin <= CONVERGENCE_COST_PER_BIN
    params = _vector_to_params(best[1]) if converged else stage1
    return FitResult(
        params=params,
        cost=best[0],
        cost_per_bin=cost_per_bin,
        converged=converged,
        stage1=stage1,
        restart_costs=tuple(costs),
        evaluations=evaluations,
    )


class SweepDivergence(RuntimeError):
    """Simulated response left the small-signal envelope during the sweep."""

    def __init__(self, t):
        super().__init__(f"sweep diverged at t = {t:.3f} s")
        self.time_s = t


@dataclass(frozen=True, eq=False)
class SweepData:
    """Recorded sweep experiment channels at the controller rate."""

    injected: TimeSeries
    total_input: TimeSeries
    measured: TimeSeries


def sweep_experiment(plant, cfg: ChirpConfig, noise_std: float = 0.0,
                     seed: int = 0) -> SweepData:
    """Inject a chirp at the rate-controller output and record the response.

    ``plant`` is a LinearAxisPlant-like object (``step(u) -> rate`` at the
    1 kHz plant rate).  A plain proportional rate controller (gain
    ``STABILIZING_GAIN``, no notch) holds the loop around zero command
    while the sweep runs, as on the real vehicle; the chirp starts after
    ``SETTLE_S`` seconds.  The recorded total input is controller output
    plus injection; the output is the measured rate decimated to the chirp
    rate.  A response beyond ``DIVERGENCE_LIMIT`` rad/s aborts with the
    divergence time.
    """
    sub = int(round(PLANT_RATE_HZ / cfg.sample_hz))
    if sub < 1 or abs(PLANT_RATE_HZ - sub * cfg.sample_hz) > 1e-9:
        raise ValueError("plant rate must be an integer multiple of chirp rate")
    rng = np.random.default_rng(seed)
    u_inj = chirp(cfg).values
    n_settle = int(round(SETTLE_S * cfg.sample_hz))
    n = u_inj.size + n_settle

    u_total = np.zeros(n)
    y_meas = np.zeros(n)
    y = 0.0
    for i in range(n):
        # the measurement the controller (and the log) sees is sampled at
        # the tick start, before this tick's input acts
        meas = y + (rng.normal(0.0, noise_std) if noise_std > 0.0 else 0.0)
        tau = -STABILIZING_GAIN * meas
        inj = u_inj[i - n_settle] if i >= n_settle else 0.0
        u = tau + inj
        u_total[i] = u
        y_meas[i] = meas
        for _ in range(sub):
            y = plant.step(u)
        if abs(y) > DIVERGENCE_LIMIT:
            raise SweepDivergence(i / cfg.sample_hz)

    sl = slice(n_settle, n)
    return SweepData(
        injected=TimeSeries(cfg.sample_hz, u_inj),
        total_input=TimeSeries(cfg.sample_hz, u_total[sl]),
        measured=TimeSeries(cfg.sample_hz, y_meas[sl]),
    )
