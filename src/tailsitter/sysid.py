"""Frequency-domain identification: chirp excitation, FRF estimation with
frequency-dependent resolution, and parametric fitting of the plant structure.

Identification runs at the control rate ``plant.CONTROL_RATE_HZ``, the rate
the flight controller flies the sweep at: every series here is a plain 1-D
array sampled at that rate.

The estimator realizes frequency-dependent resolution as constant
cycles-per-window Welch averaging: each output frequency gets its own
window length (long at low frequency, short at high frequency), Hann
weighting, 50 % overlap, and a single-bin DFT evaluated exactly at the
target frequency.  Coherence below the threshold marks a bin untrusted
rather than dropping it.

The parametric fit is a weighted nonlinear least-squares problem on the
coherence-weighted log-magnitude and unwrapped-phase error (Tischler &
Remple, Aircraft and Rotorcraft System Identification, 2012), solved by
restarted Levenberg-Marquardt.  Its objective is built once per fit with
the data side precomputed, evaluates the plant structure of
``lti.fitted_plant`` as a product of its factors on the FRF grid rather than
as a composed transfer function, and returns the weighted residual rows.
It takes a stack of parameter vectors, so the independent restarts run in
lockstep and one numpy pass costs the Jacobians or trial steps all of them
need next.  The fit has one parameter vector, the ordered vector: stage 1
writes it, the solver moves it, and one decode, ``_positive``, turns it into
the 11 positive parameters for the objective and for the fitted
``PlantFitParams``.  For any value of the vector the peak amplifies, the
anti-resonance sits above the peak and attenuates, and the delay stays below
0.1 s.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .lti import (PlantFitParams, ResonanceParams, _unwrap_phase_deg, butterworth2,
                  tf_eval)
from .plant import CONTROL_RATE_HZ, hold_response

WINDOW_OVERLAP = 0.5  # of consecutive FRF windows
MIN_WINDOW_SAMPLES = 16  # shortest FRF window, and so the shortest series
COHERENCE_THRESHOLD = 0.6  # an FRF bin is trusted from this coherence up
MIN_TRUSTED_SHARE = 0.5  # of the FRF bins, for a parametric fit
# Parametric fit.  The measurement-filter corner is known flight-stack
# configuration, not optimized: sweep data rarely reaches far past it.
PHASE_WEIGHT = 0.1
FIT_RESTARTS = 10
FIT_MAX_ITERATIONS = 100  # Levenberg-Marquardt steps per restart
FIT_RTOL = 1e-10  # a restart stops at a smaller relative cost decrease
FIT_DIFF_STEP = 1e-7  # forward-difference step of the Jacobian
CONVERGENCE_COST_PER_BIN = 3.0
KNOWN_LF_CORNER_HZ = PlantFitParams.reference().lf_corner_hz
# Closed-loop sweep: the proportional rate loop that holds the vehicle, the
# settling time before the chirp starts, and the response that stops it.
STABILIZING_GAIN = 0.05
SETTLE_S = 2.0
DIVERGENCE_LIMIT = 50.0  # rad/s

__all__ = [
    "ChirpConfig",
    "FRFEstimate",
    "FitResult",
    "SweepData",
    "chirp",
    "averaged_bin_share",
    "estimate_frf",
    "fit_plant_model",
    "sweep_experiment",
]


@dataclass(frozen=True)
class ChirpConfig:
    """Exponential sweep from f0 to f1 over T seconds, amplitude A, sampled
    at ``CONTROL_RATE_HZ``.

    The instantaneous frequency is f0 * k**t with k = (f1/f0)**(1/T), so it
    grows geometrically and reaches f1 exactly at t = T.  f0 == f1 is the
    degenerate pure-sinusoid branch.
    """

    f0: float = 1.0
    f1: float = 60.0
    duration_s: float = 60.0
    amplitude: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.f0 <= self.f1 < 0.5 * CONTROL_RATE_HZ:
            raise ValueError(f"need 0 < f0 <= f1 < {0.5 * CONTROL_RATE_HZ:g} Hz, "
                             "half the control rate")
        if not (self.duration_s > 0.0 and self.amplitude > 0.0):
            raise ValueError("duration and amplitude must be positive")
        if not self.duration_s * CONTROL_RATE_HZ < sys.maxsize:
            raise ValueError(f"duration_s: {self.duration_s:g} s has more samples "
                             "than an array can index")

    @property
    def n_samples(self) -> int:
        """Length of the sampled sweep."""
        return round(self.duration_s * CONTROL_RATE_HZ)


def chirp(cfg: ChirpConfig) -> np.ndarray:
    """Sampled exponential chirp u(t) = A sin(phi(t)), u(0) = 0 exactly."""
    t = np.arange(cfg.n_samples) / CONTROL_RATE_HZ
    if cfg.f1 == cfg.f0:
        phi = 2.0 * math.pi * cfg.f0 * t
    else:
        k = (cfg.f1 / cfg.f0) ** (1.0 / cfg.duration_s)
        phi = 2.0 * math.pi * cfg.f0 * (np.power(k, t) - 1.0) / math.log(k)
    return cfg.amplitude * np.sin(phi)


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


def _windows(n, f, cycles_per_window):
    """Length and start indices of the windows averaged at frequency f."""
    win_len = int(round(cycles_per_window * CONTROL_RATE_HZ / f))
    win_len = max(MIN_WINDOW_SAMPLES, min(win_len, n))
    step = max(1, int(round(win_len * (1.0 - WINDOW_OVERLAP))))
    return win_len, range(0, n - win_len + 1, step)


def averaged_bin_share(n_samples, n_freqs, f_lo, f_hi, cycles_per_window):
    """Share of the estimate_frf bins that average two or more windows (a
    bin with one window gets coherence 0, so it is never trusted)."""
    return float(np.mean([
        len(_windows(n_samples, f, cycles_per_window)[1]) >= 2
        for f in _frf_freqs(f_lo, f_hi, n_freqs)]))


def _single_bin_spectra(u, y, f, cycles_per_window):
    """Averaged auto/cross spectra at one frequency via windowed DFT bins."""
    win_len, starts = _windows(u.size, f, cycles_per_window)
    window = np.hanning(win_len)
    probe = window * np.exp(-2j * np.pi * f * np.arange(win_len) / CONTROL_RATE_HZ)
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


def estimate_frf(u, y, n_freqs: int = 64, f_lo: float = 1.0, f_hi: float = 60.0,
                 cycles_per_window: float = 20.0,
                 correct_hold: bool = False) -> FRFEstimate:
    """H(f) = S_uy/S_uu from input u and output y, two 1-D arrays sampled at
    ``CONTROL_RATE_HZ``, with frequency-dependent window lengths.

    The output grid is log-spaced over [f_lo, f_hi]; the window at each
    frequency spans ``cycles_per_window`` periods, which trades variance for
    resolution uniformly across the band.  Coherence is
    |S_uy|^2 / (S_uu S_yy) over the averaged segments.

    ``correct_hold`` divides out ``plant.hold_response``, the staircase
    each control-rate command is held as by the plant's ``step``, so the
    estimate refers to the plant alone.  Resolving a resonance whose
    relative width is 2*zeta requires roughly ``cycles_per_window >
    2/zeta``; the default favors variance.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.ndim != 1 or y.ndim != 1:
        raise ValueError("input and output must be 1-D")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
        raise ValueError("input and output must be finite")
    if u.size != y.size:
        raise ValueError("input and output must have the same length")
    if u.size < MIN_WINDOW_SAMPLES:
        raise ValueError(f"series of {u.size} samples is shorter than the "
                         f"{MIN_WINDOW_SAMPLES}-sample FRF window")
    if not 0.0 < f_lo < f_hi < 0.5 * CONTROL_RATE_HZ:
        raise ValueError("need 0 < f_lo < f_hi < Nyquist")
    freqs = _frf_freqs(f_lo, f_hi, n_freqs)
    h = np.empty(n_freqs, dtype=complex)
    coh = np.empty(n_freqs)
    for i, f in enumerate(freqs):
        suu, suy, syy, count = _single_bin_spectra(u, y, f, cycles_per_window)
        if suu <= 0.0 or syy <= 0.0:
            h[i] = 0.0
            coh[i] = 0.0
            continue
        h[i] = suy / suu
        if count < 2:
            coh[i] = 0.0
        else:
            coh[i] = min(1.0, (abs(suy) ** 2) / (suu * syy))
    if correct_hold:
        h = h / hold_response(freqs)
    return FRFEstimate(freqs, h, coh)


@dataclass(frozen=True)
class FitResult:
    params: PlantFitParams
    cost: float
    cost_per_bin: float
    converged: bool
    restart_costs: tuple
    evaluations: int  # points evaluated, summed over the restarts


# entries of the ordered vector that hold the log of a gap above another
# entry, and those entries
_ABOVE, _BELOW = [5, 7, 9], [6, 4, 8]


def _stage1_initial(frf: FRFEstimate) -> np.ndarray:
    """Heuristic initialization from the raw FRF, as an ordered vector.

    Resonances come from coherence-weighted extrema of the detrended
    magnitude, the delay from the high-frequency phase slope, and the
    low-frequency gain from the |H * jw| plateau.  A bin whose magnitude
    has no finite log (a zero response) is filled by interpolation over the
    finite bins, so it cannot sink the smoothed baseline.  A gap of the
    ordered vector below 1e-3, such as that of a delay clamped to 0.1 s,
    starts at 1e-3.
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
    # the logs of the features in the order of _positive, then the gaps
    z = np.array([math.log(v) for v in (
        gain, gain / 70.0, gain / 19000.0, 0.06,
        f_peak, 0.2, 0.2 / depth,
        f_anti, 0.02, 0.2,
        delay)])
    gap = np.append(z[_ABOVE] - z[_BELOW], math.log(0.1) - z[10])
    z[_ABOVE + [10]] = np.log(np.maximum(gap, 1e-3))
    return z


def _positive(z):
    """The 11 positive parameters of the rows of the ordered stack z: the
    main numerator n0, n1, n2, the main pole time constant, the peak's
    frequency, numerator and denominator damping, the anti-resonance's
    three, and the delay.

    Each entry of z is the log of its parameter, except four that hold the
    log of a positive gap: the peak's numerator damping sits e^z5 above its
    denominator damping (the peak amplifies), the anti-resonance e^z7 above
    the peak in log frequency, its denominator damping e^z9 above its
    numerator damping (it attenuates), and the log delay e^z10 below
    log 0.1 s.  The gaps are clipped to [e^-20, e^3] and the entries below
    them to [-19, 19], so every log written stays finite and inside the
    +-40 clip of the exponent, and each pair stays strictly ordered for any
    z.
    """
    x = np.array(z, dtype=float)
    gap = np.exp(np.clip(x[..., _ABOVE + [10]], -20.0, 3.0))
    x[..., _BELOW] = np.clip(x[..., _BELOW], -19.0, 19.0)
    x[..., _ABOVE] = x[..., _BELOW] + gap[..., :3]
    x[..., 10] = math.log(0.1) - gap[..., 3]
    return np.exp(np.clip(x, -40.0, 40.0))


class _FitObjective:
    """The weighted fit residual of one FRF as a function of the ordered
    parameter vector.

    Everything that depends only on the data is computed once: the
    coherence weights, the data's log-magnitude and unwrapped phase, s and
    s^2 on the grid, and the fixed measurement-filter response.  Each call
    decodes the vectors with ``_positive``, evaluates the factors of
    ``fitted_plant`` on the grid and multiplies them; no transfer function
    is built.  The model's phase follows the delay-phase convention of
    ``lti._unwrap_phase_deg``.
    """

    def __init__(self, frf: FRFEstimate):
        f = frf.freqs
        weight = np.where(frf.trusted, frf.coherence, 0.0)
        self.mag_scale = np.sqrt(weight)
        self.phase_scale = np.sqrt(weight * PHASE_WEIGHT)
        # log10 of the weighted bins only (0 elsewhere): a zero-weight bin
        # may hold a zero response, whose log would turn 0 x inf into NaN
        self.log_mag = np.log10(np.where(weight > 0.0,
                                         np.abs(frf.response), 1.0))
        self.phase_deg = frf.unwrapped_phase_deg()
        w = 2.0 * np.pi * f
        self.s = 1j * w
        self.s2 = -w * w  # s^2 on the imaginary axis is real
        self.lf = tf_eval(butterworth2(KNOWN_LF_CORNER_HZ), f)
        self.f = f

    def rational_response(self, e):
        """(delay-free model responses, delays in s) for the rows of the
        positive-parameter stack e, one row of the grid per row of e."""
        b0, b1, b2, tc, fp, pn, pd, fa, an, ad, delay = \
            np.atleast_2d(e).T[:, :, np.newaxis]
        s, s2 = self.s, self.s2
        wp = 2.0 * math.pi * fp
        wa = 2.0 * math.pi * fa
        q_p = 1.0 + s2 / (wp * wp)
        q_a = 1.0 + s2 / (wa * wa)
        h = (self.lf * (b0 + b1 * s + b2 * s2) / (s + tc * s2)
             * (q_p + (pn / wp) * s) / (q_p + (pd / wp) * s)
             * (q_a + (an / wa) * s) / (q_a + (ad / wa) * s))
        return h, delay[:, 0]

    def residual(self, e):
        """The residual rows [sqrt(w) dmag_dB, sqrt(w PHASE_WEIGHT) dphase_deg]
        of the rows of the positive-parameter stack e.  A row's sum of
        squares is its fit cost."""
        h, delay = self.rational_response(e)
        dmag = 20.0 * (np.log10(np.abs(h)) - self.log_mag)
        dph = _unwrap_phase_deg(h, self.f, delay[:, np.newaxis]) - self.phase_deg
        return np.concatenate([self.mag_scale * dmag, self.phase_scale * dph],
                              axis=1)

    def __call__(self, z):
        """The residual rows of the rows of the ordered stack z (a 1-D z is
        a stack of one)."""
        return self.residual(_positive(z))


def minimize(fun, x0s):
    """Minimize the sum of squares of ``fun`` by Levenberg-Marquardt
    (Marquardt, J. SIAM 11(2), 1963) from each start in x0s.

    ``fun`` maps a stack of points to one residual row per point.  The runs
    advance in lockstep: each round makes one call on the forward-difference
    Jacobian stacks of the runs that moved, and one on every live run's
    trial step.  A step solves the normal equations damped by lambda times
    their floored diagonal; lambda grows 4-fold when a step is rejected and
    shrinks 3-fold when one is accepted.  A run stops at a zero gradient, at
    an accepted step that lowers its cost by less than ``FIT_RTOL``
    relative, or after ``FIT_MAX_ITERATIONS`` steps.  Returns (x, cost,
    points evaluated) per start, in start order.
    """
    x = [np.array(x0, dtype=float) for x0 in x0s]
    n = x[0].size
    probe = FIT_DIFF_STEP * np.eye(n)
    r = list(fun(np.array(x)))
    cost = [float(np.sum(ri * ri)) for ri in r]
    points = [1] * len(x)
    lam = [1e-3] * len(x)
    jac = [None] * len(x)  # transposed, one row per coordinate
    live = list(range(len(x)))
    for _ in range(FIT_MAX_ITERATIONS):
        moved = [i for i in live if jac[i] is None]
        if moved:
            rows = fun(np.concatenate([x[i] + probe for i in moved]))
            for k, i in enumerate(moved):
                jac[i] = (rows[k * n:(k + 1) * n] - r[i]) / FIT_DIFF_STEP
                points[i] += n
        trials = {}
        for i in live:
            a = jac[i] @ jac[i].T
            g = jac[i] @ r[i]
            if g.any():
                scale = np.maximum(np.diag(a), 1e-12 * np.max(np.diag(a)))
                trials[i] = x[i] - np.linalg.solve(a + lam[i] * np.diag(scale), g)
        live = list(trials)
        if not live:
            break
        rows = fun(np.array(list(trials.values())))
        for i, ri in zip(list(trials), rows):
            points[i] += 1
            c = float(np.sum(ri * ri))
            if not c < cost[i]:
                lam[i] *= 4.0
                continue
            done = cost[i] - c < FIT_RTOL * cost[i]
            x[i], r[i], cost[i], jac[i] = trials[i], ri, c, None
            lam[i] /= 3.0
            if done:
                live.remove(i)
    return [(x[i], cost[i], points[i]) for i in range(len(x))]


def fit_plant_model(frf: FRFEstimate, seed: int = 0) -> FitResult:
    """Two-stage fit of the identified-plant structure to an FRF.

    Stage 1 writes the ordered vector of FRF features; stage 2 runs
    ``minimize``'s Levenberg-Marquardt on the coherence-weighted
    [log-magnitude, unwrapped-phase] residual from the stage-1 point and
    from random restarts around it drawn from ``seed`` (lowest cost wins,
    ties broken by restart index), all in lockstep.  ``_positive`` decodes
    the ordered vector, so every fitted peak amplifies, every fitted
    anti-resonance sits above the peak and attenuates, and the fitted delay
    is below 0.1 s.  The objective (``_FitObjective``) is built once per fit:
    it precomputes the data side and evaluates the model as a product of its
    factors on the FRF grid, for a stack of parameter vectors at once.
    Requires a ``MIN_TRUSTED_SHARE`` of the bins trusted.  The parameters
    are those of the best restart; a fit whose cost per bin stays above
    ``CONVERGENCE_COST_PER_BIN`` is flagged not converged.
    """
    if np.mean(frf.trusted) < MIN_TRUSTED_SHARE:
        raise ValueError(f"fewer than {MIN_TRUSTED_SHARE:.0%} of the FRF bins "
                         "are coherence-trusted")
    zero = np.flatnonzero(frf.trusted & ~(np.abs(frf.response) > 0.0))
    if zero.size:
        i = int(zero[0])
        raise ValueError(f"FRF bin {i} ({frf.freqs[i]:.4g} Hz) is trusted but "
                         "its response is zero")
    z0 = _stage1_initial(frf)
    rng = np.random.default_rng(seed)
    starts = [z0] + [z0 + rng.normal(0.0, 0.2, z0.shape)
                     for _ in range(FIT_RESTARTS - 1)]
    runs = minimize(_FitObjective(frf), starts)
    costs = [float(cost) for _, cost, _ in runs]
    best = min(range(FIT_RESTARTS), key=costs.__getitem__)

    cost_per_bin = costs[best] / max(int(np.sum(frf.trusted)), 1)
    e = _positive(runs[best][0]).tolist()
    return FitResult(
        params=PlantFitParams(
            lf_corner_hz=KNOWN_LF_CORNER_HZ,
            main_num=tuple(e[0:3]),
            main_pole_tc=e[3],
            peak=ResonanceParams(*e[4:7]),
            anti=ResonanceParams(*e[7:10]),
            delay_s=e[10],
        ),
        cost=costs[best],
        cost_per_bin=cost_per_bin,
        converged=cost_per_bin <= CONVERGENCE_COST_PER_BIN,
        restart_costs=tuple(costs),
        evaluations=sum(n for _, _, n in runs),
    )


@dataclass(frozen=True, eq=False)
class SweepData:
    """Recorded sweep experiment channels, 1-D arrays at ``CONTROL_RATE_HZ``.

    The rows start with the chirp.  A diverged sweep holds the rows up to the
    tick whose response left the envelope, and ``diverged_at`` is that
    tick's time from the chirp start, the clock of the rows: the last row's
    time, or a negative time when the sweep diverged while settling.
    """

    injected: np.ndarray
    total_input: np.ndarray
    measured: np.ndarray
    diverged_at: float | None = None


def sweep_experiment(plant, cfg: ChirpConfig, noise_std: float = 0.0,
                     seed: int = 0) -> SweepData:
    """Inject a chirp at the rate-controller output and record the response.

    ``plant`` is a LinearAxisPlant-like object: ``step(u)`` holds ``u`` over
    one control tick and returns the rate at its end, so the sweep makes one
    ``step`` call per tick.  A plain proportional rate controller (gain
    ``STABILIZING_GAIN``, no notch) holds the loop around zero command while
    the sweep runs, as on the real vehicle; the chirp starts after
    ``SETTLE_S`` seconds.  The recorded total input is controller output
    plus injection; the output is the measured rate decimated to the
    control rate.  A response beyond ``DIVERGENCE_LIMIT`` rad/s stops the
    sweep and records the divergence time instead of raising.
    """
    rng = np.random.default_rng(seed)
    u_inj = chirp(cfg)
    n_settle = round(SETTLE_S * CONTROL_RATE_HZ)
    n = u_inj.size + n_settle

    u_total = np.zeros(n)
    y_meas = np.zeros(n)
    y = 0.0
    diverged_at = None
    for i in range(n):
        # the measurement the controller (and the log) sees is sampled at
        # the tick start, before this tick's input acts
        meas = y + (rng.normal(0.0, noise_std) if noise_std > 0.0 else 0.0)
        tau = -STABILIZING_GAIN * meas
        inj = u_inj[i - n_settle] if i >= n_settle else 0.0
        u = tau + inj
        u_total[i] = u
        y_meas[i] = meas
        y = plant.step(u)
        if abs(y) > DIVERGENCE_LIMIT:
            n, diverged_at = i + 1, (i - n_settle) / CONTROL_RATE_HZ
            break

    return SweepData(u_inj[:max(n - n_settle, 0)], u_total[n_settle:n],
                     y_meas[n_settle:n], diverged_at)
