import math

import numpy as np
import pytest

from oracles import process_block, section_poles
from tailsitter.biquad import ImproperTFError, discretize_tustin
from tailsitter.lti import (
    ContinuousTF,
    butterworth2,
    fitted_plant,
    notch,
    pid_tf,
    tf_eval,
    tf_series,
)
from tailsitter.sysid import estimate_frf

FS = 250.0


class TestTustin:
    def test_notch_prewarped_center_depth(self):
        c = discretize_tustin(notch(14.0, 0.2, 0.05), FS, prewarp_hz=14.0)
        mag_db = 20.0 * math.log10(abs(c.response(14.0)))
        assert abs(mag_db - 20.0 * math.log10(0.25)) < 0.05

    def test_dc_gain_preserved_exactly(self):
        for tf in (butterworth2(10.0), notch(14.0, 0.2, 0.05),
                   ContinuousTF([2.0, 1.0], [2.0, 0.3])):
            c = discretize_tustin(tf, FS)
            dc_digital = 1.0
            for s in c.sections:
                dc_digital *= (s.b0 + s.b1 + s.b2) / (1.0 + s.a1 + s.a2)
            assert abs(dc_digital - tf.num[0] / tf.den[0]) < 1e-12

    def test_fidelity_below_fs_over_10(self):
        # every loop filter discretized the way the loop deploys it: the
        # narrow notch gets center prewarp (plain Tustin shifts its center
        # ~1 %, several dB of pointwise error on an 18 dB-deep notch)
        filters = [
            (notch(14.0128, 0.15, 0.018), 14.0128),
            (butterworth2(18.0), None),
            (butterworth2(69.0), None),
            (butterworth2(100.0), None),
            (pid_tf(0.09, 0.1, 0.01, 18.0), None),
        ]
        f = np.linspace(0.2, FS / 10.0, 120)
        for tf, prewarp in filters:
            c = discretize_tustin(tf, FS, prewarp_hz=prewarp)
            hd = c.response(f)
            hc = tf_eval(tf, f)
            err_db = 20.0 * np.log10(np.abs(hd / hc))
            err_ph = np.degrees(np.angle(hd / hc))
            assert np.max(np.abs(err_db)) < 1.0
            assert np.max(np.abs(err_ph)) < 5.0

    def test_stable_source_gives_strictly_inner_poles(self):
        for tf in (butterworth2(18.0), notch(14.0, 0.2, 0.05),
                   ContinuousTF([1.0], [1.0, 0.05]),
                   tf_series(butterworth2(30.0), ContinuousTF([1.0], [1.0, 0.02]))):
            c = discretize_tustin(tf, FS)
            for s in c.sections:
                assert np.all(np.abs(section_poles(s)) < 1.0)

    def test_improper_rejected(self):
        with pytest.raises(ImproperTFError):
            discretize_tustin(ContinuousTF([0.0, 0.0, 1.0], [1.0, 1.0]), FS)

    def test_delay_rejected(self):
        # a cascade realizes rational sections only: the plants realize the
        # delay, so a delayed TF cannot lose its delay here without a trace
        with pytest.raises(ValueError, match="0.021 s delay"):
            discretize_tustin(ContinuousTF([1.0], [1.0], 0.021), FS)
        with pytest.raises(ValueError, match="delay"):
            discretize_tustin(fitted_plant(), 1000.0)

    def test_section_order_deterministic(self):
        delayed = fitted_plant()
        tf = ContinuousTF(delayed.num, delayed.den)
        a = discretize_tustin(tf, 1000.0)
        b = discretize_tustin(tf, 1000.0)
        for sa, sb in zip(a.sections, b.sections):
            assert sa.coefficients() == sb.coefficients()
        # poles sorted by natural frequency ascending across sections
        freqs = [np.max(np.abs(np.angle(section_poles(s)))) for s in a.sections]
        assert freqs == sorted(freqs)


class TestProcessing:
    def test_impulse_matches_response(self):
        c = discretize_tustin(butterworth2(12.0), FS)
        n = 2048
        x = np.zeros(n)
        x[0] = 1.0
        h = process_block(c, x)
        spec = np.fft.rfft(h)
        freqs = np.fft.rfftfreq(n, 1.0 / FS)
        ref = c.response(freqs[1:])
        np.testing.assert_allclose(spec[1:], ref, atol=1e-9)

    def test_white_noise_spectrum_matches_continuous(self):
        rng = np.random.default_rng(31)
        tf = butterworth2(18.0)
        c = discretize_tustin(tf, FS)
        u = rng.normal(size=60 * int(FS))
        y = process_block(c, u)
        frf = estimate_frf(u, y, n_freqs=40, f_lo=1.0, f_hi=25.0)
        hc = tf_eval(tf, frf.freqs)
        err_db = 20.0 * np.log10(np.abs(frf.response / hc))
        assert np.max(np.abs(err_db[frf.trusted])) < 0.5
