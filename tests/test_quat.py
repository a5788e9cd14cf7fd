import math

import numpy as np
import pytest

from oracles import (IDENTITY, axis_angle, conjugate, integrate_rates, negate,
                     quat_multiply, rotation_angle, same_rotation)
from tailsitter.control import AttitudeController, AttitudeLoopConfig
from tailsitter.quat import (
    EulerZXY,
    GimbalProximityError,
    attitude_error,
    euler_zxy_to_quat,
    quat_to_euler_zxy,
    rotation_rows,
)


def random_quat(rng):
    v = rng.normal(size=4)
    return tuple((v / np.linalg.norm(v)).tolist())


def rotmat(q):
    return np.array(rotation_rows(*q))


def rot_x(a):
    return np.array([[1, 0, 0],
                     [0, math.cos(a), -math.sin(a)],
                     [0, math.sin(a), math.cos(a)]])


def rot_y(a):
    return np.array([[math.cos(a), 0, math.sin(a)],
                     [0, 1, 0],
                     [-math.sin(a), 0, math.cos(a)]])


def rot_z(a):
    return np.array([[math.cos(a), -math.sin(a), 0],
                     [math.sin(a), math.cos(a), 0],
                     [0, 0, 1]])


class TestMultiply:
    def test_identity(self):
        rng = np.random.default_rng(1)
        q = random_quat(rng)
        out = quat_multiply(IDENTITY, q)
        assert same_rotation(out, q, tol=1e-12)

    def test_inverse_gives_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = random_quat(rng)
            out = quat_multiply(q, conjugate(q))
            assert same_rotation(out, IDENTITY, tol=1e-12)

    def test_half_angle_addition(self):
        q90 = axis_angle([1, 0, 0], math.pi / 2)
        q180 = axis_angle([1, 0, 0], math.pi)
        assert same_rotation(quat_multiply(q90, q90), q180, tol=1e-12)

    def test_unit_norm_preserved_over_many_ops(self):
        rng = np.random.default_rng(3)
        q = random_quat(rng)
        for _ in range(10_000):
            q = quat_multiply(q, random_quat(rng))
        assert abs(np.linalg.norm(q) - 1.0) < 1e-6


class TestRotationMatrix:
    def test_identity(self):
        np.testing.assert_allclose(rotmat(IDENTITY), np.eye(3))

    def test_180_about_z(self):
        q = axis_angle([0, 0, 1], math.pi)
        np.testing.assert_allclose(rotmat(q), np.diag([-1.0, -1.0, 1.0]),
                                   atol=1e-12)

    def test_orthonormal_det_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            r = rotmat(random_quat(rng))
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_double_cover(self):
        rng = np.random.default_rng(5)
        q = random_quat(rng)
        np.testing.assert_allclose(rotmat(q), rotmat(negate(q)), atol=1e-12)


class TestEulerZXY:
    def test_zero_angles_identity(self):
        q = euler_zxy_to_quat(EulerZXY(0.0, 0.0, 0.0))
        assert same_rotation(q, IDENTITY, tol=1e-12)

    def test_hover_pitch_90(self):
        e = EulerZXY(0.0, math.pi / 2, 0.0)
        q = euler_zxy_to_quat(e)
        expected = axis_angle([0, 1, 0], math.pi / 2)
        assert same_rotation(q, expected, tol=1e-12)
        back = quat_to_euler_zxy(q)
        assert abs(back.roll) < 1e-12
        assert abs(back.pitch - math.pi / 2) < 1e-12
        assert abs(back.yaw) < 1e-12

    def test_composition_order_matches_matrices(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            roll, pitch, yaw = rng.uniform(-1.3, 1.3, 3)
            q = euler_zxy_to_quat(EulerZXY(roll, pitch, yaw))
            expected = rot_z(yaw) @ rot_x(roll) @ rot_y(pitch)
            np.testing.assert_allclose(rotmat(q), expected, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            e = EulerZXY(rng.uniform(-1.4, 1.4), rng.uniform(-math.pi, math.pi),
                         rng.uniform(-math.pi, math.pi))
            back = quat_to_euler_zxy(euler_zxy_to_quat(e))
            assert abs(back.roll - e.roll) < 1e-9
            assert abs(math.remainder(back.pitch - e.pitch, 2 * math.pi)) < 1e-9
            assert abs(math.remainder(back.yaw - e.yaw, 2 * math.pi)) < 1e-9

    def test_gimbal_proximity_raises(self):
        q = euler_zxy_to_quat(EulerZXY(math.pi / 2, 0.3, 0.1))
        with pytest.raises(GimbalProximityError):
            quat_to_euler_zxy(q)


class TestAttitudeError:
    def test_zero_for_equal(self):
        rng = np.random.default_rng(8)
        q = random_quat(rng)
        np.testing.assert_allclose(attitude_error(q, q), np.zeros(3), atol=1e-12)

    def test_90_deg_about_x(self):
        # direct evaluation: eta = cos(pi/4), theta = pi/2,
        # scale = (pi/4)/sin(pi/4), eps = (sin(pi/4), 0, 0)
        q_d = axis_angle([1, 0, 0], math.pi / 2)
        xi = attitude_error(IDENTITY, q_d)
        expected = (math.pi / 4) / math.sin(math.pi / 4) * math.sin(math.pi / 4)
        np.testing.assert_allclose(xi, [expected, 0.0, 0.0], atol=1e-12)
        assert abs(expected - math.pi / 4) < 1e-15

    def test_double_cover_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            qc, qd = random_quat(rng), random_quat(rng)
            a = attitude_error(qc, qd)
            b = attitude_error(qc, negate(qd))
            c = attitude_error(negate(qc), qd)
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)

    def test_magnitude_bounded_by_half_pi(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            xi = attitude_error(random_quat(rng), random_quat(rng))
            assert np.linalg.norm(xi) <= math.pi / 2 + 1e-12

    def test_small_angle_magnitude(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            theta = rng.uniform(1e-5, 0.1)
            axis = rng.normal(size=3)
            q_d = axis_angle(axis, theta)
            xi = attitude_error(IDENTITY, q_d)
            assert abs(np.linalg.norm(xi) - theta / 2) < 1e-9

    def test_against_matrix_log_oracle(self):
        # for rotation angles below pi/2 the error equals half the SO(3)
        # log of R_current^T R_desired (the representation the error law
        # avoids in general because the log is singular at pi)
        def log_map(r):
            angle = math.acos(min(1.0, max(-1.0, 0.5 * (np.trace(r) - 1.0))))
            if angle < 1e-12:
                return np.zeros(3)
            skew = (r - r.T) / (2.0 * math.sin(angle))
            return angle * np.array([skew[2, 1], skew[0, 2], skew[1, 0]])

        rng = np.random.default_rng(13)
        for _ in range(100):
            qc = random_quat(rng)
            axis = rng.normal(size=3)
            theta = rng.uniform(1e-4, math.pi / 2 - 0.05)
            qd = quat_multiply(qc, axis_angle(axis, theta))
            xi = attitude_error(qc, qd)
            r_rel = rotmat(qc).T @ rotmat(qd)
            np.testing.assert_allclose(xi, 0.5 * log_map(r_rel), atol=1e-9)

    def test_continuity_at_zero(self):
        theta = 1e-8
        q_d = axis_angle([0, 0, 1], theta)
        xi = attitude_error(IDENTITY, q_d)
        # linearized form: xi ~ eps (scale -> 1)
        linear = np.array(q_d[1:])
        assert np.linalg.norm(xi - linear) < 1e-12

    def test_theta_pi_finite(self):
        q_d = axis_angle([0, 1, 0], math.pi)
        xi = attitude_error(IDENTITY, q_d)
        assert np.all(np.isfinite(xi))
        assert abs(np.linalg.norm(xi) - math.pi / 2) < 1e-12


def rate_command(gains, q_current, q_desired):
    """The attitude P-loop's rate command, K o xi_e (elementwise), rad/s."""
    ctrl = AttitudeController(AttitudeLoopConfig(tuple(gains)))
    return ctrl.step(q_current, q_desired)


class TestRateCommand:
    def test_zero_error(self):
        q = IDENTITY
        np.testing.assert_array_equal(rate_command([1.0, 2.0, 3.0], q, q),
                                      np.zeros(3))

    def test_scaling(self):
        # a 90 deg error about x is xi_e = (pi/4, 0, 0)
        q_d = axis_angle([1, 0, 0], math.pi / 2)
        out = rate_command([2.0, 2.0, 2.0], IDENTITY, q_d)
        np.testing.assert_allclose(out, [math.pi / 2, 0.0, 0.0])

    def test_rejects_nonpositive_gains(self):
        q = IDENTITY
        with pytest.raises(ValueError):
            rate_command([1.0, 0.0, 1.0], q, q)

    def test_kinematic_convergence(self):
        # pure-kinematics loop: the half-angle error vector gives decay
        # theta(t) = theta0 * exp(-K t / 2) exactly for a fixed axis
        gains = np.array([2.0, 3.0, 2.5])
        k_min = gains.min()
        dt = 1e-3
        rng = np.random.default_rng(12)
        for theta0 in (0.5, 1.5, 3.0):
            axis = rng.normal(size=3)
            q_d = axis_angle(axis, theta0)
            q = IDENTITY
            for k in range(2000):
                omega = rate_command(gains, q, q_d)
                q = integrate_rates(q, omega, dt)
                t = (k + 1) * dt
                theta = rotation_angle(quat_multiply(conjugate(q), q_d))
                bound = theta0 * math.exp(-0.5 * k_min * t * (1.0 - 0.05))
                assert theta <= bound + 1e-9
