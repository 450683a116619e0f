"""Plant discretization, PID behaviour, and the reference path."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffsched.control import (
    PidGains,
    PidState,
    PlantParams,
    PlantState,
    ReferencePath,
    pid_compute,
    plant_step,
    reference_at,
    reference_coordinate,
    tracking_error,
)

REST = PlantState()


class TestPlant:
    def test_closed_form_hand_case(self):
        # a=2, b=2000, u=1, dt=0.1 from rest:
        # v = 1000 (1 - e^-0.2), p = 1000 (0.1 - (1 - e^-0.2)/2)
        out = plant_step(REST, 1.0, 0.1)
        assert out.velocity == pytest.approx(181.26924692201815, rel=1e-14)
        assert out.position == pytest.approx(9.365376538990924, rel=1e-14)
        assert out.command == 1.0

    def test_matches_rk4_reference_integration(self):
        state = PlantState(position=1.0, velocity=-3.0)
        u, dt, n = 0.5, 0.05, 5000
        exact = plant_step(state, u, dt)
        p, v = state.position, state.velocity
        h = dt / n
        for _ in range(n):
            # RK4 on (p' = v, v' = -2 v + 2000 u)
            k1p, k1v = v, -2 * v + 2000 * u
            k2p, k2v = v + 0.5 * h * k1v, -2 * (v + 0.5 * h * k1v) + 2000 * u
            k3p, k3v = v + 0.5 * h * k2v, -2 * (v + 0.5 * h * k2v) + 2000 * u
            k4p, k4v = v + h * k3v, -2 * (v + h * k3v) + 2000 * u
            p += h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6
            v += h * (k1v + 2 * k2v + 2 * k3v + k4v) / 6
        assert exact.position == pytest.approx(p, rel=1e-9)
        assert exact.velocity == pytest.approx(v, rel=1e-9)

    def test_zero_dt_is_identity_except_command(self):
        state = PlantState(position=3.0, velocity=-2.0, command=0.1)
        out = plant_step(state, 0.7, 0.0)
        assert out.position == 3.0
        assert out.velocity == -2.0
        assert out.command == 0.7

    def test_steady_state_velocity(self):
        out = plant_step(REST, 0.25, 10.0)
        assert out.velocity == pytest.approx(2000 * 0.25 / 2, rel=1e-8)

    def test_free_decay(self):
        out = plant_step(PlantState(velocity=100.0), 0.0, 10.0)
        assert abs(out.velocity) < 1e-6

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            plant_step(REST, 0.0, -0.001)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PlantParams(pole_rate=0.0)


class TestPid:
    def test_three_step_hand_case(self):
        gains = PidGains(kp=2.0, ki=1.0, kd=0.1, deriv_filter=10.0)
        pid = PidState(gains=gains, period=0.1)

        u1, pid = pid_compute(pid, ref=1.0, meas=0.0)
        assert u1 == pytest.approx(2.1, rel=1e-14)  # first step: no derivative

        u2, pid = pid_compute(pid, ref=1.0, meas=0.5)
        assert u2 == pytest.approx(1.15 - 10.0 / 21.0, rel=1e-12)

        pid = replace(pid, period=0.2)  # rescale mid-flight
        u3, pid = pid_compute(pid, ref=1.0, meas=0.9)
        expected_deriv = (0.005 * (-10.0 / 21.0) - 0.1 * 0.4) / 0.205
        assert u3 == pytest.approx(0.2 + 0.17 + expected_deriv, rel=1e-12)
        assert pid.integrator == pytest.approx(0.17, rel=1e-14)

    def test_kd_zero_is_pure_pi(self):
        pid = PidState(gains=PidGains(kp=1.0, ki=2.0, kd=0.0), period=0.01)
        _, pid = pid_compute(pid, ref=1.0, meas=0.0)
        u, pid = pid_compute(pid, ref=1.0, meas=0.4)
        assert pid.deriv == 0.0
        assert u == pytest.approx(1.0 * 0.6 + (0.02 + 2.0 * 0.01 * 0.6))

    def test_integrator_scales_with_period(self):
        gains = PidGains(kp=0.0, ki=1.0, kd=0.0)
        short = PidState(gains=gains, period=0.001)
        long = PidState(gains=gains, period=0.004)
        u_short, _ = pid_compute(short, ref=1.0, meas=0.0)
        u_long, _ = pid_compute(long, ref=1.0, meas=0.0)
        assert u_long == pytest.approx(4 * u_short)

    def test_period_validation(self):
        pid = PidState(gains=PidGains(), period=0.0)
        with pytest.raises(ValueError):
            pid_compute(pid, 1.0, 0.0)

    def test_gains_validation(self):
        with pytest.raises(ValueError):
            PidGains(deriv_filter=0.0)


class TestReference:
    def test_endpoints_and_top(self):
        path = ReferencePath()
        assert reference_at(path, 0.0) == pytest.approx((0.0, 0.0), abs=1e-15)
        x, y = reference_at(path, path.duration)
        assert (x, y) == pytest.approx((2.0, 0.0), abs=1e-12)
        assert reference_at(path, 2.0) == pytest.approx((1.0, 1.0), rel=1e-12)

    def test_clamps_outside_span(self):
        path = ReferencePath()
        assert reference_at(path, -5.0) == reference_at(path, 0.0)
        assert reference_at(path, 99.0) == reference_at(path, 4.0)

    def test_constant_speed_on_circle(self):
        path = ReferencePath()
        cx, cy = path.centre
        for t in (0.5, 1.0, 1.7, 3.3):
            x, y = reference_at(path, t)
            assert math.hypot(x - cx, y - cy) == pytest.approx(path.radius, rel=1e-12)
            assert y >= 0.0

    def test_geometry(self):
        path = ReferencePath()
        assert path.centre == pytest.approx((1.0, 0.0))
        assert path.radius == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReferencePath(duration=0.0)
        with pytest.raises(ValueError):
            ReferencePath(start=(0.0, 0.0), end=(2.0, 1.0))
        with pytest.raises(ValueError):
            ReferencePath(start=(2.0, 0.0), end=(0.0, 0.0))

    @pytest.mark.parametrize("duration", [4.0, 0.1000000004])
    def test_coordinate_is_the_pair_s_coordinate(self, duration):
        path = ReferencePath(duration=duration)
        for t in (0.0, 0.25 * duration, 0.5 * duration, 0.9 * duration, duration - 1e-9, duration, 2 * duration):
            pair = reference_at(path, t)
            assert (reference_coordinate(path, t, 0), reference_coordinate(path, t, 1)) == pair

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        duration=st.sampled_from([4.0, 0.1000000004]),
        t=st.floats(min_value=-1.0, max_value=10.0),
        axis=st.sampled_from([0, 1]),
    )
    def test_coordinate_matches_the_pair_everywhere(self, duration, t, axis):
        path = ReferencePath(duration=duration)
        assert reference_coordinate(path, t, axis) == reference_at(path, t)[axis]

    @pytest.mark.parametrize("axis", [0, 1])
    def test_clamp_matches_min_max_at_the_edges(self, axis):
        # the reference clamps with `min(max(...))`; compared by repr so
        # that -0.0 and NaN count
        def min_max_clamped(path, t, axis):
            frac = min(max(t / path.duration, 0.0), 1.0)
            angle = math.pi * (1.0 - frac)
            return path.centre[axis] + path.radius * (math.sin(angle) if axis else math.cos(angle))

        path = ReferencePath()
        for t in (-1.0, -1e-300, -0.0, 0.0, 1.0, path.duration, path.duration * (1 + 1e-15), 7.5, math.inf, math.nan):
            assert repr(reference_coordinate(path, t, axis)) == repr(min_max_clamped(path, t, axis)), t

    def test_tracking_error_is_euclidean(self):
        assert tracking_error((1.0, 2.0), (4.0, 6.0)) == 5.0
        assert tracking_error((0.5, 0.5), (0.5, 0.5)) == 0.0
