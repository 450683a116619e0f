"""Plant discretization, PID behaviour, and the reference path."""

import ast
import math
from pathlib import Path

import pytest

import ffsched

from ffsched.control import (
    PidGains,
    PlantParams,
    ReferencePath,
    pid_compute,
    plant_step,
    reference_at,
    tracking_error,
)

NOMINAL = PlantParams()


class TestPlant:
    def test_closed_form_hand_case(self):
        # a=2, b=2000, u=1, dt=0.1 from rest:
        # v = 1000 (1 - e^-0.2), p = 1000 (0.1 - (1 - e^-0.2)/2)
        position, velocity = plant_step(0.0, 0.0, 1.0, 0.1, NOMINAL)
        assert velocity == pytest.approx(181.26924692201815, rel=1e-14)
        assert position == pytest.approx(9.365376538990924, rel=1e-14)

    def test_matches_rk4_reference_integration(self):
        p, v = 1.0, -3.0
        u, dt, n = 0.5, 0.05, 5000
        exact_p, exact_v = plant_step(p, v, u, dt, NOMINAL)
        h = dt / n
        for _ in range(n):
            # RK4 on (p' = v, v' = -2 v + 2000 u)
            k1p, k1v = v, -2 * v + 2000 * u
            k2p, k2v = v + 0.5 * h * k1v, -2 * (v + 0.5 * h * k1v) + 2000 * u
            k3p, k3v = v + 0.5 * h * k2v, -2 * (v + 0.5 * h * k2v) + 2000 * u
            k4p, k4v = v + h * k3v, -2 * (v + h * k3v) + 2000 * u
            p += h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6
            v += h * (k1v + 2 * k2v + 2 * k3v + k4v) / 6
        assert exact_p == pytest.approx(p, rel=1e-9)
        assert exact_v == pytest.approx(v, rel=1e-9)

    def test_zero_dt_is_identity(self):
        assert plant_step(3.0, -2.0, 0.7, 0.0, NOMINAL) == (3.0, -2.0)

    def test_steady_state_velocity(self):
        _, velocity = plant_step(0.0, 0.0, 0.25, 10.0, NOMINAL)
        assert velocity == pytest.approx(2000 * 0.25 / 2, rel=1e-8)

    def test_free_decay(self):
        _, velocity = plant_step(0.0, 100.0, 0.0, 10.0, NOMINAL)
        assert abs(velocity) < 1e-6

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            plant_step(0.0, 0.0, 0.0, -0.001, NOMINAL)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PlantParams(pole_rate=0.0)


class TestPid:
    def test_three_step_hand_case(self):
        gains = PidGains(kp=2.0, ki=1.0, kd=0.1, deriv_filter=10.0)

        u1, integrator, deriv = pid_compute(gains, 0.1, 0.0, 0.0, None, ref=1.0, meas=0.0)
        assert u1 == pytest.approx(2.1, rel=1e-14)  # first step: no derivative

        u2, integrator, deriv = pid_compute(gains, 0.1, integrator, deriv, 0.0, ref=1.0, meas=0.5)
        assert u2 == pytest.approx(1.15 - 10.0 / 21.0, rel=1e-12)

        # rescale mid-flight
        u3, integrator, deriv = pid_compute(gains, 0.2, integrator, deriv, 0.5, ref=1.0, meas=0.9)
        expected_deriv = (0.005 * (-10.0 / 21.0) - 0.1 * 0.4) / 0.205
        assert u3 == pytest.approx(0.2 + 0.17 + expected_deriv, rel=1e-12)
        assert integrator == pytest.approx(0.17, rel=1e-14)

    def test_kd_zero_is_pure_pi(self):
        gains = PidGains(kp=1.0, ki=2.0, kd=0.0)
        _, integrator, deriv = pid_compute(gains, 0.01, 0.0, 0.0, None, ref=1.0, meas=0.0)
        u, integrator, deriv = pid_compute(gains, 0.01, integrator, deriv, 0.0, ref=1.0, meas=0.4)
        assert deriv == 0.0
        assert u == pytest.approx(1.0 * 0.6 + (0.02 + 2.0 * 0.01 * 0.6))

    def test_integrator_scales_with_period(self):
        gains = PidGains(kp=0.0, ki=1.0, kd=0.0)
        u_short, _, _ = pid_compute(gains, 0.001, 0.0, 0.0, None, ref=1.0, meas=0.0)
        u_long, _, _ = pid_compute(gains, 0.004, 0.0, 0.0, None, ref=1.0, meas=0.0)
        assert u_long == pytest.approx(4 * u_short)

    def test_period_validation(self):
        with pytest.raises(ValueError):
            pid_compute(PidGains(), 0.0, 0.0, 0.0, None, 1.0, 0.0)

    def test_gains_validation(self):
        with pytest.raises(ValueError):
            PidGains(deriv_filter=0.0)

    def test_deriv_time_constant_is_a_plain_attribute_set_at_construction(self):
        gains = PidGains()
        assert gains.deriv_time_constant == 0.035 / (1.3 * 25.0)
        assert PidGains._fields == ("kp", "ki", "kd", "deriv_filter")
        assert "deriv_time_constant" not in repr(gains)
        assert PidGains(kp=1.3) == gains and hash(PidGains(kp=1.3)) == hash(gains)
        assert gains.replace(kd=0.07).deriv_time_constant == 0.07 / (1.3 * 25.0)  # replace recomputes it
        assert PidGains(kp=0.0, kd=0.5, deriv_filter=2.0).deriv_time_constant == 0.25  # kp <= 0 counts as 1

    @pytest.mark.parametrize("kd", [0.0, 0.035])
    def test_underflowing_filter_scale_constructs(self, kd):
        # kp * deriv_filter underflows to 0.0; validate_scenario alone rejects
        # it, and only when kd > 0, where the filter would divide by it
        gains = PidGains(kp=1e-200, deriv_filter=1e-200, kd=kd)
        assert gains.deriv_time_constant == math.inf
        if kd == 0.0:
            _, _, deriv = pid_compute(gains, 0.004, 0.0, 0.0, 0.0, ref=1.0, meas=0.5)
            assert deriv == 0.0


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
            assert repr(reference_at(path, t)[axis]) == repr(min_max_clamped(path, t, axis)), t

    def test_tracking_error_is_euclidean(self):
        assert tracking_error((1.0, 2.0), (4.0, 6.0)) == 5.0
        assert tracking_error((0.5, 0.5), (0.5, 0.5)) == 0.0


def test_package_uses_no_cached_property():
    # a cached property stores its value in the instance __dict__, creating
    # it, and on CPython 3.11 that takes every attribute load on the instance
    # off the specialised path: on hot objects such as PidGains and the
    # quantization grids, compute derived values in __post_init__ instead
    src = Path(ffsched.__file__).parent
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name == "cached_property":
                offenders.append(f"{path.relative_to(src)}:{getattr(node, 'lineno', '?')}")
    assert offenders == []
