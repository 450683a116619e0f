"""Plant, controller and reference path for the two-axis tracking loops.

Each axis of the robot is a linear plant driven through a zero-order hold:
the position responds to the held command through an integrator with a
viscous pole.  Between command updates the state is propagated with the
exact closed-form solution, so step size never affects accuracy.
"""

from __future__ import annotations

from math import cos, expm1, hypot, inf, pi, sin

from .frozen import Frozen


class PlantParams(Frozen):
    """position'' = -pole_rate * position' + input_gain * command"""

    __slots__ = _fields = ("pole_rate", "input_gain")

    def __init__(self, pole_rate: float = 2.0, input_gain: float = 2000.0):
        if pole_rate <= 0:
            raise ValueError("pole_rate must be positive")
        self._set(pole_rate, input_gain)


def plant_step(
    position: float, velocity: float, u: float, dt: float, params: PlantParams
) -> tuple[float, float]:
    """Advance the plant by `dt` seconds with `u` held constant; returns
    (position, velocity).

    Exact discretization: velocity relaxes exponentially toward the steady
    value input_gain * u / pole_rate and position integrates it in closed
    form.  Composing two steps equals one combined step to rounding error.
    """
    if dt < 0:
        raise ValueError("dt must be non-negative")
    a = params.pole_rate
    v_inf = params.input_gain * u / a
    ramp = -expm1(-a * dt)  # 1 - exp(-a dt), accurate for small dt
    return (
        position + (velocity - v_inf) * ramp / a + v_inf * dt,
        v_inf + (velocity - v_inf) * (1.0 - ramp),
    )


class PidGains(Frozen):
    """Positional PID with a filtered derivative acting on the measurement.

    The defaults are tuned against the nominal plant sampled at 4 ms: the
    step response settles into a 5% band in about 0.16 s with under 10%
    overshoot, and the loop stays stable over the whole 1 ms to 7 ms range
    the scheduler may command, including preemption-induced actuation
    delays of most of a period. They are deliberately frozen so scheduling
    modes stay comparable.

    `deriv_time_constant`, Td/N, the time constant of the derivative's
    first-order filter, is computed once at construction and stored in a
    slot that is not a field (so `==`, `hash` and `repr` see only the four
    gains, and `replace` computes it again). `pid_compute` reads the gains
    once per control job, each a slot load on CPython's specialised path.
    When `kp * deriv_filter` underflows to 0 the value is +inf rather than a
    division error: `validate_scenario` rejects that case when `kd > 0`, and
    `pid_compute` never reads the value when `kd == 0`.
    """

    _fields = ("kp", "ki", "kd", "deriv_filter")  # deriv_filter: the dimensionless filter ratio N
    __slots__ = (*_fields, "deriv_time_constant")

    def __init__(self, kp: float = 1.3, ki: float = 3.0, kd: float = 0.035, deriv_filter: float = 25.0):
        if deriv_filter <= 0:
            raise ValueError("deriv_filter must be positive")
        scale = (kp if kp > 0 else 1.0) * deriv_filter
        self._set(kp, ki, kd, deriv_filter, deriv_time_constant=kd / scale if scale else inf)


def pid_compute(
    g: PidGains,
    period: float,
    integrator: float,
    deriv: float,
    last_meas: float | None,
    ref: float,
    meas: float,
) -> tuple[float, float, float]:
    """One controller update with sampling period `period` seconds; returns
    (command, integrator, filtered derivative), and the new last measurement
    is `meas`.

    All three terms are recomputed against the current period, so a
    rescaled sampling period takes effect immediately and without transient
    kicks: the integrator carries over unchanged and the derivative acts on
    the measurement, not the error.
    """
    if period <= 0:
        raise ValueError("sampling period must be positive")
    error = ref - meas
    integrator = integrator + g.ki * period * error
    if g.kd == 0.0 or last_meas is None:
        deriv = 0.0
    else:
        # first-order filter with time constant Td/N, backward-difference
        tf = g.deriv_time_constant
        deriv = (tf * deriv - g.kd * (meas - last_meas)) / (tf + period)
    return g.kp * error + integrator + deriv, integrator, deriv


class ReferencePath(Frozen):
    """Half-circle swept at constant angular speed, flat side down.

    The target starts at (0, 0), rises over the upper arc and lands on
    (2, 0) after `duration` seconds.  Queries outside the time span clamp
    to the endpoints.
    """

    __slots__ = _fields = ("duration",)
    centre = (1.0, 0.0)
    radius = 1.0

    def __init__(self, duration: float = 4.0):
        if duration <= 0:
            raise ValueError("duration must be positive")
        self._set(duration)


def reference_at(path: ReferencePath, t: float) -> tuple[float, float]:
    frac = t / path.duration
    frac = 0.0 if frac < 0.0 else 1.0 if frac > 1.0 else frac  # -0.0 and NaN pass through
    angle = pi * (1.0 - frac)
    (cx, cy), radius = path.centre, path.radius
    return (cx + radius * cos(angle), cy + radius * sin(angle))


def tracking_error(actual: tuple[float, float], target: tuple[float, float]) -> float:
    """Euclidean distance between actual and target positions."""
    return hypot(actual[0] - target[0], actual[1] - target[1])
