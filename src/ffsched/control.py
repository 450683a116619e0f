"""Plant, controller and reference path for the two-axis tracking loops.

Each axis of the robot is a linear plant driven through a zero-order hold:
the position responds to the held command through an integrator with a
viscous pole.  Between command updates the state is propagated with the
exact closed-form solution, so step size never affects accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PlantParams:
    """position'' = -pole_rate * position' + input_gain * command"""

    pole_rate: float = 2.0
    input_gain: float = 2000.0

    def __post_init__(self):
        if self.pole_rate <= 0:
            raise ValueError("pole_rate must be positive")


@dataclass(frozen=True)
class PlantState:
    position: float = 0.0
    velocity: float = 0.0
    command: float = 0.0  # actuator input currently held


def plant_step(
    state: PlantState, u: float, dt: float, params: PlantParams = PlantParams()
) -> PlantState:
    """Advance the plant by `dt` seconds with `u` held constant.

    Exact discretization: velocity relaxes exponentially toward the steady
    value input_gain * u / pole_rate and position integrates it in closed
    form.  Composing two steps equals one combined step to rounding error.
    """
    if dt < 0:
        raise ValueError("dt must be non-negative")
    position, velocity = plant_advance(state.position, state.velocity, u, dt, params)
    return PlantState(position=position, velocity=velocity, command=u)


def plant_advance(
    position: float, velocity: float, u: float, dt: float, params: PlantParams
) -> tuple[float, float]:
    """The arithmetic of `plant_step` on bare floats: (position, velocity)
    after `dt >= 0` seconds, for callers that keep the state themselves."""
    a = params.pole_rate
    v_inf = params.input_gain * u / a
    ramp = -math.expm1(-a * dt)  # 1 - exp(-a dt), accurate for small dt
    return (
        position + (velocity - v_inf) * ramp / a + v_inf * dt,
        v_inf + (velocity - v_inf) * (1.0 - ramp),
    )


@dataclass(frozen=True)
class PidGains:
    """Positional PID with a filtered derivative acting on the measurement.

    The defaults are tuned against the nominal plant sampled at 4 ms: the
    step response settles into a 5% band in about 0.16 s with under 10%
    overshoot, and the loop stays stable over the whole 1 ms to 7 ms range
    the scheduler may command, including preemption-induced actuation
    delays of most of a period. They are deliberately frozen so scheduling
    modes stay comparable.
    """

    kp: float = 1.3
    ki: float = 3.0
    kd: float = 0.035
    deriv_filter: float = 25.0  # dimensionless filter ratio N

    def __post_init__(self):
        if self.deriv_filter <= 0:
            raise ValueError("deriv_filter must be positive")


@dataclass(frozen=True)
class PidState:
    gains: PidGains
    period: float  # current sampling period in seconds
    integrator: float = 0.0
    deriv: float = 0.0  # filtered derivative term as last added to the output
    last_meas: float | None = None


def pid_compute(pid: PidState, ref: float, meas: float) -> tuple[float, PidState]:
    """One controller update; returns the command and the advanced state.

    All three terms are recomputed against the state's current period, so a
    rescaled sampling period takes effect immediately and without transient
    kicks: the integrator carries over unchanged and the derivative acts on
    the measurement, not the error.
    """
    if pid.period <= 0:
        raise ValueError("sampling period must be positive")
    u, integrator, deriv = pid_update(
        pid.gains, pid.period, pid.integrator, pid.deriv, pid.last_meas, ref, meas
    )
    return u, replace(pid, integrator=integrator, deriv=deriv, last_meas=meas)


def pid_update(
    g: PidGains,
    period: float,
    integrator: float,
    deriv: float,
    last_meas: float | None,
    ref: float,
    meas: float,
) -> tuple[float, float, float]:
    """The arithmetic of `pid_compute` on bare floats: (command, integrator,
    filtered derivative) after one update with a positive `period`; the new
    last measurement is `meas`."""
    error = ref - meas
    integrator = integrator + g.ki * period * error
    if g.kd == 0.0 or last_meas is None:
        deriv = 0.0
    else:
        # first-order filter with time constant Td/N, backward-difference
        tf = g.kd / ((g.kp if g.kp > 0 else 1.0) * g.deriv_filter)
        deriv = (tf * deriv - g.kd * (meas - last_meas)) / (tf + period)
    return g.kp * error + integrator + deriv, integrator, deriv


@dataclass(frozen=True)
class ReferencePath:
    """Half-circle swept at constant angular speed, flat side down.

    The target starts at `start`, rises over the upper arc and lands on
    `end` after `duration` seconds.  Queries outside the time span clamp
    to the endpoints.
    """

    start: tuple[float, float] = (0.0, 0.0)
    end: tuple[float, float] = (2.0, 0.0)
    duration: float = 4.0

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.start[1] != self.end[1]:
            raise ValueError("start and end must share a baseline")
        if self.end[0] <= self.start[0]:
            raise ValueError("path must run left to right")

    @property
    def centre(self) -> tuple[float, float]:
        return (0.5 * (self.start[0] + self.end[0]), self.start[1])

    @property
    def radius(self) -> float:
        return 0.5 * (self.end[0] - self.start[0])


def reference_at(path: ReferencePath, t: float) -> tuple[float, float]:
    frac = min(max(t / path.duration, 0.0), 1.0)
    angle = math.pi * (1.0 - frac)
    cx, cy = path.centre
    return (cx + path.radius * math.cos(angle), cy + path.radius * math.sin(angle))


def tracking_error(actual: tuple[float, float], target: tuple[float, float]) -> float:
    """Euclidean distance between actual and target positions."""
    return math.hypot(actual[0] - target[0], actual[1] - target[1])
