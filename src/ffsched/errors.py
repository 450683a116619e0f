"""The four failure categories a user can cause; `cli.EXIT_CODES` maps each to
its exit code. A guard against a defect raises ValueError instead."""


class FfschedError(Exception):
    """Base class; `category` is the machine-readable token printed by the CLI."""

    category = "internal"


class InfeasibleLoadError(FfschedError):
    """Utilization target not achievable by rescaling the control tasks."""

    category = "infeasible-load"


class ScenarioSyntaxError(FfschedError):
    category = "scenario-syntax"

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ScenarioSemanticError(FfschedError):
    """A well-formed scenario that violates a configuration invariant."""

    category = "scenario-semantic"


class EmitError(FfschedError):
    """Trace or report output could not be written."""

    category = "io"
