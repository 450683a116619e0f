"""Linguistic rules mapping utilization error terms to a period rescaling."""

from __future__ import annotations

from dataclasses import dataclass

from .membership import INPUT_FAMILY, OUTPUT_FAMILY


@dataclass(frozen=True)
class RuleBase:
    """Complete rule matrix: one output label per (error, delta-error) pair."""

    error_labels: tuple[str, ...]
    delta_labels: tuple[str, ...]
    output_labels: tuple[str, ...]
    matrix: tuple[tuple[str, ...], ...]  # matrix[error][delta] -> output label

    def __post_init__(self):
        if len(self.matrix) != len(self.error_labels):
            raise ValueError("one matrix row per error label required")
        for row in self.matrix:
            if len(row) != len(self.delta_labels):
                raise ValueError("one matrix column per delta label required")
            for label in row:
                if label not in self.output_labels:
                    raise ValueError(f"unknown output label {label!r}")

    def consequent_index(self, error_index: int, delta_index: int) -> int:
        return self.output_labels.index(self.matrix[error_index][delta_index])


# Negative error means the CPU runs above target, so periods must grow fast;
# positive error (spare capacity) shrinks them cautiously.  The labels are the
# families' own, so a consequent's index is its index in OUTPUT_FAMILY (`infer`).
DEFAULT_RULES = RuleBase(
    error_labels=INPUT_FAMILY.labels,
    delta_labels=INPUT_FAMILY.labels,
    output_labels=OUTPUT_FAMILY.labels,
    matrix=(
        ("PB", "PB", "PB", "PB", "PM"),
        ("PB", "PB", "PM", "PS", "ZE"),
        ("PM", "PS", "ZE", "ZE", "NS"),
        ("PS", "ZE", "ZE", "NS", "NM"),
        ("ZE", "NS", "NM", "NB", "NB"),
    ),
)
