"""Fuzzy inference engine: quantized universes, Mamdani rules, look-up table."""

from .inference import defuzzify_centroid, infer
from .membership import INPUT_FAMILY, OUTPUT_FAMILY, MembershipFamily, fuzzify
from .quantization import (
    ERROR_UNIVERSE,
    RESCALE_UNIVERSE,
    QuantizedUniverse,
    round_half_away,
)
from .rules import DEFAULT_RULES, RuleBase
from .table import (
    LookupTable,
    compile_lookup_table,
    diff_report,
    format_table,
    load_golden_table,
    lookup,
)

__all__ = [
    "DEFAULT_RULES",
    "ERROR_UNIVERSE",
    "INPUT_FAMILY",
    "OUTPUT_FAMILY",
    "RESCALE_UNIVERSE",
    "LookupTable",
    "MembershipFamily",
    "QuantizedUniverse",
    "RuleBase",
    "compile_lookup_table",
    "defuzzify_centroid",
    "diff_report",
    "format_table",
    "fuzzify",
    "infer",
    "load_golden_table",
    "lookup",
    "round_half_away",
]
