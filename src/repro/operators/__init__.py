"""Approximate arithmetic operators and their characterisation.

This package is the reproduction's stand-in for the EvoApproxLib component
database used by the paper.  It provides:

* behavioural models of exact and approximate adders / multipliers
  (:mod:`repro.operators.adders`, :mod:`repro.operators.multipliers`),
* error-metric characterisation of any operator
  (:mod:`repro.operators.characterization`),
* a per-operation power / latency accounting model
  (:mod:`repro.operators.energy`),
* the named operator catalog reproducing Tables I and II of the paper
  (:mod:`repro.operators.catalog`), and
* a calibration search that picks family parameters matching a target MRED
  (:mod:`repro.operators.calibrate`).
"""

from repro.operators.adders import (
    CarryCutAdder,
    LowerOrAdder,
    TruncatedAdder,
)
from repro.operators.base import (
    ApproximateAdder,
    ApproximateMultiplier,
    Operator,
    OperatorCharacterization,
    OperatorKind,
    as_int_array,
)
from repro.operators.calibrate import calibrate_adder, calibrate_multiplier
from repro.operators.catalog import (
    CatalogEntry,
    OperatorCatalog,
    default_catalog,
    paper_adders,
    paper_multipliers,
)
from repro.operators.compiled import (
    CompiledAdder,
    CompiledMultiplier,
    WideAdder,
    WideMultiplier,
    compile_operator,
    is_compilable,
    kernel_tier,
    select_kernel,
)
from repro.operators.characterization import (
    ErrorReport,
    characterize,
    error_distance,
    mean_absolute_error,
    mean_relative_error_distance,
)
from repro.operators.energy import CostModel, OperationCost, RunCost
from repro.operators.exact import ExactAdder, ExactMultiplier
from repro.operators.multipliers import (
    BrokenArrayMultiplier,
    DrumMultiplier,
    LogMultiplier,
    OperandTruncationMultiplier,
)

__all__ = [
    "Operator",
    "OperatorKind",
    "OperatorCharacterization",
    "ApproximateAdder",
    "ApproximateMultiplier",
    "ExactAdder",
    "ExactMultiplier",
    "TruncatedAdder",
    "LowerOrAdder",
    "CarryCutAdder",
    "OperandTruncationMultiplier",
    "BrokenArrayMultiplier",
    "LogMultiplier",
    "DrumMultiplier",
    "CompiledAdder",
    "CompiledMultiplier",
    "WideAdder",
    "WideMultiplier",
    "compile_operator",
    "is_compilable",
    "select_kernel",
    "kernel_tier",
    "as_int_array",
    "ErrorReport",
    "characterize",
    "error_distance",
    "mean_absolute_error",
    "mean_relative_error_distance",
    "CostModel",
    "OperationCost",
    "RunCost",
    "CatalogEntry",
    "OperatorCatalog",
    "default_catalog",
    "paper_adders",
    "paper_multipliers",
    "calibrate_adder",
    "calibrate_multiplier",
]
