"""Compiled operator kernels: bit-identical fast paths for the catalog units.

The exploration loop is dominated by evaluating design points, and every
evaluation runs the benchmark kernel through behavioural operator models
whose analytic implementations (Mitchell log, DRUM truncation, segmented
carry chains, ...) take a dozen NumPy passes per call, plus two float
dynamic-range scans per operand.  :func:`select_kernel` serves each unit
from the first tier that applies:

LUT (:class:`CompiledAdder`, :class:`CompiledMultiplier`)
    A unit of native width ``w`` is a pure function of at most
    ``2**(w+1)`` distinct operand patterns per side, so for narrow units
    the *entire* behaviour fits in dense lookup tables computed once per
    process.  ``native`` holds ``_compute_native`` over the full unsigned
    native domain; ``signed`` holds the whole signed, dynamic-range-scaled
    ``_apply_signed`` for operands already inside the native range (the
    shift-0 case).  When every operand fits, one gather replaces the
    complete sign-decomposition pipeline; when operands are wider, the
    scaled path computes the per-element shift (through a shared
    bit-length LUT where possible) and still finishes with a single gather.
wide (:class:`WideAdder`, :class:`WideMultiplier`)
    Units too wide to tabulate (the 16-bit adders and 32-bit multipliers
    FIR runs on).  When every operand is within the unit's magnitude budget
    the dynamic-range shift is provably 0 everywhere, so the per-element
    scaling (and, for multipliers, the float overflow scan) is skipped and
    the unit's own ``_compute_native`` runs once; any other call is handed
    to the unit's analytic ``_apply_signed``.
analytic
    Everything else — exact units (already a single vectorised operation;
    their ``_apply_signed`` intentionally skips dynamic-range scaling) and
    units that override ``_apply_signed`` — is served by the unit itself.

Results are bit-identical to the analytic models by construction: the
tables are *generated by* the analytic code, the scaled LUT path reuses the
exact shift arithmetic of :mod:`repro.operators.base`, and the wide tier
runs the base class's shift-0 arithmetic on the unit's own native model.

Tables are cached per process keyed by the operator's family and
parameters, so every evaluator, sweep chunk and campaign job in a process
shares one set of tables per distinct unit.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.operators.base import (
    _MAX_SAFE_BITS,
    ApproximateAdder,
    ApproximateMultiplier,
    Operator,
    OperatorKind,
    _magnitude_scale,
)

__all__ = [
    "MAX_COMPILED_WIDTH",
    "MAX_TABLE_ENTRIES",
    "CompiledAdder",
    "CompiledMultiplier",
    "WideAdder",
    "WideMultiplier",
    "compile_operator",
    "is_compilable",
    "select_kernel",
    "kernel_tier",
    "clear_compiled_caches",
]

#: Widest native width considered for compilation.  Table sizes grow as
#: ``4**width``; the paper's 8-bit units compile to at most 2 MiB per unit.
MAX_COMPILED_WIDTH = 11

#: Hard cap on entries per table (int64): 4M entries = 32 MiB.  Together
#: with :data:`MAX_COMPILED_WIDTH` this admits units up to 10 bits and
#: keeps an accidental wide-unit compile from exhausting memory.
MAX_TABLE_ENTRIES = 1 << 22

# (native, signed) table pairs keyed by operator family + parameters, shared
# by every compiled instance of behaviourally identical units in a process.
_TABLE_CACHE: Dict[Tuple, Tuple[np.ndarray, np.ndarray]] = {}

# Bit-length shift tables keyed by magnitude budget, shared across units.
_SHIFT_LUT_CACHE: Dict[int, np.ndarray] = {}

#: Domain of the shift LUT: per-element dynamic-range shifts are a gather
#: for magnitudes below 2**20 (everything the bundled workloads produce)
#: and fall back to the float-based scan above it.
_SHIFT_LUT_BITS = 20


def _operator_signature(operator: Operator) -> Tuple:
    """Behavioural identity of a unit: family plus every parameter but the name."""
    params = tuple(sorted(
        (key, value) for key, value in vars(operator).items() if key != "name"
    ))
    return (type(operator).__module__, type(operator).__qualname__, params)


def _shift_lut(budget_bits: int) -> np.ndarray:
    """``_magnitude_scale`` tabulated over ``[0, 2**_SHIFT_LUT_BITS)``."""
    table = _SHIFT_LUT_CACHE.get(budget_bits)
    if table is None:
        magnitudes = np.arange(1 << _SHIFT_LUT_BITS, dtype=np.int64)
        table = _magnitude_scale(magnitudes, budget_bits).astype(np.int8)
        _SHIFT_LUT_CACHE[budget_bits] = table
    return table


def _adder_tables(operator: Operator) -> Tuple[np.ndarray, np.ndarray]:
    """(native, signed) tables of an adder.

    ``native`` holds the raw ``_compute_native`` value over the unsigned
    ``width+1``-bit domain the base class masks operands into.  ``signed``
    holds the complete shift-0 ``_apply_signed`` result over the scaled
    operand domain ``[-2**(width-1), 2**(width-1))`` — exactly the values
    ``a >> shift`` can take after dynamic-range scaling.
    """
    out_bits = operator.width + 1
    side = 1 << out_bits
    unsigned = np.arange(side, dtype=np.int64)
    native = operator._compute_native(unsigned[:, None], unsigned[None, :])
    native = np.ascontiguousarray(native.astype(np.int64))

    offset = 1 << (operator.width - 1)
    mask = side - 1
    scaled = np.arange(-offset, offset, dtype=np.int64)
    patterns = scaled & mask
    usum = native[patterns[:, None], patterns[None, :]] & mask
    sign_bit = 1 << (out_bits - 1)
    signed = np.where(usum & sign_bit != 0, usum - side, usum).astype(np.int64)
    return native, np.ascontiguousarray(signed)


def _multiplier_tables(operator: Operator) -> Tuple[np.ndarray, np.ndarray]:
    """(native, signed) tables of a multiplier.

    ``native`` covers the unsigned magnitude domain ``[0, 2**budget)`` the
    base class scales operands into; ``signed`` covers the shift-0 signed
    apply over ``[-(2**budget - 1), 2**budget - 1]``.
    """
    budget = min(operator.width, (_MAX_SAFE_BITS // 2) - 1)
    side = 1 << budget
    magnitudes = np.arange(side, dtype=np.int64)
    native = operator._compute_native(magnitudes[:, None], magnitudes[None, :])
    native = np.ascontiguousarray(native.astype(np.int64))

    radius = side - 1
    operands = np.arange(-radius, radius + 1, dtype=np.int64)
    mags = np.abs(operands)
    signs = np.sign(operands)
    signed = (signs[:, None] * signs[None, :]) * native[mags[:, None], mags[None, :]]
    return native, np.ascontiguousarray(signed.astype(np.int64))


class CompiledAdder(ApproximateAdder):
    """LUT view of an adder: bit-identical, one gather on the hot path."""

    def __init__(self, base: Operator, native_table: np.ndarray,
                 signed_table: np.ndarray) -> None:
        super().__init__(base.width, name=base.name)
        self.base = base
        self._native_table = native_table
        self._signed_table = signed_table
        self._offset = 1 << (base.width - 1)   # scaled operands live in [-offset, offset)
        self._radius = self._offset - 1        # |operand| bound for the shift-0 fast path
        self._shift_lut = _shift_lut(base.width - 1)
        # Flat view + fused offset so one gather addresses the signed table:
        # flat[(a << width) + b + base] == signed[a + offset, b + offset].
        self._signed_flat = np.ascontiguousarray(signed_table.ravel())
        self._index_base = self._offset * ((1 << base.width) + 1)

    def _compute_native(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._native_table[a, b]

    def _apply_signed(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.size == 0 or b.size == 0:
            return super()._apply_signed(a, b)
        amin, amax = int(a.min()), int(a.max())
        bmin, bmax = int(b.min()), int(b.max())
        radius = self._radius
        width = self.width
        if -radius <= amin and amax <= radius and -radius <= bmin and bmax <= radius:
            # Every operand fits the native budget: shift is 0 everywhere and
            # the signed table holds the complete result.
            return self._signed_flat.take((a << width) + b + self._index_base)
        magnitudes = np.maximum(np.abs(a), np.abs(b))
        if max(amax, -amin, bmax, -bmin) < self._shift_lut.shape[0]:
            shift = self._shift_lut[magnitudes]
        else:
            shift = _magnitude_scale(magnitudes, width - 1)
        index = ((a >> shift) << width) + (b >> shift) + self._index_base
        return self._signed_flat.take(index) << shift

    def __repr__(self) -> str:
        return f"CompiledAdder({self.base!r})"


class CompiledMultiplier(ApproximateMultiplier):
    """LUT view of a multiplier: bit-identical, one gather on the hot path."""

    def __init__(self, base: Operator, native_table: np.ndarray,
                 signed_table: np.ndarray) -> None:
        super().__init__(base.width, name=base.name)
        self.base = base
        self._native_table = native_table
        self._signed_table = signed_table
        self._radius = native_table.shape[0] - 1  # magnitude bound of the native domain
        # Flat views + fused offset so one gather serves each path:
        # signed_flat[a*side + b + base] == signed[a + radius, b + radius].
        side = signed_table.shape[0]
        self._signed_flat = np.ascontiguousarray(signed_table.ravel())
        self._signed_side = side
        self._index_base = self._radius * (side + 1)
        self._native_flat = np.ascontiguousarray(native_table.ravel())
        self._budget = min(base.width, (_MAX_SAFE_BITS // 2) - 1)

    def _compute_native(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._native_table[a, b]

    def _apply_signed(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.size == 0 or b.size == 0:
            return super()._apply_signed(a, b)
        radius = self._radius
        amin, amax = int(a.min()), int(a.max())
        bmin, bmax = int(b.min()), int(b.max())
        if -radius <= amin and amax <= radius and -radius <= bmin and bmax <= radius:
            # Both magnitudes fit the native budget: shifts are 0 and the
            # signed table already carries the product sign.
            return self._signed_flat.take(a * self._signed_side + b + self._index_base)
        if max(amax, -amin) * max(bmax, -bmin) > (1 << _MAX_SAFE_BITS):
            # Elementwise products may overflow int64; the base path owns
            # the exact raise-or-proceed semantics for that regime.
            return super()._apply_signed(a, b)
        mag_a = np.abs(a)
        mag_b = np.abs(b)
        shift_a = _magnitude_scale(mag_a, self._budget)
        shift_b = _magnitude_scale(mag_b, self._budget)
        index = ((mag_a >> shift_a) << self._budget) + (mag_b >> shift_b)
        product = self._native_flat.take(index)
        return np.sign(a) * np.sign(b) * (product << (shift_a + shift_b))

    def __repr__(self) -> str:
        return f"CompiledMultiplier({self.base!r})"


def _shift_free(a: np.ndarray, b: np.ndarray, radius: int) -> bool:
    """Whether both operands are non-empty and every element lies in
    ``[-radius, radius]``."""
    return (a.size > 0 and b.size > 0
            and -radius <= min(int(a.min()), int(b.min()))
            and max(int(a.max()), int(b.max())) <= radius)


class WideAdder(ApproximateAdder):
    """Shift-free view of an adder too wide to tabulate: bit-identical.

    The base class scales by ``max(bit_length(|x|) - (width-1), 0)``, which
    is 0 for every element exactly when ``|x| < 2**(width-1)`` — so
    ``-2**(width-1)`` still takes the analytic (scaled) path.
    """

    def __init__(self, base: Operator) -> None:
        super().__init__(base.width, name=base.name)
        self.base = base
        self._radius = (1 << (base.width - 1)) - 1
        self._mask = (1 << (base.width + 1)) - 1
        self._sign_bit = 1 << base.width

    def _compute_native(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.base._compute_native(a, b)

    def _apply_signed(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if not _shift_free(a, b, self._radius):
            return self.base._apply_signed(a, b)
        mask = self._mask
        usum = self.base._compute_native(a & mask, b & mask).astype(np.int64) & mask
        # Sign-extend the (width+1)-bit two's-complement sum.
        return (usum ^ self._sign_bit) - self._sign_bit

    def __repr__(self) -> str:
        return f"WideAdder({self.base!r})"


class WideMultiplier(ApproximateMultiplier):
    """Shift-free view of a multiplier too wide to tabulate: bit-identical.

    With both magnitudes below ``2**budget`` (``budget = min(width, 30)``)
    every shift is 0 and the product stays below ``2**60``, so neither the
    scaling nor the base class's overflow scan can change the result.
    """

    def __init__(self, base: Operator) -> None:
        super().__init__(base.width, name=base.name)
        self.base = base
        self._radius = (1 << min(base.width, (_MAX_SAFE_BITS // 2) - 1)) - 1

    def _compute_native(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.base._compute_native(a, b)

    def _apply_signed(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if not _shift_free(a, b, self._radius):
            return self.base._apply_signed(a, b)
        product = self.base._compute_native(np.abs(a), np.abs(b)).astype(np.int64)
        return np.sign(a) * np.sign(b) * product

    def __repr__(self) -> str:
        return f"WideMultiplier({self.base!r})"


_KERNEL_TYPES = (CompiledAdder, CompiledMultiplier, WideAdder, WideMultiplier)


def _table_entries(operator: Operator) -> int:
    """Entries of the largest table compilation would build for ``operator``."""
    if operator.kind is OperatorKind.ADDER:
        side = 1 << (operator.width + 1)      # native domain dominates
    else:
        budget = min(operator.width, (_MAX_SAFE_BITS // 2) - 1)
        side = 2 * (1 << budget) - 1          # signed domain dominates
    return side * side


def is_compilable(operator: Operator, max_width: int = MAX_COMPILED_WIDTH,
                  max_table_entries: int = MAX_TABLE_ENTRIES) -> bool:
    """Whether :func:`compile_operator` would replace ``operator`` with LUTs.

    Exact units are never compiled: they are already a single vectorised
    operation and bypass dynamic-range scaling entirely.
    """
    if isinstance(operator, _KERNEL_TYPES):
        return False
    if operator.is_exact:
        return False
    if operator.width > max_width:
        return False
    return _table_entries(operator) <= max_table_entries


def compile_operator(operator: Operator, max_width: int = MAX_COMPILED_WIDTH,
                     max_table_entries: int = MAX_TABLE_ENTRIES) -> Operator:
    """A LUT-compiled, bit-identical view of ``operator`` — or the operator
    itself when compilation does not apply (exact units, wide units,
    oversized tables, already-compiled instances).
    """
    if not is_compilable(operator, max_width=max_width,
                         max_table_entries=max_table_entries):
        return operator
    key = _operator_signature(operator)
    tables = _TABLE_CACHE.get(key)
    if tables is None:
        if operator.kind is OperatorKind.ADDER:
            tables = _adder_tables(operator)
        else:
            tables = _multiplier_tables(operator)
        _TABLE_CACHE[key] = tables
    if operator.kind is OperatorKind.ADDER:
        return CompiledAdder(operator, *tables)
    return CompiledMultiplier(operator, *tables)


def _is_wide(operator: Operator) -> bool:
    """Whether the wide tier serves ``operator``: an approximate unit the LUT
    tier rejects whose signed apply is the base class's scaling pipeline."""
    if isinstance(operator, _KERNEL_TYPES) or operator.is_exact or is_compilable(operator):
        return False
    base_apply = (ApproximateAdder._apply_signed if operator.kind is OperatorKind.ADDER
                  else ApproximateMultiplier._apply_signed)
    return type(operator)._apply_signed is base_apply


def select_kernel(operator: Operator) -> Operator:
    """The fastest bit-identical kernel for ``operator``: its LUT view, else
    its wide shift-free view, else the operator itself (exact units, units
    with their own signed apply, already-selected kernels)."""
    compiled = compile_operator(operator)
    if compiled is not operator or not _is_wide(operator):
        return compiled
    if operator.kind is OperatorKind.ADDER:
        return WideAdder(operator)
    return WideMultiplier(operator)


def kernel_tier(operator: Operator) -> str:
    """Which tier :func:`select_kernel` serves ``operator`` from (``"lut"``,
    ``"wide"``, ``"exact"`` or ``"analytic"``); also names a selected kernel's
    own tier."""
    if isinstance(operator, (CompiledAdder, CompiledMultiplier)) or is_compilable(operator):
        return "lut"
    if isinstance(operator, (WideAdder, WideMultiplier)) or _is_wide(operator):
        return "wide"
    return "exact" if operator.is_exact else "analytic"


def clear_compiled_caches() -> None:
    """Drop the process-wide table caches (mainly for tests)."""
    _TABLE_CACHE.clear()
    _SHIFT_LUT_CACHE.clear()
