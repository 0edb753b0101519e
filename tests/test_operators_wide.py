"""Tests for the wide shift-free kernel tier.

Approximate units too wide to tabulate (the 16-bit adders and 32-bit
multipliers FIR runs on) are served by :class:`WideAdder` /
:class:`WideMultiplier` through ``OperatorCatalog.compiled_instance``.  The
contract is bit-identity with the analytic oracle ``catalog.instance()``:
same values, dtype, shape and result type, on the shift-free path and on
the analytic fallback alike.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks import FirBenchmark
from repro.errors import OperatorError
from repro.operators import (
    ApproximateAdder,
    BrokenArrayMultiplier,
    CarryCutAdder,
    CompiledAdder,
    CompiledMultiplier,
    DrumMultiplier,
    LogMultiplier,
    OperatorKind,
    TruncatedAdder,
    WideAdder,
    WideMultiplier,
    compile_operator,
    default_catalog,
    is_compilable,
    kernel_tier,
    select_kernel,
)
from repro.operators.base import _MAX_SAFE_BITS

_CATALOG = default_catalog()
_ENTRIES = list(_CATALOG.adders) + list(_CATALOG.multipliers)
_WIDE_NAMES = [
    entry.name for entry in _ENTRIES
    if entry.width > 8 and not _CATALOG.instance(entry.name).is_exact
]
_EXACT_NAMES = [entry.name for entry in _ENTRIES if _CATALOG.instance(entry.name).is_exact]


def _budget(operator):
    """Magnitude bits an operand may use before the base class scales it."""
    if operator.kind is OperatorKind.ADDER:
        return operator.width - 1
    return min(operator.width, (_MAX_SAFE_BITS // 2) - 1)


def _edge_values(operator):
    """0, ±1 and ±(2**b - 1), ±2**b at the unit's budget edge ``b``.

    For adders ``-2**(width-1)`` is the scaled-path edge: its magnitude
    needs ``width`` bits even though it fits the two's-complement range.
    """
    edge = 1 << _budget(operator)
    return np.array([0, 1, -1, edge - 1, -(edge - 1), edge, -edge], dtype=np.int64)


def _assert_identical(kernel, oracle, a, b):
    for method in ("apply", "apply_trusted"):
        expected = getattr(oracle, method)(a, b)
        actual = getattr(kernel, method)(a, b)
        assert type(actual) is type(expected), method
        assert actual.dtype == expected.dtype, method
        assert np.shape(actual) == np.shape(expected), method
        np.testing.assert_array_equal(actual, expected)


#: Wide units outside the catalog: the tier is generic over every family
#: that keeps the base class's signed apply, and these models are not
#: scale-equivariant on powers of two, so they pin the budget edges.
_EXTRA_UNITS = {
    "carrycut16": CarryCutAdder(16, segment=5),
    "brokenarray32": BrokenArrayMultiplier(32, omitted=33),
    "log32": LogMultiplier(32),
}


def _pair(name):
    if name in _EXTRA_UNITS:
        return select_kernel(_EXTRA_UNITS[name]), _EXTRA_UNITS[name]
    return _CATALOG.compiled_instance(name), _CATALOG.instance(name)


class TestTierSelection:
    def test_catalog_has_wide_units_of_both_kinds(self):
        kinds = {_CATALOG.entry(name).kind for name in _WIDE_NAMES}
        assert kinds == {OperatorKind.ADDER, OperatorKind.MULTIPLIER}
        assert {_CATALOG.entry(name).width for name in _WIDE_NAMES} == {16, 32}

    @pytest.mark.parametrize("name", _WIDE_NAMES)
    def test_wide_units_get_the_wide_kernel(self, name):
        kernel, oracle = _pair(name)
        expected_type = WideAdder if oracle.kind is OperatorKind.ADDER else WideMultiplier
        assert isinstance(kernel, expected_type)
        assert kernel.base is oracle
        assert kernel.name == oracle.name
        assert kernel.width == oracle.width
        assert kernel.kind is oracle.kind
        assert kernel_tier(kernel) == kernel_tier(oracle) == "wide"

    @pytest.mark.parametrize("name", _EXACT_NAMES)
    def test_exact_units_come_back_as_the_instance_itself(self, name):
        kernel, oracle = _pair(name)
        assert kernel is oracle
        assert kernel_tier(oracle) == "exact"

    def test_every_catalog_unit_has_a_tier(self):
        tiers = {entry.name: kernel_tier(_CATALOG.instance(entry.name)) for entry in _ENTRIES}
        for name, tier in tiers.items():
            oracle = _CATALOG.instance(name)
            if oracle.is_exact:
                assert tier == "exact", name
            elif oracle.width <= 8:
                assert tier == "lut", name
                assert isinstance(_CATALOG.compiled_instance(name),
                                  (CompiledAdder, CompiledMultiplier))
            else:
                assert tier == "wide", name

    def test_lut_tier_contracts_are_unchanged(self):
        # compile_operator / is_compilable stay the LUT tier only.
        wide = TruncatedAdder(16, cut=11)
        assert compile_operator(wide) is wide
        assert not is_compilable(wide)
        assert not is_compilable(select_kernel(wide))
        assert isinstance(select_kernel(TruncatedAdder(8, cut=3)), CompiledAdder)

    def test_selected_kernels_are_not_wrapped_twice(self):
        kernel = select_kernel(DrumMultiplier(32, k=7))
        assert select_kernel(kernel) is kernel

    def test_units_with_their_own_signed_apply_stay_analytic(self):
        class Saturating(ApproximateAdder):
            def _compute_native(self, a, b):
                return a + b

            def _apply_signed(self, a, b):
                return np.clip(a + b, -100, 100)

        unit = Saturating(16)
        assert select_kernel(unit) is unit
        assert kernel_tier(unit) == "analytic"


@pytest.mark.parametrize("name", _WIDE_NAMES + sorted(_EXTRA_UNITS))
class TestBitIdentity:
    def test_budget_edges_pair_by_pair(self, name):
        # Scalars take the shift-free or the fallback path one pair at a time.
        kernel, oracle = _pair(name)
        edges = _edge_values(oracle)
        for a in edges:
            for b in edges:
                _assert_identical(kernel, oracle, a, b)

    def test_budget_edges_as_arrays(self, name):
        kernel, oracle = _pair(name)
        edges = _edge_values(oracle)
        inside = edges[np.abs(edges) < (1 << _budget(oracle))]
        # Every operand in budget: the shift-free path over the whole grid.
        _assert_identical(kernel, oracle, inside[:, None], inside[None, :])
        # The full grid mixes in the scaled edges: the analytic fallback.
        _assert_identical(kernel, oracle, edges[:, None], edges[None, :])

    def test_mixed_arrays_fall_back_to_the_analytic_path(self, name):
        kernel, oracle = _pair(name)
        rng = np.random.default_rng(13)
        edge = 1 << _budget(oracle)
        a = rng.integers(-edge + 1, edge, size=257)
        b = rng.integers(-edge + 1, edge, size=257)
        _assert_identical(kernel, oracle, a, b)
        a[::17] = rng.integers(edge, 4 * edge, size=a[::17].size)
        b[5] = -edge
        _assert_identical(kernel, oracle, a, b)

    def test_empty_operands(self, name):
        kernel, oracle = _pair(name)
        empty = np.array([], dtype=np.int64)
        _assert_identical(kernel, oracle, empty, empty)
        _assert_identical(kernel, oracle, np.zeros((0, 3), dtype=np.int64),
                          np.arange(3, dtype=np.int64))
        _assert_identical(kernel, oracle, empty, np.int64(5))

    def test_zero_dimensional_operands(self, name):
        kernel, oracle = _pair(name)
        for a, b in [(np.int64(0), np.int64(0)), (np.array(123), np.array(-45)),
                     (7, -9), (np.array(-1), np.arange(4, dtype=np.int64))]:
            _assert_identical(kernel, oracle, a, b)

    def test_fir_window_broadcast(self, name):
        kernel, oracle = _pair(name)
        benchmark = FirBenchmark(num_samples=200)
        inputs = benchmark.generate_inputs(np.random.default_rng(0))
        taps = inputs["h"][:, None]
        windows = np.stack([np.roll(inputs["x"], shift) for shift in range(taps.shape[0])])
        assert taps.shape == (16, 1) and windows.shape == (16, 200)
        _assert_identical(kernel, oracle, windows, taps)
        _assert_identical(kernel, oracle, taps, windows)


_INT64 = st.integers(min_value=-(2 ** 63) + 1, max_value=2 ** 63 - 1)
#: Magnitudes whose pairwise products stay below 2**62: never an overflow.
_MUL_SAFE = st.integers(min_value=-(2 ** 31) + 1, max_value=2 ** 31 - 1)


def _operand_lists(elements):
    return st.integers(min_value=1, max_value=8).flatmap(
        lambda size: st.tuples(st.lists(elements, min_size=size, max_size=size),
                               st.lists(elements, min_size=size, max_size=size)))


_ADDER_OPERANDS = st.one_of(st.integers(min_value=-(2 ** 16), max_value=2 ** 16), _INT64)
_MUL_OPERANDS = st.one_of(st.integers(min_value=-(2 ** 30), max_value=2 ** 30), _MUL_SAFE)


class TestSampledOperands:
    @settings(max_examples=80, deadline=None)
    @given(operands=_operand_lists(_ADDER_OPERANDS))
    def test_wide_adders_match_the_oracle(self, operands):
        a, b = (np.array(side, dtype=np.int64) for side in operands)
        for name in _WIDE_NAMES:
            kernel, oracle = _pair(name)
            if oracle.kind is OperatorKind.ADDER:
                _assert_identical(kernel, oracle, a, b)

    @settings(max_examples=80, deadline=None)
    @given(operands=_operand_lists(_MUL_OPERANDS))
    def test_wide_multipliers_match_the_oracle(self, operands):
        a, b = (np.array(side, dtype=np.int64) for side in operands)
        for name in _WIDE_NAMES:
            kernel, oracle = _pair(name)
            if oracle.kind is OperatorKind.MULTIPLIER:
                _assert_identical(kernel, oracle, a, b)

    def test_overflowing_products_still_raise(self):
        kernel, oracle = _pair("mul32_043")
        huge = np.array([1 << 40], dtype=np.int64)
        for operator in (kernel, oracle):
            with pytest.raises(OperatorError):
                operator.apply(huge, huge)
