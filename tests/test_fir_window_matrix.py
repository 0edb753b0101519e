"""The FIR kernel's single window-matrix multiply against a per-tap oracle.

``FirBenchmark.run`` computes every tap's products in one context multiply
over the (taps x samples) matrix of delayed signal windows, then keeps the
approximate accumulation a sequential chain of one add per tap.  The
direct-form per-tap MAC loop below is the oracle: for every design point
the rewrite must give the same outputs, the same operation profile (values
and key order) and the same routing keys in the same first-use order, on
the analytic and the compiled catalog alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchmarks import FirBenchmark
from repro.dse.evaluator import Evaluator


def _per_tap_fir(benchmark, context, inputs):
    """Direct-form FIR: one multiply and one add per tap."""
    signal = np.asarray(inputs["x"])
    taps = np.asarray(inputs["h"])
    num_taps, num_samples = benchmark.num_taps, benchmark.num_samples
    padded = np.concatenate([np.zeros(num_taps - 1, dtype=np.int64), signal])
    accumulator = np.zeros(num_samples, dtype=np.int64)
    for tap_index in range(num_taps):
        start = num_taps - 1 - tap_index
        window = padded[start:start + num_samples]
        products = context.mul(window, taps[tap_index], variables=("x", "h"))
        accumulator = context.add(accumulator, products, variables=("acc",))
    return accumulator


def _assert_matches_oracle(benchmark, evaluator, point, trusted, inputs=None):
    inputs = evaluator.inputs if inputs is None else inputs
    context = evaluator.context_for(point, trusted=trusted)
    oracle_context = evaluator.context_for(point, trusted=trusted)
    actual = benchmark.run(context, inputs)
    expected = _per_tap_fir(benchmark, oracle_context, inputs)
    assert actual.dtype == expected.dtype, point
    np.testing.assert_array_equal(actual, expected, err_msg=str(point))
    assert list(context.profile.as_dict().items()) == \
        list(oracle_context.profile.as_dict().items()), point
    assert context.route_keys() == oracle_context.route_keys(), point


@pytest.mark.parametrize("compiled", [False, True], ids=["analytic", "compiled"])
@pytest.mark.parametrize("seed", [0, 1])
def test_every_fir_100_point_matches_the_per_tap_loop(seed, compiled):
    benchmark = FirBenchmark(num_samples=100)
    evaluator = Evaluator(benchmark, seed=seed, compiled=compiled)
    points = list(evaluator.design_space.enumerate())
    assert len(points) == 288
    for point in points:
        _assert_matches_oracle(benchmark, evaluator, point, trusted=True)


@pytest.mark.parametrize("compiled", [False, True], ids=["analytic", "compiled"])
def test_asymmetric_taps_keep_the_tap_to_delay_pairing(compiled):
    # The bundled low-pass taps are symmetric, which would hide a window
    # matrix whose rows are in reverse delay order; random taps do not.
    benchmark = FirBenchmark(num_samples=100)
    evaluator = Evaluator(benchmark, seed=0, compiled=compiled)
    rng = np.random.default_rng(11)
    inputs = {"x": rng.integers(-127, 128, size=100), "h": rng.integers(-64, 64, size=16)}
    assert not np.array_equal(inputs["h"], inputs["h"][::-1])
    for point in evaluator.design_space.enumerate():
        _assert_matches_oracle(benchmark, evaluator, point, True, inputs)


@pytest.mark.parametrize("compiled", [False, True], ids=["analytic", "compiled"])
def test_validating_contexts_match_the_per_tap_loop(compiled):
    benchmark = FirBenchmark(num_samples=40, num_taps=5)
    evaluator = Evaluator(benchmark, seed=3, compiled=compiled)
    space = evaluator.design_space
    for point in (space.initial_point(), space.most_aggressive_point()):
        _assert_matches_oracle(benchmark, evaluator, point, trusted=False)


def test_one_multiply_per_evaluation():
    benchmark = FirBenchmark(num_samples=100)
    evaluator = Evaluator(benchmark, seed=0)
    context = evaluator.context_for(evaluator.design_space.most_aggressive_point(),
                                    trusted=True)
    calls = []
    for unit in (context._approx_adder, context._approx_multiplier):
        original = unit.apply_trusted

        def counted(a, b, _original=original, _kind=unit.kind.value):
            calls.append(_kind)
            return _original(a, b)

        unit.apply_trusted = counted
    try:
        benchmark.run(context, evaluator.inputs)
    finally:
        for unit in (context._approx_adder, context._approx_multiplier):
            del unit.apply_trusted
    assert calls == ["multiplier"] + ["adder"] * benchmark.num_taps
    profile = context.profile.as_dict()
    assert list(profile.values()) == [benchmark.num_taps * benchmark.num_samples] * 2
