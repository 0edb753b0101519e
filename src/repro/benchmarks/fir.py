"""FIR low-pass filter benchmark (the paper's second application).

A direct-form FIR filter applied to an integer white-noise signal, exactly
as the paper describes ("FIR with 100 and 200 samples, all white noise
signals with Low Pass Filter functionality").  Products and accumulations go
through the approximation context; the precise datapath uses 16-bit
additions and 32-bit multiplications, matching the operator widths the
paper's exploration selects for FIR.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.benchmarks.base import Benchmark
from repro.benchmarks.workloads import lowpass_coefficients, white_noise
from repro.errors import BenchmarkError
from repro.instrumentation.context import ApproxContext

__all__ = ["FirBenchmark"]


class FirBenchmark(Benchmark):
    """Direct-form integer FIR filter.

    Variables available for approximation:

    * ``"x"`` — the input signal window,
    * ``"h"`` — the filter coefficients,
    * ``"acc"`` — the accumulator of the multiply-accumulate chain.

    Multiplications touch ``x`` and ``h``; accumulations touch ``acc``.
    """

    variables = ("x", "h", "acc")
    add_width = 16
    mul_width = 32

    def __init__(self, num_samples: int = 100, num_taps: int = 16,
                 amplitude: int = 127, coefficient_bits: int = 7) -> None:
        if num_samples <= 0:
            raise BenchmarkError(f"num_samples must be positive, got {num_samples}")
        if num_taps <= 1:
            raise BenchmarkError(f"num_taps must be at least 2, got {num_taps}")
        self.num_samples = int(num_samples)
        self.num_taps = int(num_taps)
        self.amplitude = int(amplitude)
        self.coefficient_bits = int(coefficient_bits)
        self.name = f"fir_{self.num_samples}"

    def generate_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        return {
            "x": white_noise(rng, self.num_samples, amplitude=self.amplitude),
            "h": lowpass_coefficients(self.num_taps, scale_bits=self.coefficient_bits),
        }

    def run(self, context: ApproxContext, inputs: Mapping[str, np.ndarray]) -> np.ndarray:
        signal = np.asarray(inputs["x"])
        taps = np.asarray(inputs["h"])
        if signal.shape != (self.num_samples,):
            raise BenchmarkError(
                f"{self.name}: signal shape {signal.shape} does not match ({self.num_samples},)"
            )
        if taps.shape != (self.num_taps,):
            raise BenchmarkError(
                f"{self.name}: taps shape {taps.shape} does not match ({self.num_taps},)"
            )

        # y[n] = sum_t h[t] * x[n - t]; the signal is zero-padded at the start
        # so every output sample performs the full num_taps MAC operations.
        # Row t of the window matrix is the signal delayed by t samples, so
        # one multiply yields every tap's products; the accumulation stays a
        # sequential chain of adds, one per tap, as in the scalar MAC loop.
        padded = np.concatenate([np.zeros(self.num_taps - 1, dtype=np.int64), signal])
        windows = sliding_window_view(padded, self.num_samples)[::-1]
        products = context.mul(windows, taps[:, None], variables=("x", "h"))
        accumulator = np.zeros(self.num_samples, dtype=np.int64)
        for tap_products in products:
            accumulator = context.add(accumulator, tap_products, variables=("acc",))
        return accumulator
