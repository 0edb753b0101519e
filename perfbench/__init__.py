"""Benchmark of the repro-axc system: workloads, tracing and checks (see README.md)."""
