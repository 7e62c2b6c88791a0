"""Benchmark of the reproduction: workloads, tracing and self-test (see run.py)."""
