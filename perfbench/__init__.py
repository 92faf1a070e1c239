"""Benchmark for the Gimbal reproduction: workloads, tracing and runner."""
