"""Benchmark of the projqm CLI: workloads, job runner, tracer and entry point."""
