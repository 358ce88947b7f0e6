"""Benchmark for rankweight: workloads, independent checks and tracing from outside."""
