"""The CREDENCE benchmark: workloads, tracing and metrics (see README.md)."""
