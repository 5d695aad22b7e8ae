"""The matchroid benchmark: workloads, reference outputs, tracing and comparison."""
