"""Benchmark of the stripdamp computations; see README.md."""
