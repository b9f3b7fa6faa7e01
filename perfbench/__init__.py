"""Benchmark of the self-healing reproduction: see BENCHMARK.json and run.py."""
