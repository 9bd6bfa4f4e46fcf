"""Benchmark harness for smartcea: workloads, outside-in tracing, run records.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
