"""Benchmark of the layerforge pipeline; run perfbench/run.py."""
