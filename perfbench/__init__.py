"""Benchmark of the capseq desk pipeline; see run.py."""
