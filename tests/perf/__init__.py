"""Tests for the repro.perf benchmark lab (bench/check)."""
