"""Simulated-physics gates on the paper's headline numbers (``test_gates.py``)."""
