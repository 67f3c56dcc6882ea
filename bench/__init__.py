"""Host-time benchmark of the simulator: workloads, sampler and CLI.

Run it with ``python3 bench/run.py``; see ``bench/README.md``.
"""
