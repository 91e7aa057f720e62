"""End-to-end and per-layer benchmark of the multicast-authentication stack.

Run one workload with ``python3 perfbench/run.py --workload NAME``; see
``perfbench/README.md``.
"""
