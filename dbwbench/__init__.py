"""End-to-end and per-layer benchmark of the DBWipes loop.

Run ``python3 dbwbench/run.py --help`` from the repository root; see
``dbwbench/README.md`` for the workloads and metrics.
"""
