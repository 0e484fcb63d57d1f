"""Perf ledger: seeded workloads over the evolve→deploy loop.

See ``README.md`` in this directory; ``run.py`` is the entry point.
"""
