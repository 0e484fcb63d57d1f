"""Self-tests of the perf harness (no forks, a few seconds)."""
