"""The repository's benchmark: four oracle-checked workloads with an
outside-in per-layer trace.  Run it with ``python3 dpbench/run.py``;
see ``dpbench/README.md``."""
