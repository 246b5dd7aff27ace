"""The repository benchmark: seven workloads, eight end-to-end metrics,
and a per-layer cost ledger measured from outside the simulator.

See ``README.md`` in this directory for the glossary, the noise policy
and how to read a ``--trace`` ledger; ``spec.py`` is the single source
of the names that ``BENCHMARK.json`` at the repository root repeats.
"""
