"""The repository benchmark: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload four-pairs --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  The last line of standard output is
one JSON object; the lines before it are a readable table.  The
workloads, and why each exists, are described in
:mod:`perfbench.inputs`.
"""
