"""The repo benchmark: live-TCP commit latency/throughput, the durable
path, and partial-connectivity down-time, with a per-layer traced run.

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
--trace 0|1`` is the form ``BENCHMARK.json`` names; ``PYTHONPATH=src
python -m benchmarks.e2e --seed N`` runs every workload and prints every
metric. See ``README.md`` in this directory.
"""
