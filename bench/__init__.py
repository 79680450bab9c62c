"""Benchmark of the brokenstick library: workloads, tracing and output checks.

Run it from the repository root with ``python3 bench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>``; see ``bench/README.md``.
"""
