"""Benchmark of record for the mega-scale closed loop.

``python3 bench/run.py --workload <name> --seed <n>`` runs one workload in
a fresh single-threaded subprocess and prints every metric with its unit;
see ``bench/README.md``.
"""
