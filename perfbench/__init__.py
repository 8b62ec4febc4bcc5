"""Time-to-accuracy benchmark of the Hestenes-Jacobi SVD library.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds
<s> --trace <0|1>`` from the repository root.  ``perfbench/README.md``
explains the workloads, the layers each one loads, and which per-layer
metric should move which end-to-end metric.
"""
