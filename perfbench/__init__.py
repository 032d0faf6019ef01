"""End-to-end benchmark of the PrivTree system (fit, bulk and interactive serving).

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; ``--workload all`` runs every workload.
"""
