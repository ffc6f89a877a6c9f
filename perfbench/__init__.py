"""The repository benchmark: simulator cost and simulated cluster outcomes.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``run.py``.
"""
