"""End-to-end benchmark of the TSAJS reproduction, with a per-layer breakdown.

Run ``python3 perfbench/run.py --help``; the design is in ``README.md``.
"""
