"""Seeded end-to-end and per-layer benchmark of geotrellis_ray; run
``python3 perfbench/run.py --help`` from the repository root."""
