"""End-to-end, per-layer benchmark of the gateway facade.

Run it with ``python -m benchmarks.e2e``; see ``benchmarks/e2e/README.md``.
"""
