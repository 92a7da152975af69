"""The W5 benchmark: five seeded gateway-perimeter workloads, end-to-end
metrics, and an outside-in per-layer self-time ledger (see README.md).
"""
