"""Desk-scale emulation lab: mock server, delay links, workload, scenarios."""
