"""The ledger: the benchmark that defines what JEM-mapper's numbers mean (see README.md)."""
