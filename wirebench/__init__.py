"""The repository benchmark: closed-loop wire workloads (see README.md)."""
