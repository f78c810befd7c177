"""Empty: the package has no simplex; perfbench/worker.py still imports this module."""
