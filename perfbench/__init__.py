"""Serve-level benchmark for the ONEX reproduction; see ``run.py``."""
