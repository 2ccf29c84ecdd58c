"""Distances and rectangle approximations for 2-parameter interval modules."""

__version__ = "0.1.0"
