"""Spectral density prediction and local-law verification for random matrices."""

__version__ = "0.1.0"
