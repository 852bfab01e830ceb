"""Deterministic random streams.

Draws come from numpy's Philox bit generator, a counter-based generator
whose output for a given key is identical across platforms and runs. Child
streams are derived from the parent seed and a CRC-32 of a text label, so
the full stream tree is a pure function of the root seed.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK64 = (1 << 64) - 1


class RngStream:
    """A seeded Philox stream with labeled child derivation."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed)))

    def child(self, label: str) -> "RngStream":
        """Derive an independent stream from this seed and a label."""
        tag = zlib.crc32(label.encode("utf-8"))
        return RngStream((self.seed * 0x9E3779B97F4A7C15 + tag + 1) & _MASK64)

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray | float:
        """An array of draws in [low, high), or one Python float when no shape is given.

        Both forms take the same values from the stream, in the same order.
        """
        return self._gen.uniform(low, high, size=shape)

    def normal(self, scale: float, shape=()) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)
