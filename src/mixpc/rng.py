"""Seeded, stream-split random number generation.

Every random draw in this package comes from a Philox4x64-10 counter-based
generator.  Streams are split by hashing a base seed together with a tuple
of string/int labels into a 128-bit Philox key, so independent components
(instance generation, per-epoch rounding thresholds, Monte-Carlo
replications) never share a stream and any single stream can be recreated
in isolation.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["rng_for", "philox_key", "restart"]

_DOMAIN = b"mixpc-philox-v1:"


def philox_key(seed: int, *stream: str | int) -> np.ndarray:
    """Derive a 2-word uint64 Philox key from a seed and stream labels."""
    material = _DOMAIN + repr((int(seed),) + tuple(stream)).encode("utf-8")
    digest = hashlib.sha256(material).digest()[:16]
    return np.frombuffer(digest, dtype=np.uint64).copy()


def rng_for(seed: int, *stream: str | int) -> np.random.Generator:
    """Generator for the named stream; identical labels give identical bits."""
    return np.random.Generator(np.random.Philox(key=philox_key(seed, *stream)))


def restart(gen: np.random.Generator, seed: int, *stream: str | int) -> None:
    """Move a Philox ``gen`` to the start of the named stream, in place, so
    that it draws what ``rng_for(seed, *stream)`` draws."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": philox_key(seed, *stream)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,  # empty: the next draw starts a fresh block
        "has_uint32": 0,
        "uinteger": 0,
    }
