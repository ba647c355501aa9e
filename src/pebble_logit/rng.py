"""Deterministic, splittable random streams.

Every random quantity in the package is drawn from a :class:`RandomStream`,
a thin wrapper over numpy's counter-based Philox generator. A stream is
identified by a master seed in [0, 2^64) plus a hierarchical path of
``(label, index)`` pairs; the Philox key is the SHA-256 hash of that
identity, so

* identical ``(seed, path)`` always replays the identical sequence,
* sibling substreams are keyed by cryptographically separated values and
  never overlap,
* deriving a child is independent of how many values the parent has
  already produced.

Streams are single-owner: never hand the same generator to two consumers.
Threads share a run's replicates by reading disjoint blocks of one
substream at known offsets, each through its own :class:`ScratchStream`.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import UsageError


def _child_key(parent_key: bytes, label: str, index: int) -> bytes:
    h = hashlib.sha256()
    h.update(parent_key)
    h.update(label.encode("utf-8"))
    h.update(struct.pack("<q", index))
    return h.digest()


class RandomStream:
    """A keyed Philox stream at one node of the derivation tree."""

    __slots__ = ("seed", "path", "_key", "_generator")

    def __init__(self, seed: int, _path: tuple = (), _key: bytes | None = None):
        self.seed = int(seed)
        self.path = _path
        if _key is None:
            if not 0 <= self.seed < 2**64:
                raise UsageError(f"seed must lie in [0, 2^64), got {self.seed}")
            _key = hashlib.sha256(struct.pack("<Q", self.seed)).digest()
        self._key = _key
        self._generator = None

    def derive(self, label: str, index: int = 0) -> "RandomStream":
        """Child stream keyed by (this stream's key, label, index)."""
        return RandomStream(
            self.seed,
            _path=self.path + ((label, int(index)),),
            _key=_child_key(self._key, label, int(index)),
        )

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            key = int.from_bytes(self._key[:16], "little")
            self._generator = np.random.Generator(np.random.Philox(key=key))
        return self._generator

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, path={self.path!r})"


class ScratchStream:
    """One reusable Philox generator, re-keyed per derived substream.

    ``rekey(parent, label, index)`` puts the generator into exactly the
    state of ``parent.derive(label, index).generator`` while reusing the
    same bit-generator object, which skips the construction cost of a
    fresh generator. ``run_pebble`` re-keys once per chunk of replicates to
    ``("boot", 0)`` and then advances the generator to the chunk's first
    block. Single-owner, like any stream.
    """

    def __init__(self):
        self._bitgen = np.random.Philox(key=0)
        self.generator = np.random.Generator(self._bitgen)

    def rekey(self, parent: RandomStream, label: str, index: int) -> np.random.Generator:
        key = _child_key(parent._key, label, int(index))
        state = self._bitgen.state
        state["state"]["counter"][:] = 0
        state["state"]["key"][:] = np.frombuffer(key[:16], dtype=np.uint64)
        state["buffer_pos"] = 4  # discard any buffered output
        state["has_uint32"] = 0
        self._bitgen.state = state
        return self.generator
