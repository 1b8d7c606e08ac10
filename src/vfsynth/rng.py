"""Counter-based splittable random streams.

Every source of randomness in this package is an :class:`RngStream` (a
forest's per-node feature draws hash keys drawn from one). A stream
is identified by a 64-bit base seed plus a label path; the path is hashed into
the key of a counter-based Philox generator, so

* the same (seed, path) always yields the same draw sequence,
* distinct paths yield independent sequences, and
* drawing from one stream never affects any other stream.

The last property is what lets parties and shadow-model jobs run in any
order (or in parallel) without changing a single reported number.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngStream", "check_seed"]


def _encode_label(label) -> bytes:
    # unambiguous tagged encoding so that e.g. 1 and "1" hash differently
    if isinstance(label, (bool, np.bool_)):
        raise TypeError("bool labels are ambiguous; use int or str")
    if isinstance(label, (int, np.integer)):
        return b"i" + int(label).to_bytes(8, "little", signed=True)
    if isinstance(label, str):
        raw = label.encode("utf-8")
        return b"s" + len(raw).to_bytes(4, "little") + raw
    raise TypeError(f"stream labels must be int or str, got {type(label).__name__}")


def _stream_id(path) -> int:
    h = hashlib.blake2b(digest_size=8)
    for label in path:
        h.update(_encode_label(label))
    return int.from_bytes(h.digest(), "little")


def check_seed(seed, name: str = "seed") -> int:
    """``seed`` if an int in [0, 2**64); a bool, float or str is refused, not coerced."""
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {seed!r}")
    return seed


class RngStream:
    """One independent random stream, plus deterministic derivation of children."""

    __slots__ = ("seed", "path", "stream_id", "_gen")

    def __init__(self, seed: int, *path):
        self.seed = check_seed(seed)
        self.path = tuple(path)
        self.stream_id = _stream_id(self.path)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def child(self, *labels) -> "RngStream":
        """Derive an independent stream; same labels always give the same stream."""
        return RngStream(self.seed, *self.path, *labels)

    # -- draws ------------------------------------------------------------

    def normal(self, *shape) -> np.ndarray:
        return self._gen.standard_normal(size=shape or None, dtype=np.float64)

    def uniform(self, *shape) -> np.ndarray:
        return self._gen.random(size=shape or None, dtype=np.float64)

    def integers(self, low: int, high: int | None = None, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size, dtype=np.int64)

    def subsample(self, n: int, k: int) -> np.ndarray:
        """k distinct indices out of range(n), uniform over subsets, sorted."""
        if k > n:
            raise ValueError(f"cannot subsample {k} out of {n}")
        picked = self._gen.choice(n, size=k, replace=False)
        return np.sort(picked.astype(np.int64))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n).astype(np.int64)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path!r})"
