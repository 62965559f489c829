"""Seeded hash families used by every sketch in this package.

The paper's structures need three kinds of hashing:

* **column hashes** ``h_i(x)`` mapping a key to one column per sketch row
  (:class:`HashFamily`),
* **sign hashes** ``S_i(x)`` returning +1/-1 with equal probability
  (:class:`SignHashFamily`),
* **fingerprints** ``h_fp(x)`` — short (default 16-bit) key digests stored
  in the candidate part (:class:`FingerprintHasher`).

All of them are built on one primitive, :func:`mix64` (the splitmix64
finalizer), applied to a canonical 64-bit representation of the key
produced by :func:`canonical_key`.  Python's built-in ``hash`` is avoided
because it is salted per process for strings, which would make experiment
runs irreproducible.

Every family accepts a ``seed`` so independent sketch instances do not
share collision patterns, and every scalar operation has a vectorised
twin operating on ``numpy`` ``uint64`` arrays for the batch engines.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from repro.common.errors import ParameterError

_MASK64 = (1 << 64) - 1

#: Shared numpy scalar constants — pre-cast once at import so the batch
#: hot paths never re-box Python ints into ``np.uint64`` per call.
_ONE_U64 = np.uint64(1)
_ZERO_U64 = np.uint64(0)

# splitmix64 constants (Steele, Lea & Flood, "Fast splittable PRNGs")
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_M1 = 0xBF58476D1CE4E5B9
_SPLITMIX_M2 = 0x94D049BB133111EB

# FNV-1a 64-bit constants for byte-string canonicalisation
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

KeyLike = Union[int, str, bytes, tuple]


def mix64(x: int) -> int:
    """Finalize a 64-bit integer with the splitmix64 mixing function.

    This is a bijective avalanche mixer: flipping any input bit flips
    each output bit with probability ~1/2, which is what makes one
    integer key usable with many derived hash functions.
    """
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _SPLITMIX_M1) & _MASK64
    x = ((x ^ (x >> 27)) * _SPLITMIX_M2) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _fnv1a(data: bytes) -> int:
    acc = _FNV_OFFSET
    for byte in data:
        acc ^= byte
        acc = (acc * _FNV_PRIME) & _MASK64
    return acc


def canonical_key(key: KeyLike) -> int:
    """Map an arbitrary key to a stable unsigned 64-bit integer.

    Supported key types mirror what the paper's workloads use: integers
    (already-packed flow ids), strings/bytes (names), and tuples (the
    CAIDA five-tuple).  The mapping is deterministic across processes —
    unlike built-in ``hash`` — so stored traces replay identically.
    """
    if isinstance(key, (int, np.integer)):
        return mix64(int(key) & _MASK64)
    if isinstance(key, bytes):
        return _fnv1a(key)
    if isinstance(key, str):
        return _fnv1a(key.encode("utf-8"))
    if isinstance(key, tuple):
        acc = _FNV_OFFSET
        for part in key:
            acc = (acc ^ canonical_key(part)) * _FNV_PRIME & _MASK64
            acc = mix64(acc)
        return acc
    raise _unsupported_key(type(key).__name__)


def _unsupported_key(type_name: str) -> ParameterError:
    return ParameterError(
        f"unsupported key type {type_name}; "
        "use int, str, bytes or a tuple of those"
    )


def int_key_array(keys) -> np.ndarray:
    """``keys`` as an ``int64`` array for the integer-keyed engines.

    Float keys raise the same :class:`ParameterError` the hashing of a
    float key raises in the scalar and batch engines, instead of being
    truncated by the cast.  The check reads only the dtype, so it is
    O(1) on arrays.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind == "f" and keys.size:
        raise _unsupported_key(keys.dtype.name)
    return keys.astype(np.int64, copy=False)


def validate_chunk(keys, values):
    """Check one bulk chunk against the engines' shared input contract.

    Every bulk entry point (batch ``process``, the threads engine, its
    ingest buffers, pipeline ``feed``, scalar and windowed
    ``insert_many``) calls this first, so they reject the same inputs
    with the same :class:`ParameterError`:

    * float key arrays (the error hashing a float key raises);
    * keys and values of different lengths;
    * NaN values, whose Qweight is undefined.

    Returns ``(keys, values)`` with ``values`` as a ``float64`` array;
    ``keys`` are returned as given.
    """
    values = np.asarray(values, dtype=np.float64)
    if isinstance(keys, np.ndarray) and keys.dtype.kind == "f" and keys.size:
        raise _unsupported_key(keys.dtype.name)
    if len(keys) != values.shape[0]:
        raise ParameterError(
            f"keys and values length mismatch: {len(keys)} vs "
            f"{values.shape[0]}"
        )
    if np.isnan(values).any():
        raise ParameterError("values contain NaN")
    return keys, values


def canonical_keys(keys: Iterable[KeyLike]) -> np.ndarray:
    """Vector form of :func:`canonical_key`: returns a ``uint64`` array.

    Integer arrays take a fast fully-vectorised path; anything else falls
    back to the scalar routine per element.
    """
    if isinstance(keys, np.ndarray) and np.issubdtype(keys.dtype, np.integer):
        return _mix64_array(keys.astype(np.uint64, copy=False))
    return np.fromiter(
        (canonical_key(k) for k in keys), dtype=np.uint64
    )


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finalizer over a ``uint64`` array."""
    with np.errstate(over="ignore"):
        x = x + np.uint64(_SPLITMIX_GAMMA)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_SPLITMIX_M1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_SPLITMIX_M2)
        return x ^ (x >> np.uint64(31))


class HashFamily:
    """``depth`` pairwise-independent column hashes onto ``[0, width)``.

    Row ``i``'s hash of key ``x`` is ``mix64(x ^ seed_i) % width`` where
    the per-row seeds are derived from the family seed by repeated
    splitmix64 steps.  Keys must already be canonical 64-bit integers
    (see :func:`canonical_key`); sketches canonicalise once per item and
    reuse the integer for all rows.
    """

    __slots__ = ("depth", "width", "_seeds", "_seeds_np", "_width_u64")

    def __init__(self, depth: int, width: int, seed: int = 0):
        if depth < 1:
            raise ParameterError(f"depth must be >= 1, got {depth}")
        if width < 1:
            raise ParameterError(f"width must be >= 1, got {width}")
        self.depth = depth
        self.width = width
        state = mix64(seed ^ 0xA5A5A5A5A5A5A5A5)
        seeds = []
        for _ in range(depth):
            state = mix64(state)
            seeds.append(state)
        self._seeds = seeds
        self._seeds_np = np.asarray(seeds, dtype=np.uint64)
        self._width_u64 = np.uint64(width)

    def index(self, row: int, key_int: int) -> int:
        """Column index of ``key_int`` in ``row``."""
        return mix64(key_int ^ self._seeds[row]) % self.width

    def indices(self, key_int: int) -> list:
        """Column index of ``key_int`` in every row (length ``depth``)."""
        return [mix64(key_int ^ s) % self.width for s in self._seeds]

    def indices_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`indices`: ``(depth, n)`` array of columns."""
        keys = keys.astype(np.uint64, copy=False)
        mixed = _mix64_array(keys[None, :] ^ self._seeds_np[:, None])
        return (mixed % self._width_u64).astype(np.int64)


class SignHashFamily:
    """``depth`` sign hashes ``S_i(x)`` returning +1 or -1.

    The sign is the low bit of a mix independent from the column hash
    (different seed stream), as Count Sketch requires the pair
    ``(h_i, S_i)`` to behave independently.
    """

    __slots__ = ("depth", "_seeds", "_seeds_np")

    def __init__(self, depth: int, seed: int = 0):
        if depth < 1:
            raise ParameterError(f"depth must be >= 1, got {depth}")
        self.depth = depth
        state = mix64(seed ^ 0x5C5C5C5C5C5C5C5C)
        seeds = []
        for _ in range(depth):
            state = mix64(state)
            seeds.append(state)
        self._seeds = seeds
        self._seeds_np = np.asarray(seeds, dtype=np.uint64)

    def sign(self, row: int, key_int: int) -> int:
        """Sign (+1 or -1) of ``key_int`` in ``row``."""
        return 1 if mix64(key_int ^ self._seeds[row]) & 1 else -1

    def signs(self, key_int: int) -> list:
        """Signs of ``key_int`` in every row (length ``depth``)."""
        return [
            1 if mix64(key_int ^ s) & 1 else -1 for s in self._seeds
        ]

    def signs_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`signs`: ``(depth, n)`` array of +1/-1."""
        keys = keys.astype(np.uint64, copy=False)
        bits = _mix64_array(keys[None, :] ^ self._seeds_np[:, None])
        return np.where(bits & _ONE_U64, 1, -1).astype(np.int64)


class FingerprintHasher:
    """Short key digests for the candidate part.

    Fingerprints are ``bits`` wide (default 16, as in the paper) and
    never zero — zero is reserved as the "empty slot" marker in bucket
    storage, so the hasher maps the all-zero digest to 1.  The collision
    probability between two distinct keys is ``~2^-bits`` (the paper
    quotes <0.01 % for 16 bits).
    """

    __slots__ = ("bits", "_seed", "_mask", "_seed_u64", "_mask_u64")

    def __init__(self, bits: int = 16, seed: int = 0):
        if not 1 <= bits <= 64:
            raise ParameterError(f"fingerprint bits must be in [1, 64], got {bits}")
        self.bits = bits
        self._seed = mix64(seed ^ 0x3C3C3C3C3C3C3C3C)
        self._mask = (1 << bits) - 1
        self._seed_u64 = np.uint64(self._seed)
        self._mask_u64 = np.uint64(self._mask)

    def fingerprint(self, key_int: int) -> int:
        """Non-zero ``bits``-wide fingerprint of ``key_int``."""
        fp = mix64(key_int ^ self._seed) & self._mask
        return fp if fp else 1

    def fingerprints_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`fingerprint` over a ``uint64`` key array."""
        keys = keys.astype(np.uint64, copy=False)
        fps = _mix64_array(keys ^ self._seed_u64) & self._mask_u64
        return np.where(fps == 0, _ONE_U64, fps)
