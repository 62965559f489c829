"""Build, cache and load the compiled exact tier (``_kernel.c``).

:mod:`repro.core.vectorized` calls :func:`load` once, at import.  The
C source has no ``Python.h`` dependency: it is compiled with the system
compiler into a shared library and called through :mod:`ctypes`, which
releases the GIL for the length of every call.  The library updates
the batch engine's numpy planes in place.

Builds are cached under ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``, or the temp directory when that is not writable),
keyed on the source hash, the compiler, the flags and
``platform.machine()``.  Each build writes a private temp file and
renames it into place, so concurrent processes may build at once.

When no compiler works, :func:`load` warns once and returns ``None``;
the engine then runs its Python reference loop.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")

#: ``-ffp-contract=off`` keeps ``a + b * c`` as two roundings, as in
#: the Python reference; a fused multiply-add would change the planes.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Codes of the strategies in ``_kernel.c``'s ``should_replace``.
STRATEGY_CODES = {"comparative": 0, "probabilistic": 1, "forceful": 2}

_p = ctypes.c_void_p
_i64 = ctypes.c_int64
_f64 = ctypes.c_double


def cache_dir() -> Path:
    """Directory holding built libraries (created on demand).

    The temp-directory fallback is shared between users, so it must be
    owned by this user and closed to others: a library planted there
    would run in this process.
    """
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = Path(root) / "repro"
    try:
        path.mkdir(parents=True, exist_ok=True)
        if os.access(path, os.W_OK):
            return path
    except OSError:
        pass
    uid = getattr(os, "getuid", lambda: None)()
    if uid is None:
        raise OSError(f"{path} is not writable")
    path = Path(tempfile.gettempdir()) / f"repro-kernel-{uid}"
    path.mkdir(mode=0o700, exist_ok=True)
    info = path.lstat()
    if info.st_uid != uid or info.st_mode & 0o077 or path.is_symlink():
        raise OSError(f"{path} is not private to this user")
    return path


def build() -> Path:
    """Path of the built library, compiling it first if not cached.

    Compiles with ``$CC`` (default ``cc``).  Raises :class:`OSError`
    or :class:`subprocess.CalledProcessError` when no cache directory
    is usable or the compiler is missing or fails.
    """
    source = SOURCE.read_bytes()
    cc = os.environ.get("CC") or "cc"
    key = hashlib.sha256(
        b"\0".join([source, cc.encode(), " ".join(FLAGS).encode(),
                    platform.machine().encode()])
    ).hexdigest()[:16]
    target = cache_dir() / f"qf_kernel-{key}.so"
    if target.exists():
        return target
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run(
            [cc, *FLAGS, "-o", tmp, str(SOURCE)],
            check=True, capture_output=True,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def load() -> Optional["Kernel"]:
    """The loaded kernel, or ``None`` (with one warning) on failure."""
    try:
        return Kernel(ctypes.CDLL(str(build())))
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None)
        detail = detail.decode(errors="replace").strip() if detail else exc
        warnings.warn(
            "repro: could not build the C exact tier "
            f"({detail!s}); BatchQuantileFilter runs its Python loop "
            "(about 10x slower in the saturated regime)",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


def _check_plane(name: str, plane, dtype, shape) -> None:
    if not (
        isinstance(plane, np.ndarray) and plane.dtype == dtype
        and plane.shape == shape and plane.flags.c_contiguous
    ):
        raise TypeError(
            f"{name} must be a C-contiguous {np.dtype(dtype).name} array "
            f"of shape {shape}; mutate it in place instead of rebinding it"
        )


def _check_range(name: str, index: np.ndarray, size: int) -> None:
    if index.size and (index.min() < 0 or index.max() >= size):
        raise IndexError(f"{name} out of range [0, {size})")


class Kernel:
    """ctypes bindings of ``_kernel.c`` over a batch filter's planes."""

    def __init__(self, lib: ctypes.CDLL):
        self._scalar = lib.qf_scalar_pass
        self._scalar.argtypes = [
            _p, _p, _p, _p, _i64,  # fps, buckets, weights, idx, m
            _p, _p, _i64,  # cand_fps, cand_qws, bucket_size
            _p, _i64, _i64,  # rows, depth, width
            _p, _p,  # col_seeds, sign_seeds
            _f64, ctypes.c_int32, _p,  # threshold, strategy, mt
            _p, _p,  # reported, tallies
        ]
        self._scalar.restype = _i64
        self._replay = lib.qf_replay_slots
        self._replay.argtypes = [_p, _p, _i64, _p, _f64, _p]
        self._replay.restype = _i64

    @staticmethod
    def check_planes(filt) -> None:
        """Raise unless the three planes are what the C code indexes."""
        slots = (filt.num_buckets, filt.bucket_size)
        _check_plane("_cand_fps", filt._cand_fps, np.uint64, slots)
        _check_plane("_cand_qws", filt._cand_qws, np.float64, slots)
        _check_plane("_rows", filt._rows, np.float64, (filt.depth, filt.width))

    def scalar_pass(self, filt, fps, buckets, weights, idx, threshold):
        """Run ``qf_scalar_pass`` over ``idx``; returns (positions, tallies).

        ``positions`` index ``idx``; ``tallies`` holds candidate hits,
        vague inserts, swaps, candidate reports and vague reports.
        """
        self.check_planes(filt)
        fps = np.ascontiguousarray(fps, dtype=np.uint64)
        buckets = np.ascontiguousarray(buckets, dtype=np.int64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        idx = np.ascontiguousarray(idx, dtype=np.int64)
        m = int(idx.shape[0])
        n = fps.shape[0]
        _check_range("idx", idx, n)
        _check_range("buckets", buckets, filt.num_buckets)
        if buckets.shape[0] != n or weights.shape[0] != n:
            raise ValueError("fps, buckets and weights differ in length")
        reported = np.empty(m, dtype=np.int64)
        tallies = np.zeros(5, dtype=np.int64)
        strategy = filt.strategy
        rng = getattr(strategy, "_rng", None)
        mt = None
        if rng is not None:
            version, words, gauss = rng.getstate()
            mt = np.array(words, dtype=np.uint32)
        n = self._scalar(
            fps.ctypes.data, buckets.ctypes.data, weights.ctypes.data,
            idx.ctypes.data, m,
            filt._cand_fps.ctypes.data, filt._cand_qws.ctypes.data,
            filt.bucket_size,
            filt._rows.ctypes.data, filt.depth, filt.width,
            filt._hashes._seeds_np.ctypes.data,
            filt._signs._seeds_np.ctypes.data,
            threshold, STRATEGY_CODES[strategy.name],
            None if mt is None else mt.ctypes.data,
            reported.ctypes.data, tallies.ctypes.data,
        )
        if mt is not None:
            rng.setstate((version, tuple(mt.tolist()), gauss))
        return reported[:n], tallies.tolist()

    def replay_slots(self, filt, slots, weights, threshold):
        """Run ``qf_replay_slots``; returns the reported positions."""
        self.check_planes(filt)
        slots = np.ascontiguousarray(slots, dtype=np.int64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        m = int(slots.shape[0])
        _check_range("slots", slots, filt._cand_qws.size)
        if weights.shape[0] != m:
            raise ValueError("slots and weights differ in length")
        reported = np.empty(m, dtype=np.int64)
        n = self._replay(
            slots.ctypes.data, weights.ctypes.data, m,
            filt._cand_qws.ctypes.data, threshold, reported.ctypes.data,
        )
        return reported[:n]
