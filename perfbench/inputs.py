"""Benchmark inputs: the replayed trace and its oracle report set.

Both are a pure function of ``(dataset, scale, seed)`` and the source
tree, so they are computed once, in a child process, and cached under
``.perfbench/cache`` in the checkout.  The child keeps trace generation
and the exact oracle (about 1.5 s at 1.6M items) out of every timing
and out of the benchmark process's peak memory, whether or not the
cache was warm.

Run as a script, this module builds one cache file::

    python3 perfbench/inputs.py --dataset internet --scale 1600000 \
        --seed 0 --out .perfbench/cache/x.npz
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".perfbench" / "cache"


@dataclass
class Inputs:
    keys: np.ndarray
    values: np.ndarray
    truth: set


def source_digest() -> str:
    """Hash of every Python file under ``src/``: a stale cache never hits."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def load_inputs(dataset: str, scale: int, seed: int) -> Inputs:
    """The cached trace and oracle, building the cache entry if missing."""
    path = CACHE_DIR / f"{dataset}-{scale}-{seed}-{source_digest()}.npz"
    if not path.exists():
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--dataset", dataset, "--scale", str(scale),
                "--seed", str(seed), "--out", str(path),
            ],
            check=True,
            timeout=600,
            cwd=ROOT,
        )
    with np.load(path) as data:
        return Inputs(
            keys=data["keys"],
            values=data["values"],
            truth=set(data["truth"].tolist()),
        )


def _build(dataset: str, scale: int, seed: int, out: Path) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.detection.ground_truth import compute_ground_truth
    from repro.experiments.config import build_trace, default_criteria_for

    trace = build_trace(dataset, scale, seed)
    truth = compute_ground_truth(
        zip(trace.keys.tolist(), trace.values.tolist()),
        default_criteria_for(dataset),
    )
    tmp = out.with_name(out.name + f".{os.getpid()}.tmp.npz")
    np.savez(
        tmp,
        keys=np.asarray(trace.keys, dtype=np.int64),
        values=np.asarray(trace.values, dtype=np.float64),
        truth=np.asarray(sorted(truth), dtype=np.int64),
    )
    os.replace(tmp, out)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    _build(args.dataset, args.scale, args.seed, args.out)
