"""Run-to-run steadiness check for the benchmark.

Runs ``perfbench/run.py`` once per seed for each named workload and
prints, per end-to-end metric, the median over the runs and the
interquartile distance as a share of that median, next to the bound
``BENCHMARK.json`` fixes for the metric::

    python3 perfbench/spread.py --workloads threads --seeds 0 1 2 3 4

A metric is steady when its spread stays under a third of its bound
(``setup_s`` is held only to its median).  Exits 1 when one is not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.measure import quartile_spread  # noqa: E402


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} was not correct:\n{proc.stdout}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    steady = True
    for workload in args.workloads:
        runs = [run(workload, seed, args.seconds) for seed in args.seeds]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            spread = quartile_spread(values)
            ok = name == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            print(
                f"{workload:10s} {name:24s} median {statistics.median(values):<12.6g}"
                f" spread {spread:7.4f} bound {metric['bound']:.3f}"
                f" {'ok' if ok else 'UNSTEADY'}  {[round(v, 4) for v in values]}",
                flush=True,
            )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
