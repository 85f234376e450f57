"""Benchmark for iemf: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload train_continuous --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
BLAS is pinned to one thread and IEMF_THREADS to 1 before numpy is loaded.
With `--trace 0` the result holds the end-to-end metrics; with `--trace 1` it
holds the per-layer metrics of a traced run. The line before the result
records the output digest and the environment stamp. The exit code is 0 when
every check passed, 1 when a check failed or an operation raised, and 2 when
the package cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads() -> None:
    # One caller on a small shared machine: BLAS threads and the landscape
    # pool would only oversubscribe the cores. Must precede the numpy import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["IEMF_THREADS"] = "1"


def import_package() -> bool:
    """Import iemf from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import iemf
    except ImportError as exc:
        print(f"bench: cannot import iemf from {SRC}: {exc}", file=sys.stderr)
        return False
    if not Path(iemf.__file__).resolve().is_relative_to(SRC):
        print(f"bench: iemf was imported from {iemf.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec, argv)
    pin_threads()
    if not import_package():
        return 2
    import workloads

    # Metric name -> unit, in the order BENCHMARK.json lists them.
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    tally = workloads.Tally()
    try:
        out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), tally)
        if out["metrics"].keys() != units.keys():
            raise RuntimeError(f"metrics {sorted(out['metrics'].keys() ^ units.keys())} "
                               "differ from BENCHMARK.json")
    except Exception:  # any raise is a failed operation; report it and the result
        traceback.print_exc()
        tally.attempted += 1
        tally.fail(1, "an operation raised")
        out = {"metrics": {}, "digest": None, "env": None}
    for reason in tally.reasons:
        print(f"bench: check failed: {reason}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "digest": out["digest"],
                      "env": out["env"]}))
    correct = tally.failed == 0
    metrics = {name: {"value": out["metrics"][name], "unit": unit}
               for name, unit in units.items() if name in out["metrics"]}
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
