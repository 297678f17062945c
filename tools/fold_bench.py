"""Fold perfbench results of a parent and a change checkout into one BENCH file.

    python3 tools/fold_bench.py --parent PARENT/perfbench/out --parent-commit SHA \
        --change CHANGE/perfbench/out --change-commit SHA --out BENCH_7.json

Each directory holds the `result-<workload>-<seed>-trace<0|1>.json` files
that `perfbench/run.py` writes.  For every workload and metric the output
gives each side's median, quartiles, min, max and the seeds it came from,
and per workload each side's attempted and failed operation counts.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

RESULT_NAME = re.compile(r"result-(?P<workload>.+)-(?P<seed>\d+)-trace[01]\.json")


def read_results(directory) -> list[tuple[str, int, dict]]:
    """(workload, seed, result) for every result file in `directory`, in name order."""
    found = []
    for path in sorted(Path(directory).glob("result-*.json")):
        match = RESULT_NAME.fullmatch(path.name)
        if match is None:
            raise ValueError(f"{path}: not a perfbench result file name")
        result = json.loads(path.read_text(encoding="utf-8"))
        found.append((match["workload"], int(match["seed"]), result))
    if not found:
        raise ValueError(f"{directory}: no result-*.json files")
    return found


def summarize(samples: list[tuple[int, float]]) -> dict:
    values = sorted(value for _, value in samples)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": values[0],
        "max": values[-1],
        "seeds": sorted(seed for seed, _ in samples),
    }


def fold(parent_dir, change_dir, parent_commit: str, change_commit: str) -> dict:
    workloads: dict = {}
    for side, directory in (("parent", parent_dir), ("change", change_dir)):
        for workload, seed, result in read_results(directory):
            entry = workloads.setdefault(workload, {"operations": {}, "metrics": {}})
            ops = entry["operations"].setdefault(side, {"attempted": 0, "failed": 0})
            ops["attempted"] += result["attempted"]
            ops["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                slot = entry["metrics"].setdefault(name, {"unit": metric["unit"]})
                slot.setdefault(side, []).append((seed, metric["value"]))
    for entry in workloads.values():
        for slot in entry["metrics"].values():
            for side in ("parent", "change"):
                if side in slot:
                    slot[side] = summarize(slot[side])
    return {
        "parent_commit": parent_commit,
        "change_commit": change_commit,
        "workloads": {name: workloads[name] for name in sorted(workloads)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="directory of the parent's result files")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change", required=True, help="directory of the change's result files")
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        folded = fold(args.parent, args.change, args.parent_commit, args.change_commit)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(folded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
