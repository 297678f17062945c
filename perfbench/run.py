"""Benchmark of hashquant's serve path and trainer, one workload per run.

    python3 perfbench/run.py --workload serve_d512 --seed 1 --seconds 10 --trace 0

Run from anywhere inside a source checkout: the library is imported from
the checkout's `src/`.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.
Results, the index file and the trace go to `perfbench/out/`.
"""

import os

# One process, one thread: BLAS is pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hashquant" / "__init__.py").is_file():
        print(f"error: no hashquant sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pipeline

    if args.workload not in pipeline.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(pipeline.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    result = pipeline.run(
        pipeline.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), HERE / "out", tag
    )
    line = json.dumps(result)
    (HERE / "out" / f"result-{tag}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
