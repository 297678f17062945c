"""One routine that runs a call's rows as contiguous slices on a per-call thread pool.

Batched queries, indicator assignment and encoder forward passes spend
their time in numpy and BLAS calls that release the GIL, and each output
row depends only on its own input row.  So each caller decides, from its
own gate, how many slices a call gets; `_row_slices` runs them and returns
their parts in row order.  Worker threads run only the callers' private
routines, never a public name, so an outside wrapper around a public
function sees one call per public call.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

# assign_indicators and encoder_forward split a call only when every slice
# keeps at least this many multiply-adds.  On 2 cores with one BLAS thread,
# pooled perfbench serve_d512 indexing (537M per assignment slice) took 0.62x
# the serial time and serve_d64's (65.5M) 0.80x, but pooling train_c09's warm
# train calls (82M) made its training 3% slower.  No gate admits the second
# and keeps out the third, so this one keeps both serial (README § Concurrency).
MIN_SLICE_MACS = 1 << 27


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mac_workers(count: int, row_macs: int, min_rows: int = 1) -> int:
    """Slices for `count` rows of `row_macs` multiply-adds each.

    As many as the usable CPUs, but no more than keep every slice at
    MIN_SLICE_MACS multiply-adds and at `min_rows` rows or more.
    """
    most = count // max(min_rows, -(-MIN_SLICE_MACS // max(1, row_macs)))
    return min(_usable_cpus(), most) if most > 1 else 1


def _row_slices(fn, count: int, workers: int) -> list:
    """[fn(lo, hi) for each of `workers` contiguous ranges covering range(count)], in range order.

    The ranges are those of np.array_split.  With two or more workers each
    range runs on a thread of a pool that the call opens and closes; with
    fewer, fn(0, count) runs on the calling thread.  Parts are read in range
    order, so the first failing range raises, as the first failing row does
    in one loop.
    """
    if workers < 2:
        return [fn(0, count)]
    each, extra = divmod(count, workers)
    edges = [part * each + min(part, extra) for part in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = [pool.submit(fn, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        return [part.result() for part in parts]
