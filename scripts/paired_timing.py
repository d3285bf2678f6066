#!/usr/bin/env python3
"""Time two versions of the package in one process, pass against pass.

    python3 scripts/paired_timing.py OLD_SRC NEW_SRC --workload NAME --passes N [--trials T] [--seed S]

OLD_SRC and NEW_SRC are source directories that each hold a `uavtrack`
package, such as a checkout's `src`. Both trees are copied into a temporary
directory as `uavtrack_old` and `uavtrack_new` and imported side by side.
Each pass runs one campaign of a benchmark workload (bench/workloads.py)
through run_campaign, summary_rows, write_trace_csv and write_summary_csv;
pass i of both versions uses the same campaign seed. The versions alternate,
and the one that goes first alternates from pair to pair, so that drift of
the machine falls on both.

All passes run inside one_blas_thread(), so no pass is followed by the
restore of OpenBLAS's thread counts, whose restarted pools spin after a
forked pass and slow what the process runs next (the benchmark's speed
probe among it). The timings therefore show changes on the worker side
apart from that post-pass effect.

Printed: the first quartile, median and third quartile of the CPU time
per pass of each version (this process and its joined workers; run under
`taskset -c 0` for a serial run) and of its wall time per pass, the
medians of the per-pair ratios new / old of both, the number of pairs the
new version won on CPU time and on wall time, the number of pairs whose
trace.csv bytes were equal, and the number whose trace.csv `iterations`
and `measurements` columns were equal: a change that moves roundoff keeps
the counts but not the bytes. The last line, `gain shown: yes` or `no`,
applies the rule for a speed-up: the new version wins at least nine pairs
in ten on CPU time, and its median CPU time lies below the old median by
more than the old quartiles lie from each other.

Separate runs of the same code on a shared machine can differ by half their
time, which hides a change of a few percent; paired passes in one process
see the same machine state.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import WORKLOADS, campaign_seed, load  # noqa: E402


def _cpu_s() -> float:
    """User and system time of this process and of its joined children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@contextlib.contextmanager
def _as_uavtrack(pkg):
    """Let `import uavtrack.x` find pkg's modules, as workloads.load does."""
    saved = {name: sys.modules.get(name) for name in ("uavtrack", "uavtrack.config")}
    sys.modules["uavtrack"], sys.modules["uavtrack.config"] = pkg, pkg.config
    try:
        yield
    finally:
        for name, module in saved.items():
            if module is None:
                del sys.modules[name]
            else:
                sys.modules[name] = module


class Version:
    """One imported copy of the package and the campaign pass it times."""

    def __init__(self, name: str, tmp: str):
        self.pkg = importlib.import_module(name)
        self.campaign = importlib.import_module(name + ".campaign")
        importlib.import_module(name + ".config")
        self.out = os.path.join(tmp, "out_" + name)
        self.cpu: list[float] = []
        self.wall: list[float] = []

    def run_pass(self, workload: str, seed: int, trials: int) -> bytes:
        """One timed pass; returns the trace.csv bytes."""
        with _as_uavtrack(self.pkg):
            cfg = load(workload, seed, trials)
        trace = os.path.join(self.out, "trace.csv")
        gc.collect()
        t0, w0 = _cpu_s(), time.perf_counter()
        result = self.campaign.run_campaign(cfg)
        summary = result.summary_rows()
        self.campaign.write_trace_csv(trace, result)
        self.campaign.write_summary_csv(os.path.join(self.out, "summary.csv"), summary)
        self.wall.append(time.perf_counter() - w0)
        self.cpu.append(_cpu_s() - t0)
        with open(trace, "rb") as f:
            return f.read()


def _counts(trace: bytes) -> list[tuple[bytes, bytes]]:
    """The (iterations, measurements) cells of every trace.csv row."""
    header, *rows = trace.splitlines()
    cols = header.split(b",")
    i, m = cols.index(b"iterations"), cols.index(b"measurements")
    return [(cells[i], cells[m]) for cells in (row.split(b",") for row in rows)]


def _quartiles(seconds: list[float]) -> list[float]:
    """First quartile, median and third quartile."""
    return statistics.quantiles(seconds, n=4, method="inclusive") if len(seconds) > 1 else seconds * 3


def _quartiles_ms(seconds: list[float]) -> str:
    """First quartile, median and third quartile, in milliseconds."""
    q = _quartiles(seconds)
    return "  ".join(f"{label} {1e3 * v:9.2f}" for label, v in zip(("Q1", "median", "Q3"), q))


def gain_shown(old_cpu: list[float], new_cpu: list[float]) -> bool:
    """The new version wins at least nine pairs in ten, and its median lies
    below the old median by more than the old interquartile range."""
    wins = sum(b < a for a, b in zip(old_cpu, new_cpu))
    q1, median, q3 = _quartiles(old_cpu)
    return 10 * wins >= 9 * len(old_cpu) and median - statistics.median(new_cpu) > q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", help="source directory holding the old uavtrack package")
    parser.add_argument("new_src", help="source directory holding the new uavtrack package")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--passes", type=int, required=True, help="passes of each version")
    parser.add_argument("--trials", type=int, help="trials per campaign (default: the workload's)")
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed of the campaign seeds")
    args = parser.parse_args(argv)
    trials = args.trials if args.trials is not None else WORKLOADS[args.workload].trials
    if args.passes < 1 or trials < 1:
        parser.error("--passes and --trials must be at least 1")
    for src in (args.old_src, args.new_src):
        if not os.path.isfile(os.path.join(src, "uavtrack", "__init__.py")):
            parser.error(f"{src} holds no uavtrack package")

    with tempfile.TemporaryDirectory() as tmp:
        for name, src in (("uavtrack_old", args.old_src), ("uavtrack_new", args.new_src)):
            shutil.copytree(
                os.path.join(src, "uavtrack"), os.path.join(tmp, name),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        sys.path.insert(0, tmp)
        old, new = Version("uavtrack_old", tmp), Version("uavtrack_new", tmp)
        same = same_counts = 0
        with new.pkg.blas.one_blas_thread():
            for i in range(args.passes):
                seed = campaign_seed(args.seed, i)
                pair = (old, new) if i % 2 == 0 else (new, old)
                traces = {v: v.run_pass(args.workload, seed, trials) for v in pair}
                same += traces[old] == traces[new]
                same_counts += _counts(traces[old]) == _counts(traces[new])

    ratios = [b / a for a, b in zip(old.cpu, new.cpu)]
    wall_ratios = [b / a for a, b in zip(old.wall, new.wall)]
    wins = sum(b < a for a, b in zip(old.cpu, new.cpu))
    wall_wins = sum(b < a for a, b in zip(old.wall, new.wall))
    print(f"workload {args.workload}, {trials} trial(s) per pass, {args.passes} passes each")
    for name, v in (("old", old), ("new", new)):
        print(f"  {name}  CPU per pass {_quartiles_ms(v.cpu)} ms, wall {_quartiles_ms(v.wall)} ms")
    print(f"  median per-pass ratio new/old {statistics.median(ratios):.4f}")
    print(f"  median per-pass wall ratio new/old {statistics.median(wall_ratios):.4f}")
    print(
        f"  new faster in {wins}/{args.passes} pairs on CPU, {wall_wins}/{args.passes} on wall;"
        f" trace.csv equal in {same}/{args.passes}"
    )
    print(f"  iterations and measurements equal in {same_counts}/{args.passes}")
    print(f"gain shown: {'yes' if gain_shown(old.cpu, new.cpu) else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
