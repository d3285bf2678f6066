#!/usr/bin/env python3
"""Campaign benchmark for uavtrack.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload is a closed loop with one client: one campaign at a time in
this process, through the in-process simulate path (run_campaign, then
CampaignResult.summary_rows, then write_trace_csv and write_summary_csv).

A run
  1. times set-up: fresh interpreters that import the package and load the
     workload's config (median of SETUP_REPEATS);
  2. runs the accuracy panel: one campaign at the fixed PANEL_SEED, which
     also warms caches. angle_mse, se_bits and beams_per_block come from
     it, so they change only when the code does (see bench/README.md);
  3. runs one new campaign after another, at run.seeds derived from
     --seed, for --seconds (at least MIN_PASSES), timing each pass and a
     fixed pure-Python probe after it; throughput and CPU per row are
     totals over all passes, scaled to the speed at which the machine runs
     the probe in PROBE_REF_S. The first campaign is then run once more,
     untimed, to check that it repeats.
With --trace 1 the loop is split: half untraced, then the same campaigns
with every layer wrapped (layers.py), and the per-layer metrics are
printed instead.

Every pass is checked (row count, finite values, unit disk, iteration cap,
measurement accounting, identical trace.csv sha256 per campaign seed); a
pass that raises fails all of its rows. Results and spans go to
.bench_out/. The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

from workloads import ROOT, SRC, WORKLOADS, campaign_seed, load

SETUP_REPEATS = 7
PANEL_SEED = 0
MIN_PASSES = 3
PROBE_LOOPS = 60_000
PROBE_REF_S = 0.006  # the probe's typical time on the VM of bench/README.md
OUT_DIR = os.path.join(ROOT, ".bench_out")
BENCH = os.path.dirname(os.path.abspath(__file__))


def _import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "uavtrack", "__init__.py")):
        sys.exit(f"error: no uavtrack package under {SRC}")
    sys.path.insert(0, SRC)
    import uavtrack

    if os.path.dirname(os.path.dirname(os.path.abspath(uavtrack.__file__))) != SRC:
        sys.exit(f"error: uavtrack imported from {uavtrack.__file__}, not {SRC}")


# environment ------------------------------------------------------------------


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    out = {}
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                out[os.path.basename(path)] = int(fn())
                break
    return out


def machine_metadata() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_effective": _blas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "platform": platform.platform(),
    }


# output checks ------------------------------------------------------------------


def _grid_size(nx: int, phase_bits: int) -> int:
    """Candidate beams per sweep: (floor(2 B / delta) + 1)^2, B = 2/nx."""
    g_axis = int(math.floor(2.0 * (2.0 / nx) / (2.0 * math.pi / 2.0**phase_bits))) + 1
    return g_axis * g_axis


def expected_rows(cfg) -> int:
    return (
        cfg.run_trials
        * cfg.run_blocks
        * len(cfg.link_snr_db)
        * len(cfg.estimator_phase_bits)
        * len(cfg.run_schemes)
    )


_FLOATS = (
    "snr_db", "true_x", "true_y", "true_u", "true_v", "true_ua",
    "est_u", "est_v", "est_x", "est_y", "gain", "norm_gain", "se_bits",
)


def row_ok(r, cfg) -> bool:
    if not all(math.isfinite(getattr(r, f)) for f in _FLOATS):
        return False
    if not r.est_u**2 + r.est_v**2 < 1.0:
        return False
    if not 0 <= r.iterations <= cfg.estimator_max_iterations:
        return False
    if r.measurements == 0 and r.iterations == 0:
        return True  # gps_only, or a seed fallback
    grid = _grid_size(cfg.array_nx, r.phase_bits)
    want = {
        "hybrid_gpr": grid + r.iterations,
        "perturbation": 3 * r.iterations,
        "analog_gpr": grid,
        "codebook_max": grid,
    }.get(r.scheme)
    return r.measurements == want


def failed_rows(rows, cfg) -> int:
    """Rows that fail a check, plus rows missing from the expected count."""
    bad = sum(not row_ok(r, cfg) for r in rows)
    return bad + max(0, expected_rows(cfg) - len(rows))


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# measurement ------------------------------------------------------------------


def _cpu_s() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def probe() -> float:
    """Wall time of a fixed pure-Python loop. It shares no code with the
    program, so it gauges only the machine's speed at the moment."""
    t0 = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return perf_counter() - t0


def measure_setup(name: str) -> list[float]:
    """Wall time of fresh interpreters importing the package and loading the
    workload's config, under the user's own environment."""
    times = []
    script = os.path.join(BENCH, "workloads.py")
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, script, name], check=True)
        times.append(perf_counter() - t0)
    return times


class Runner:
    """Runs and checks campaign passes; tallies attempted and failed rows."""

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.sha: dict[tuple[int, int], str] = {}

    def one_pass(self, cfg):
        """One campaign through the simulate path. Returns (wall s, cpu s,
        rows) or None when the pass failed."""
        from uavtrack import campaign

        n = expected_rows(cfg)
        self.attempted += n
        trace_path = os.path.join(self.work_dir, "trace.csv")
        summary_path = os.path.join(self.work_dir, "summary.csv")
        gc.collect()
        try:
            c0, t0 = _cpu_s(), perf_counter()
            result = campaign.run_campaign(cfg)
            summary = result.summary_rows()
            campaign.write_trace_csv(trace_path, result)
            campaign.write_summary_csv(summary_path, summary)
            t1, c1 = perf_counter(), _cpu_s()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += n
            return None
        sha = _sha256(trace_path)
        if self.sha.setdefault((cfg.run_seed, cfg.run_trials), sha) != sha:
            print(f"error: trace.csv sha256 changed for seed {cfg.run_seed}", file=sys.stderr)
            self.failed += n
            return None
        bad = failed_rows(result.rows, cfg)
        self.failed += bad
        if bad:
            print(f"error: {bad} of {n} rows failed the output checks", file=sys.stderr)
        return t1 - t0, c1 - c0, result.rows

    def loop(self, cfg_at, seconds: float, passes: int | None = None):
        """Passes over the campaigns cfg_at(0), cfg_at(1), ...: `passes` of
        them, or else as many as fit in about `seconds` (at least
        MIN_PASSES). Each campaign is new, so a run averages the work over
        as many trajectories as its time allows. Returns the passes run and
        (campaign index, wall s, cpu s, rows, probe s) per successful pass."""
        samples = []
        start = perf_counter()
        for i in itertools.count():
            out = self.one_pass(cfg_at(i))
            if out is not None:
                samples.append((i, out[0], out[1], len(out[2]), probe()))
            done = i + 1
            if passes is None:
                elapsed = perf_counter() - start
                if done >= MIN_PASSES and elapsed * (done + 1) / done > seconds:
                    return done, samples
            elif done >= passes:
                return done, samples


def scored_rows(rows):
    """Rows of the schemes under test. gps_only is the sensor-only reference:
    no estimator computes it, so it enters only where it runs alone."""
    under_test = [r for r in rows if r.scheme != "gps_only"]
    return under_test or list(rows)


def accuracy(rows) -> dict[str, float]:
    rows = scored_rows(rows)
    return {
        "angle_mse": statistics.fmean(
            0.5 * ((r.est_u - r.true_u) ** 2 + (r.est_v - r.true_v) ** 2) for r in rows
        ),
        "se_bits": statistics.fmean(r.se_bits for r in rows),
        "beams_per_block": statistics.fmean(r.measurements + 1 for r in rows),
    }


def throughput(samples) -> tuple[float, float]:
    """(rows per s, CPU ms per row) over all passes."""
    rows = sum(s[3] for s in samples)
    return rows / sum(s[1] for s in samples), 1e3 * sum(s[2] for s in samples) / rows


def slowness(samples) -> float:
    """Mean probe time over PROBE_REF_S: how much slower than the reference
    the machine ran during the passes. Its speed drifts by up to 40 % over
    minutes (bench/README.md, "Noise"), and the probe's drifts with it."""
    return statistics.fmean(s[4] for s in samples) / PROBE_REF_S


# run ------------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    from layers import Tracer

    out_dir = os.path.join(OUT_DIR, name, f"seed{seed}-trace{int(trace)}")
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    runner = Runner(work_dir)
    metrics: dict[str, float] = {}
    report: dict = {
        "workload": name,
        "why": w.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "panel_seed": PANEL_SEED,
        "machine": machine_metadata(),
    }
    notes: dict[str, str] = {}
    try:
        if not trace:
            setup = measure_setup(name)
            metrics["setup_s"] = statistics.median(setup)
            notes["setup_s"] = f"median of {len(setup)} interpreters"
            report["setup_samples_s"] = setup

        panel_cfg = load(name, PANEL_SEED, w.panel_trials)
        panel = runner.one_pass(panel_cfg)
        if panel is None:
            sys.exit("error: the accuracy panel failed")

        def cfg_at(i):
            return load(name, campaign_seed(seed, i), w.trials)

        report["first_campaign_seed"] = campaign_seed(seed, 0)
        report["rows_per_pass"] = expected_rows(cfg_at(0))
        report["panel_rows"] = expected_rows(panel_cfg)

        if not trace:
            metrics.update(accuracy(panel[2]))
            del panel
            passes, samples = runner.loop(cfg_at, seconds)
            if not samples:
                sys.exit("error: every timed pass failed")
            runner.one_pass(cfg_at(0))  # repeats the first trace.csv, or fails
            rows_per_s, cpu_ms_per_row = throughput(samples)
            slow = slowness(samples)
            metrics["rows_per_ref_s"] = rows_per_s * slow
            metrics["cpu_ref_ms_per_row"] = cpu_ms_per_row / slow
            report["unscaled"] = {"rows_per_s": rows_per_s, "cpu_ms_per_row": cpu_ms_per_row}
            report["slowness"] = slow
            notes["rows_per_ref_s"] = (
                f"{len(samples)} of {passes} passes; {rows_per_s:.6g} rows/s at slowness {slow:.4g}"
            )
            notes["cpu_ref_ms_per_row"] = f"{cpu_ms_per_row:.6g} ms unscaled"
            peak_kb = max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            )
            metrics["peak_rss_mb"] = peak_kb / 1024.0
            report["pass_samples"] = [list(s) for s in samples]
            units = metric_units("end_to_end")
            result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
        else:
            del panel
            passes, plain = runner.loop(cfg_at, seconds / 2.0)
            tracer = Tracer()
            with tracer.installed():
                _, traced = runner.loop(cfg_at, math.inf, passes)
            if not plain or not traced:
                sys.exit("error: every timed pass failed")
            plain_rps = throughput(plain)[0]
            traced_rps = throughput(traced)[0]
            layer = tracer.layer_metrics(len(traced))
            layer["trace.overhead_pct"] = 100.0 * (plain_rps / traced_rps - 1.0)
            tracer.write_spans(os.path.join(out_dir, "spans.csv"))
            report["traced_passes"] = len(traced)
            report["pass_samples"] = {
                "untraced": [list(s) for s in plain],
                "traced": [list(s) for s in traced],
            }
            units = metric_units("per_layer")
            result_metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result_metrics,
    }
    report["result"] = result
    report["notes"] = notes
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump(report, f, indent=1)

    print(f"workload {name} (seed {seed}, {seconds:g} s, trace {int(trace)}): {w.why}")
    print(f"  {report['rows_per_pass']} rows per timed pass, a new campaign each from seed "
          f"{report['first_campaign_seed']}; accuracy panel: "
          f"{report['panel_rows']} rows at seed {PANEL_SEED}")
    for k, m in result_metrics.items():
        note = notes.get(k, "")
        print(f"  {k:<40} {m['value']:>14.6g} {m['unit']:<9} {note}")
    mach = report["machine"]
    print(f"  machine: nproc {mach['nproc']}, Python {mach['python']}, numpy {mach['numpy']}, "
          f"scipy {mach['scipy']}, {mach['blas_vendor']}, BLAS threads "
          f"{sorted(mach['blas_threads_effective'].values())}, env {mach['blas_thread_env']}")
    print(f"  rows attempted {runner.attempted}, failed {runner.failed}; results in {out_dir}")
    return result


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_units(kind: str) -> dict[str, str]:
    """Name to unit of the "end_to_end" or "per_layer" metrics, in the order
    BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own interpreter, so peak RSS and warm caches
    stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description="uavtrack campaign benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_program()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
