"""Per-layer tracing of the simulate path, measured from outside the package.

Each public function on the path is replaced, for the length of a traced
run, by a wrapper that records a span (name, start, end, parent span) and
reads counts from the function's arguments and return value. A wrapper is
installed where the caller looks the function up: `tracking` imports
`fit_hyperparams` by name, so the wrapper goes on `uavtrack.tracking`, not
only on `uavtrack.gpr`. Nothing under `src/` changes; leaving the context
restores every original.

Self time of a span is its duration minus the durations of its direct
child spans. The run is single threaded, so children never overlap.
"""

from __future__ import annotations

import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from uavtrack import beamforming, campaign, channel, gpr, tracking

SCHEMES = ("hybrid_gpr", "analog_gpr", "perturbation", "codebook_max", "gps_only")
GP_SCHEMES = ("hybrid_gpr", "analog_gpr")

# (owner, attribute, span name); an owner may appear under several names
# of one function when more than one module looks it up.
_WRAPPED = [
    (tracking, "fit_hyperparams", "gpr.fit"),
    (tracking, "make_model", "gpr.make_model"),
    (gpr, "make_model", "gpr.make_model"),  # with_point's refactorization fallback
    (gpr.GprModel, "with_point", "gpr.with_point"),
    (tracking, "posterior", "gpr.posterior"),
    (tracking, "posterior_mean_gradient", "gpr.mean_gradient"),
    (tracking, "steer_weights", "beamforming.steer_weights"),
    (campaign, "steer_weights", "beamforming.steer_weights"),  # data beam
    (tracking, "grid_weights", "beamforming.grid_weights"),
    (tracking, "candidate_set", "beamforming.candidate_set"),
    (campaign, "build_precoder", "beamforming.build_precoder"),
    (tracking, "measure_beams", "channel.measure_beams"),
    (campaign, "effective_channel", "channel.effective_channel"),
    (campaign, "refine_hybrid", "tracking.hybrid_gpr"),
    (campaign, "refine_analog", "tracking.analog_gpr"),
    (campaign, "baseline_perturbation", "tracking.perturbation"),
    (campaign, "baseline_codebook", "tracking.codebook_max"),
    (campaign, "baseline_gps_only", "tracking.gps_only"),
    (campaign, "simulate_truth", "campaign.truth"),
    (campaign, "simulate_readings", "campaign.readings"),
    # the benchmark's own calls into the campaign layer
    (campaign, "run_campaign", "campaign.run"),
    (campaign.CampaignResult, "summary_rows", "campaign.summary"),
    (campaign, "write_trace_csv", "campaign.write"),
    (campaign, "write_summary_csv", "campaign.write"),
]


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _observe(self, name: str, args, out) -> None:
        c = self.counts
        if name == "gpr.fit":
            n = len(args[1])
            c["gpr.fit.iterations"] += out.iterations
            c["gpr.fit.warnings"] += out.warning is not None
            c["gpr.fit.n"] += n
            # one Cholesky (n^3/3 flops) per accepted likelihood evaluation;
            # rejected line-search probes are invisible, so a lower bound
            c["gpr.fit.chol_flop"] += (out.iterations + 1) * n**3 / 3.0
        elif name in ("channel.measure_beams", "beamforming.grid_weights"):
            c[name + ".beams"] += len(out)
        elif name.startswith("tracking."):
            c[name + ".iterations"] += out.iterations
            if name != "tracking.gps_only":
                est = args[4]
                c[name + ".cap_hits"] += out.iterations >= est.max_iterations > 0
                c[name + ".seed_fallbacks"] += out.measurements == 0
        elif name == "campaign.write":
            c["campaign.write.bytes"] += os.path.getsize(args[0])

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent)
            self._observe(name, args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every listed function for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in _WRAPPED:
                orig = vars(owner)[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def write_spans(self, path: str) -> None:
        """One line per span: id, parent id (-1 at the root), name, start and
        end in seconds from the first span."""
        t_base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("id,parent,name,start_s,end_s\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                f.write(f"{i},{parent},{name},{t0 - t_base:.9f},{t1 - t_base:.9f}\n")

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics: per-pass figures, except the percentiles and the
        per-call means."""
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: dict[str, float] = defaultdict(float)  # child time, by parent's name
        fit_ms = []
        fallbacks = 0
        for name, t0, t1, parent in self.spans:
            d = t1 - t0
            busy[name] += d
            calls[name] += 1
            if name == "gpr.fit":
                fit_ms.append(d * 1e3)
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] += d
                if name == "gpr.make_model" and pname == "gpr.with_point":
                    fallbacks += 1
        c = self.counts
        per = 1.0 / passes
        m: dict[str, float] = {}

        def calls_busy(prefix):
            m[prefix + ".calls"] = calls[prefix] * per
            m[prefix + ".busy_s"] = busy[prefix] * per

        n_fit = calls["gpr.fit"]
        calls_busy("gpr.fit")
        m["gpr.fit.p50_ms"] = float(np.percentile(fit_ms, 50)) if fit_ms else 0.0
        m["gpr.fit.p99_ms"] = float(np.percentile(fit_ms, 99)) if fit_ms else 0.0
        m["gpr.fit.iters_per_call"] = c["gpr.fit.iterations"] / n_fit if n_fit else 0.0
        m["gpr.fit.warnings"] = c["gpr.fit.warnings"] * per
        m["gpr.fit.mean_n"] = c["gpr.fit.n"] / n_fit if n_fit else 0.0
        m["gpr.fit.chol_mflop_computed"] = c["gpr.fit.chol_flop"] * per / 1e6
        calls_busy("gpr.make_model")
        calls_busy("gpr.with_point")
        m["gpr.with_point.fallbacks"] = fallbacks * per
        calls_busy("gpr.posterior")
        calls_busy("gpr.mean_gradient")
        for fn in ("steer_weights", "grid_weights", "candidate_set", "build_precoder"):
            calls_busy("beamforming." + fn)
        m["beamforming.grid_weights.beams"] = c["beamforming.grid_weights.beams"] * per
        calls_busy("channel.measure_beams")
        m["channel.measure_beams.beams"] = c["channel.measure_beams.beams"] * per
        calls_busy("channel.effective_channel")
        gp_refines = 0
        for scheme in SCHEMES:
            p = "tracking." + scheme
            n = calls[p]
            calls_busy(p)
            m[p + ".self_s"] = (busy[p] - child[p]) * per
            m[p + ".iterations_mean"] = c[p + ".iterations"] / n if n else 0.0
            m[p + ".cap_hits"] = c[p + ".cap_hits"] * per
            m[p + ".seed_fallbacks"] = c[p + ".seed_fallbacks"] * per
            if scheme in GP_SCHEMES:
                gp_refines += n - c[p + ".seed_fallbacks"]
        m["tracking.fits_per_refine"] = n_fit / gp_refines if gp_refines else 0.0
        m["campaign.truth.busy_s"] = busy["campaign.truth"] * per
        m["campaign.readings.busy_s"] = busy["campaign.readings"] * per
        m["campaign.summary.busy_s"] = busy["campaign.summary"] * per
        m["campaign.write.busy_s"] = busy["campaign.write"] * per
        m["campaign.write.bytes"] = c["campaign.write.bytes"] * per
        m["campaign.self_s"] = (busy["campaign.run"] - child["campaign.run"]) * per
        return m
