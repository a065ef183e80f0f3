"""hgptsym benchmark: run one workload with one seed and print its metrics.

    python3 bench/run.py --workload float-grid --seed 1 --seconds 60 --trace 0

Run from the repository root; the program is imported from ``src``.  Every
pass of the workload runs in a fresh worker process (``worker.py``), one at
a time, with BLAS threads pinned to 1.  Passes repeat while the next one is
expected to end within ``--seconds``; there is always at least one, and with
``--trace 1`` at least one untraced and one traced.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics; the line before it is a record of the
run: environment, speed probe, tail percentile and sample counts, failures.
The full record, and with tracing the spans, go to ``.bench_out/``.

``--single "<cli arguments>"`` traces one CLI query instead, for the slow
cases no gated workload contains (``invariants --group I --p 4 --q 4``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shlex
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
import tracer  # noqa: E402

# exact-grid runs, but BENCHMARK.json does not gate it: one ~20 s pass fills a
# run, so its latency quantiles rest on single queries and were too noisy to
# gate (bench/README.md, "Noise on this host").
WORKLOADS = ("exact-grid", "float-grid", "hgpt-field")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "query_p50_ms": "ms",
                    "query_tail_ms": "ms", "peak_rss_mb": "MB"}
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_PER_GAP = 7          # setup-only workers before each pass and after the last
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def speed_probe():
    """Seconds for a fixed amount of Fraction and float work; never folded
    into the metrics, only reported beside them to show host drift."""
    t0 = perf_counter()
    s = Fraction(0)
    for i in range(1, 30000):
        s += Fraction(1, i % 97 + 1)
    x = 0.0
    for i in range(300000):
        x += math.sin(i * 1e-3)
    return perf_counter() - t0


def environment():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "pinned_env": PINNED_ENV}


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

def spawn(cfg):
    """Run one worker to completion; returns its record plus ``setup_s``."""
    env = dict(os.environ, **PINNED_ENV)
    env.pop("HGPTSYM_TRACE_TOL", None)
    t_spawn = perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("worker exited with %d" % proc.returncode)
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["ready"] - t_spawn
    rec["duration_s"] = perf_counter() - t_spawn
    return rec


def tail_percentile(n):
    """The highest percentile with at least 10 of n samples beyond it by
    nearest rank, or the median when there are too few samples."""
    for pct in TAIL_PERCENTILES:
        if n - math.ceil(pct / 100.0 * n) >= 10:
            return pct
    return 50.0


def run_workload(workload, seed, seconds, trace, tiny=False):
    """All passes of one run; returns (final line, run record)."""
    os.makedirs(OUT, exist_ok=True)
    base = {"workload": workload, "seed": seed, "tiny": tiny, "setup_only": False}

    def setup_only(n):
        return [spawn(dict(base, trace=False, setup_only=True))["setup_s"] for _ in range(n)]

    # Set-up is sampled before every pass and after the last, so that its
    # median spans the whole run rather than one moment of the host's speed.
    t_start = perf_counter()
    setups = setup_only(SETUP_PER_GAP)
    gap_s = perf_counter() - t_start
    deadline = t_start + seconds - gap_s
    kinds = [False, True] if trace else [False]
    passes = []
    while True:
        kind = kinds[len(passes) % len(kinds)]
        done = [p["duration_s"] for p in passes if p["traced"] == kind]
        if len(passes) >= len(kinds) and done and \
                perf_counter() + gap_s + max(done) > deadline:
            break
        if passes:
            setups += setup_only(SETUP_PER_GAP)
        spans = os.path.join(OUT, "spans-%s-seed%d-pass%d.json.gz" % (workload, seed,
                                                                      len(passes)))
        rec = spawn(dict(base, trace=kind, spans=spans))
        rec["traced"] = kind
        passes.append(rec)
        setups.append(rec["setup_s"])
    setups += setup_only(SETUP_PER_GAP)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    # The tail percentile is chosen from the sample count of one pass, so it
    # does not change with the number of passes; the quantiles pool them all.
    per_pass = len(plain[0]["latencies"])
    pct = tail_percentile(per_pass)
    pooled = [x for p in plain for x in p["latencies"]]
    med = statistics.median
    e2e = {"setup_s": med(setups),
           "wall_s": med(p["wall_s"] for p in plain),
           "query_p50_ms": float(np.percentile(pooled, 50.0)) * 1e3,
           "query_tail_ms": float(np.percentile(pooled, pct)) * 1e3,
           "peak_rss_mb": med(p["peak_rss_mb"] for p in plain)}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "passes": len(plain), "traced_passes": len(traced),
              "queries_per_pass": plain[0]["attempted"],
              "tail_percentile": pct, "latency_samples": len(pooled),
              "setup_samples": len(setups), "setup_s_samples": setups,
              "attempted": attempted,
              "failed": len(failures), "failed_frac": len(failures) / attempted,
              "failures": failures[:20], "end_to_end": e2e,
              "pass_wall_s": [[p["traced"], p["wall_s"]] for p in passes],
              "latencies_s": [p["latencies"] for p in plain]}
    if trace:
        layers = {name: med(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_frac"] = med(p["wall_s"] for p in traced) / e2e["wall_s"] - 1
        record["per_layer"] = layers
        metrics = {k: {"value": layers[k], "unit": u} for k, u in tracer.metric_units().items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    final = {"correct": not failures, "attempted": attempted, "failed": len(failures),
             "metrics": metrics}
    return final, record


def run_single(argv, tag):
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, "spans-%s.json.gz" % tag)
    rec = spawn({"single": argv, "trace": True, "tiny": False, "setup_only": False,
                 "spans": spans})
    layers = {k: v for k, v in rec["layers"].items() if v}
    record = {"single": argv, "wall_s": rec["wall_s"], "setup_s": rec["setup_s"],
              "peak_rss_mb": rec["peak_rss_mb"], "failures": rec["failures"],
              "per_layer": layers}
    units = tracer.metric_units()
    final = {"correct": not rec["failures"], "attempted": rec["attempted"],
             "failed": len(rec["failures"]),
             "metrics": dict({"wall_s": {"value": rec["wall_s"], "unit": "s"}},
                             **{k: {"value": v, "unit": units[k]} for k, v in layers.items()})}
    return final, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--single", metavar="CLI_ARGS")
    args = ap.parse_args(argv)
    if (args.workload is None) == (args.single is None):
        ap.error("give exactly one of --workload and --single")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    env = environment()
    probe_before = speed_probe()
    if args.single is not None:
        cli_args = shlex.split(args.single)
        tag = "single-" + "-".join(a.strip("-") for a in cli_args)
        tag = tag.replace("/", "_").replace(":", "_")
        final, record = run_single(cli_args, tag)
    else:
        tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        final, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record["environment"] = env
    record["speed_probe_s"] = {"before": probe_before, "after": speed_probe()}
    with open(os.path.join(OUT, "result-%s.json" % tag), "w") as f:
        json.dump(dict(record, result=final), f, indent=1)
    summary = {k: v for k, v in record.items()
               if k not in ("per_layer", "failures", "latencies_s", "setup_s_samples")}
    print(json.dumps({"run": summary}))
    for line in record.get("failures", [])[:5]:
        print("failed: %s" % line, file=sys.stderr)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "hgptsym", "__init__.py")):
        print("error: %s holds no src/hgptsym; run from a checkout of the repository"
              % ROOT, file=sys.stderr)
        sys.exit(2)
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(1)
