#!/usr/bin/env python3
"""Bladerunner benchmark runner (Python 3 standard library only).

  python3 bench/perf/run.py [--seed N] [--seconds T] [--out FILE]
      The full suite: two untraced measurements of every workload at seed N
      (default 0), interleaved round-robin, one process at a time; one
      untraced/traced pair per workload; one diurnal_fleet run at
      --threads 4 (at most the CPU count). Prints every metric with its unit
      and exits nonzero on any failed check.
  python3 bench/perf/run.py --smoke
      The suite at 1/10 scale.
  python3 bench/perf/run.py --compare BASE.json NEW.json
      Labels every (workload, end-to-end metric) pair of two --out files.
  python3 bench/perf/run.py --workload W --seed N --seconds T --trace 0|1
      One measurement. The last stdout line is one JSON object with the
      end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

A measurement of T seconds is one perf_bench process that simulates as many
game-days as take T seconds on the reference VM (bench/perf/perf_bench.cpp).
perf_bench is built on first use into .bench_build/perf with CMake
(Release). Metric names, units, directions and bounds come from
BENCHMARK.json; bench/perf/README.md defines each one.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "perf"
EXE = BUILD / "perf_bench"
CPUS = min(4, os.cpu_count() or 1)  # build jobs and the parallel-kernel check
RUN_TIMEOUT_S = 170
DEFAULT_SECONDS = 22.0
SUITE_ROUNDS = 2
SMOKE_SCALE = 0.1
# Metrics the trace context legitimately changes: it adds 17 bytes to every
# message that carries one.
BYTE_METRICS = {"backbone_bytes_per_delivery", "burst.backbone_bytes"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds perf_bench; build output goes to stderr
    so that stdout carries only results."""
    steps = []
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(CPUS), "--target", "perf_bench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def perf_bench(workload, seed, seconds, trace=False, scale=1.0, threads=None):
    """Runs one perf_bench process and returns its parsed JSON line."""
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--scale", repr(scale)]
    if trace:
        cmd.append("--trace")
    if threads is not None:
        cmd += ["--threads", str(threads)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failures": [f"timed out after {RUN_TIMEOUT_S}s"]}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"failures": [f"exit {proc.returncode}, no result: {proc.stderr.strip()[-300:]}"]}


def simulated(run, drop=()):
    """The simulated-time part of a run: a pure function of workload, seed
    and seconds."""
    return {part: {k: v for k, v in run[part].items() if k not in drop}
            for part in ("sim", "layer")}


class Measurement:
    """Processes of one workload at one seed: untraced measurements, plus an
    untraced/traced pair of half the length for the per-hop numbers and the
    tracing overhead. Runs of equal length must simulate identically."""

    def __init__(self, workload):
        self.workload = workload
        self.runs = []        # untraced measurements
        self.pair = None      # (untraced, traced), each of half the seconds
        self.failures = []
        self.attempted = 0    # perf_bench processes
        self.failed = 0       # processes with a failed check or no result

    def _record(self, run, label):
        self.attempted += 1
        self.failed += bool(run.get("failures"))
        self.failures += [f"{self.workload} {label}: {f}" for f in run.get("failures", [])]
        return "sim" in run

    def add(self, run):
        if not self._record(run, "run"):
            return
        if self.runs and simulated(self.runs[0]) != simulated(run):
            self.failures.append(f"{self.workload}: two runs of one seed simulated differently")
        self.runs.append(run)

    def add_pair(self, untraced, traced):
        untraced_ok = self._record(untraced, "untraced run")
        traced_ok = self._record(traced, "traced run")
        if untraced_ok and traced_ok:
            self.pair = (untraced, traced)
            if simulated(untraced, BYTE_METRICS) != simulated(traced, BYTE_METRICS):
                self.failures.append(f"{self.workload}: tracing changed simulated metrics")

    def values(self, name):
        """Every observation of `name`: one per untraced measurement for
        host metrics, one for simulated and traced metrics."""
        runs = self.runs or [self.pair[0]]
        if name in runs[0]["host"]:
            return [r["host"][name] for r in runs]
        for part in ("sim", "layer"):
            if name in runs[0][part]:
                return [runs[0][part][name]]
        untraced, traced = self.pair
        if name == "trace.overhead_frac":
            return [1.0 - traced["host"]["sim_events_per_s"] /
                    untraced["host"]["sim_events_per_s"]]
        return [traced["trace"][name]]


def one_measurement(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; have {names}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    build()
    m = Measurement(args.workload)
    if args.trace == 1:
        half = args.seconds / 2
        m.add_pair(perf_bench(args.workload, args.seed, half),
                   perf_bench(args.workload, args.seed, half, trace=True))
    else:
        m.add(perf_bench(args.workload, args.seed, args.seconds))
    correct = not m.failures
    metrics = {}
    if correct:
        for metric in spec["per_layer" if args.trace == 1 else "end_to_end"]:
            metrics[metric["name"]] = {"value": statistics.median(m.values(metric["name"])),
                                       "unit": metric["unit"]}
    for f in m.failures:
        print(f"FAILED: {f}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def fmt(v):
    return f"{v:.6g}"


def suite(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds, half = args.seconds, args.seconds / 2
    build()
    start = time.monotonic()
    ms = {w: Measurement(w) for w in workloads}
    for r in range(SUITE_ROUNDS):
        for w in workloads:
            ms[w].add(perf_bench(w, args.seed, seconds, scale=scale))
            print(f"  round {r + 1}: {w} {'FAILED' if ms[w].failures else 'ok'}",
                  file=sys.stderr)
    for w in workloads:
        ms[w].add_pair(perf_bench(w, args.seed, half, scale=scale),
                       perf_bench(w, args.seed, half, trace=True, scale=scale))
        print(f"  traced: {w} {'FAILED' if ms[w].failures else 'ok'}", file=sys.stderr)
    failures = [f for m in ms.values() for f in m.failures]
    # The partitioned kernel promises that the LP layout fixes the result and
    # the thread count only the wall time. diurnal_fleet's metrics come from one
    # worker thread (steadier on a shared host); this run shows what more buy,
    # against the one-thread untraced run of equal length.
    diurnal = ms["diurnal_fleet"]
    parallel = perf_bench("diurnal_fleet", args.seed, half, scale=scale, threads=CPUS)
    speedup = None
    if diurnal.pair is None or parallel.get("fingerprint") != diurnal.pair[0]["fingerprint"]:
        failures.append(f"diurnal_fleet: --threads {CPUS} simulated differently from --threads 1")
    else:
        speedup = (parallel["host"]["sim_events_per_s"] /
                   diurnal.pair[0]["host"]["sim_events_per_s"])

    report = {"seed": args.seed, "seconds": seconds, "scale": scale, "workloads": {}}
    for w, m in ms.items():
        if not m.runs or m.pair is None:
            continue
        report["workloads"][w] = {
            metric["name"]: {"median": statistics.median(v), "min": min(v), "max": max(v),
                             "values": v, "unit": metric["unit"]}
            for metric in spec["end_to_end"] + spec["per_layer"]
            for v in [m.values(metric["name"])]}

    shown = list(report["workloads"])
    for title, metrics in (("end-to-end", spec["end_to_end"]), ("per-layer", spec["per_layer"])):
        print(f"\n== {title} metrics: median [min..max] over runs ==")
        print(f"{'metric':34s} {'unit':8s}" + "".join(f"{w:>31s}" for w in shown))
        for metric in metrics:
            cells = []
            for w in shown:
                row = report["workloads"][w][metric["name"]]
                cell = fmt(row["median"])
                if row["min"] != row["max"]:
                    cell += f" [{row['min']:.3g}..{row['max']:.3g}]"
                cells.append(f"{cell:>31s}")
            print(f"{metric['name']:34s} {metric['unit']:8s}" + "".join(cells))
    if speedup is not None:
        print(f"\ndiurnal_fleet sim_events_per_s at --threads {CPUS} / --threads 1: {speedup:.2f}")
    print(f"\nsuite time {time.monotonic() - start:.1f}s; {len(failures)} failed checks")
    for f in failures:
        print(f"FAILED: {f}")
    if args.out:
        report["failures"] = failures
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 1 if failures else 0


def compare(base_path, new_path):
    """Labels each (workload, end-to-end metric) pair: improved when every
    new run beats every base run and the median gains more than the bound;
    unresolved when the base's own run-to-run spread is wider than the bound;
    worse when the median loses more than the bound; otherwise within
    bound."""
    spec = load_spec()
    with open(base_path) as f:
        base = json.load(f)["workloads"]
    with open(new_path) as f:
        new = json.load(f)["workloads"]
    worse = 0
    print(f"{'workload':16s} {'metric':32s} {'base':>11s} {'new':>11s} {'change':>8s}  label")
    for w in base:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b, n = base[w][name], new.get(w, {}).get(name)
            if n is None:
                print(f"{w:16s} {name:32s} missing from {new_path}")
                worse += 1
                continue
            # Orient every metric so that a larger `gain` is better.
            sign = 1.0 if metric["better"] == "higher" else -1.0
            gain = sign * (n["median"] - b["median"]) / abs(b["median"])
            spread = (b["max"] - b["min"]) / abs(b["median"])
            all_better = min(sign * v for v in n["values"]) > max(sign * v for v in b["values"])
            if all_better and gain > bound:
                label = "improved"
            elif spread > bound and not all_better:
                label = "unresolved"
            elif gain < -bound:
                label = "worse"
                worse += 1
            else:
                label = "within bound"
            print(f"{w:16s} {name:32s} {fmt(b['median']):>11s} {fmt(n['median']):>11s} "
                  f"{gain:+8.1%}  {label}")
    return 1 if worse else 0


def main():
    # A SIGTERM unwinds like an exception, so that subprocess.run kills and
    # waits for the perf_bench or build it is running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", help="run one measurement of this workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="host time of one measurement on the reference VM")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="the suite at 1/10 scale")
    p.add_argument("--out", help="write the suite's results as JSON")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is not None:
        return one_measurement(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
