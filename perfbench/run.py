#!/usr/bin/env python3
"""Host-time benchmark of the Pahoehoe simulator.

Builds perfbench/ (the Pahoehoe libraries plus perfbench_driver) in Release
mode under .bench_build/perfbench, runs one workload, and prints its metrics
as the last line of stdout:

    python3 perfbench/run.py --workload archive-put --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics (host time, tracing off); --trace 1
runs the traced per-layer pass and writes the driver's spans to
.bench_build/perfbench/spans/. --selftest checks that the per-layer metrics
respond to the knobs of the layers they name. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("archive-put", "small-blob-readback", "fs-outage-repair",
             "chaos-sweep")
# Set-up is measured this many times per run (separate processes, from
# spawn to the first timed run) and reported as the median.
SETUPS = 3
# Host times are scaled to this speed-probe time (see "Host noise" in
# README.md): the probe's 10th percentile on the 4-vCPU 2.0 GHz Xeon VM the
# benchmark was tuned on.
REFERENCE_PROBE_NS = 4.0e6
DRIVER_TIMEOUT_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Pahoehoe sources at %s/src; run from a full checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "perfbench_driver"])
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail("build failed: " + " ".join(cmd))


def drive(workload, seed, seconds, trace, extra=(), env=None):
    """Runs the driver; returns (report, scaled spawn-to-ready seconds)."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out: " + " ".join(cmd))
    sys.stderr.write(proc.stderr)
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        fail("driver exited %d without a report: %s"
             % (proc.returncode, " ".join(cmd)))
    report["exit_code"] = proc.returncode
    setup_s = (report["ready_ns"] - t0) / 1e9
    return report, setup_s * REFERENCE_PROBE_NS / report["setup_probe_ns"]


def metric_units(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def end_to_end(args):
    setups = [drive(args.workload, args.seed, args.seconds, 0,
                    ["--setup-only"])[1] for _ in range(SETUPS - 1)]
    report, setup_s = drive(args.workload, args.seed, args.seconds, 0)
    setups.append(setup_s)
    raw_ms = [ns / 1e6 for ns in report["sample_ns"]]
    # Each run is bracketed by two speed probes; scale it by their mean.
    probes = report["probe_ns"]
    run_ms = [ms * 2 * REFERENCE_PROBE_NS / (before + after)
              for ms, before, after in zip(raw_ms, probes, probes[1:])]
    tail_ms, tail_pct = tail(run_ms)
    values = {
        "puts_per_s": report["puts_per_run"] * len(run_ms)
                      / (sum(run_ms) / 1e3),
        "run_ms_p50": statistics.median(run_ms),
        "run_ms_tail": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": report["peak_rss_kib"] / 1024.0,
        "ops_ok_share": report["ops_ok_per_run"]
                        / report["ops_attempted_per_run"],
    }
    print("workload %s seed %d: %d timed runs, run_ms_tail is p%.1f "
          "(11th-largest), unscaled run_ms_p50 %.3f, median probe %.3f ms, "
          "fingerprint %s"
          % (args.workload, args.seed, len(run_ms), tail_pct,
             statistics.median(raw_ms), statistics.median(probes) / 1e6,
             report["fingerprint"]))
    return report, values, metric_units("end_to_end")


def per_layer(args):
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d.json"
                         % (args.workload, args.seed))
    report, _ = drive(args.workload, args.seed, args.seconds, 1,
                      ["--spans-out", spans])
    print("workload %s seed %d traced: %d runs, gf256 kernel %s, "
          "fingerprint %s, spans in %s"
          % (args.workload, args.seed, report["attempted"],
             report["gf256_kernel"], report["fingerprint"],
             os.path.relpath(spans, ROOT)))
    return report, report["layers"], metric_units("per_layer")


def selftest(seconds):
    """Per-layer metrics must respond to the knob of the layer they name."""
    ok = True

    def traced(workload, extra=(), env=None):
        report, _ = drive(workload, 1, seconds, 1, extra, env)
        if report["exit_code"] != 0 or report["failed"]:
            fail("%s traced run failed its output check" % workload)
        return report

    env = dict(os.environ)
    env["PAHOEHOE_GF256_KERNEL"] = "scalar"
    scalar = traced("archive-put", env=env)
    env["PAHOEHOE_GF256_KERNEL"] = "auto"
    best = traced("archive-put", env=env)
    enc_s = scalar["layers"]["erasure.encode_ms"]
    enc_b = best["layers"]["erasure.encode_ms"]
    same = scalar["fingerprint"] == best["fingerprint"]
    good = enc_s > 1.5 * enc_b and same
    ok &= good
    print("%s gf256 kernel: erasure.encode_ms %.3f (scalar) vs %.3f (%s); "
          "fingerprint %s" % ("PASS" if good else "FAIL", enc_s, enc_b,
                              best["gf256_kernel"],
                              "identical" if same else "DIFFERS"))

    spans_on = traced("chaos-sweep")["layers"]["obs.spans_overhead_share"]
    control = traced("chaos-sweep", ["--observers-control"])["layers"][
        "obs.spans_overhead_share"]
    good = spans_on > control + 0.02
    ok &= good
    print("%s sweep spans: obs.spans_overhead_share %.4f (spans on vs off) "
          "vs %.4f (on vs on)" % ("PASS" if good else "FAIL", spans_on,
                                  control))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the per-layer metrics' sensitivity")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.selftest:
        return selftest(args.seconds)

    report, values, units = (per_layer if args.trace else end_to_end)(args)
    missing = sorted(set(units) - set(values))
    if missing:
        fail("driver did not report " + ", ".join(missing))
    for error in report["errors"]:
        print("output check failed: " + error)
    correct = report["exit_code"] == 0 and not report["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
