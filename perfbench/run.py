"""Benchmark of postmix: three workloads through the package's public functions.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for what each number means.
"""

import os
import sys

# One BLAS thread, fixed before numpy is first imported: the default pool
# of two threads on two shared cores makes timings swing by a factor of two.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_PROBES = 7
MIN_PASSES = 3            # untraced passes per run, whatever --seconds says
MIN_TRACE_PASSES = 4      # traced and untraced passes alternate
PROBE_TIMEOUT_S = 60


def import_program():
    """Import postmix from this checkout's ``src``, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import postmix
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import postmix from {SRC}: {exc}")
    if Path(postmix.__file__).resolve().parent != SRC / "postmix":
        sys.exit(f"perfbench: postmix imported from {postmix.__file__}, not {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ensemble", "exemplar", "warmstart"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    t0 = time.perf_counter()
    probe = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - t0
        probe.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if probe.poll() is None:
            probe.kill()
            probe.wait()
        probe.stdout.close()
    if line.strip() != "ready" or probe.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed (exit {probe.returncode})")
    return elapsed


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from harness import (BestTimes, TargetMeter, Tracer, layer_metrics, layer_wrappers,
                         setup_metrics)
    from workloads import WORKLOADS

    meter = TargetMeter()
    workload_cls = WORKLOADS[args.workload]
    setup_tracer = Tracer()
    if args.trace:
        with layer_wrappers(setup_tracer):
            workload = workload_cls(args.seed, meter)
    else:
        workload = workload_cls(args.seed, meter)
    if args.setup_probe:
        print("ready", flush=True)
        return

    # Set-up objects live for the whole run; keep them out of the collector.
    gc.collect()
    gc.freeze()
    untraced, traced = BestTimes(meter), BestTimes(meter)
    passes, layers, tracer = [], [], None
    min_passes = MIN_TRACE_PASSES if args.trace else MIN_PASSES
    # Passes run for --seconds in all. The set-up probes come between them,
    # one whenever the passes have used their next share of --seconds, so
    # that the probes' median does not hang on one spell of the shared host.
    probes = []
    wanted_probes = 0 if args.trace else SETUP_PROBES
    spent = 0.0
    while True:
        if len(probes) < wanted_probes and spent >= len(probes) * args.seconds / wanted_probes:
            probes.append(setup_probe(args))
        started = time.perf_counter()
        if args.trace and len(passes) % 2 == 1:
            tracer = Tracer()
            meter.tracer = tracer
            with layer_wrappers(tracer):
                passes.append(workload.run_pass(traced))
            meter.tracer = None
            layers.append(layer_metrics(tracer))
        else:
            passes.append(workload.run_pass(untraced))
        took = time.perf_counter() - started
        spent += took
        if len(passes) >= min_passes and spent + took > args.seconds:
            break
    while len(probes) < wanted_probes:
        probes.append(setup_probe(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reasons = workload.check(passes[0])
    attempted = failed = 0
    for ops in passes:
        for key, op in ops.items():
            attempted += 1
            reason = reasons.get(key)
            if reason is None and op.fingerprint != passes[0][key].fingerprint:
                reason = "output differs from the first pass"
            if reason is not None:
                failed += 1
                print(f"perfbench: {args.workload} {key}: {reason}", file=sys.stderr)

    if args.trace:
        metrics = {}
        for name in layers[0]:
            values = [layer[name][0] for layer in layers]
            metrics[name] = (min(values), layers[0][name][1])
        metrics.update(setup_metrics(setup_tracer))
        overhead = traced.wall_s() - untraced.wall_s()
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_pct"] = (100.0 * overhead / untraced.wall_s(), "%")
        OUT.mkdir(exist_ok=True)
        (OUT / f"{args.workload}-spans.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "setup": setup_tracer.to_json(), "pass": tracer.to_json()}))
    else:
        metrics = {
            "wall_s": (untraced.wall_s(), "s"),
            "fit_s": (untraced.fit_s(), "s"),
            "setup_s": (statistics.median(probes), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "target_evals": (sum(op.points for op in passes[0].values()), "1"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
