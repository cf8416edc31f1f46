"""Campaign benchmark for asdnlms.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Runs whole rounds of the workload in this one process until S seconds have
passed (one round with --quick, at tiny sizes), checks every variant's
outputs, and prints one JSON object as the last line of standard output:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
End-to-end times are medians over the rounds, each round scaled by the
reference kernel of calibrate.py run around it; per-layer times are not
scaled.
The package is imported from ``src/`` next to this directory, afresh in
every round, and is only ever called from outside through its public
functions.  Results and spans are written under ``perfbench/_out/``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ASDNLMS_OUT", None)  # would redirect every output directory

import argparse
import contextlib
import gc
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from calibrate import NOMINAL_S, reference_seconds
from checks import Outcome, check_variant
from spans import KEPT, NAME, Tracer
from workloads import WORKLOADS, invocations

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"

# (module, attribute, span name, keep).  OUTER are the calls made once per
# variant, as seen by asdnlms.cli; every round wraps them.  INNER are the
# calls inside a variant, as seen by asdnlms.harness; only traced rounds
# wrap them.
OUTER = (
    ("cli", "parse_config_file", "config.parse", None),
    ("cli", "expand_preset", "presets.expand", None),
    ("cli", "materialize", "harness.materialize", lambda a, r: (a[0].name(), r)),
    ("cli", "monte_carlo", "harness.monte_carlo", lambda a, r: r),
    ("cli", "write_csv", "harness.write", lambda a, r: Path(a[1]).stat().st_size),
    ("cli", "write_manifest", "harness.write", lambda a, r: Path(a[1]).stat().st_size),
)
INNER = (
    ("harness", "build_random_geometric", "network.build", None),
    ("harness", "load_edge_list", "network.build", None),
    ("harness", "uniform_weights", "network.weights", None),
    ("harness", "draw_signal_blocks", "signals.draw", None),
    ("harness", "draw_sampled_set", "sampling.draw", None),
    ("harness", "draw_active_links", "sampling.draw", None),
    ("harness", "run_realization", "harness.realization", None),
    ("harness", "build_manifest", "harness.manifest", None),
)

SCALED = ("wall_s", "setup_s", "realization_iters_per_s")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "realization_iters_per_s": "1/s",
                    "peak_rss_mb": "MB"}
# per-layer metric -> (unit, source): ("total"|"self"|"calls", span name), or
# ("work", counter) for the work counts read from the outputs.
PER_LAYER = {
    "config.parse_s": ("s", "total", "config.parse"),
    "presets.expand_s": ("s", "total", "presets.expand"),
    "network.build_s": ("s", "total", "network.build"),
    "network.weights_s": ("s", "total", "network.weights"),
    "network.weights_calls": ("count", "calls", "network.weights"),
    "harness.materialize_s": ("s", "total", "harness.materialize"),
    "harness.materialize_calls": ("count", "calls", "harness.materialize"),
    "signals.draw_s": ("s", "total", "signals.draw"),
    "signals.draw_calls": ("count", "calls", "signals.draw"),
    "sampling.draw_s": ("s", "total", "sampling.draw"),
    "sampling.draw_calls": ("count", "calls", "sampling.draw"),
    "harness.realization_self_s": ("s", "self", "harness.realization"),
    "harness.realization_calls": ("count", "calls", "harness.realization"),
    "harness.aggregate_self_s": ("s", "self", "harness.monte_carlo"),
    "harness.manifest_s": ("s", "total", "harness.manifest"),
    "harness.write_s": ("s", "total", "harness.write"),
    "harness.write_bytes": ("B", "work", "write_bytes"),
    "sampling.sampled_share": ("ratio", "work", "sampled_share"),
    "harness.comms_per_iter": ("count/iter", "work", "comms_per_iter"),
    "analysis.mults_per_iter": ("count/iter", "work", "mults_per_iter"),
}


def machine_info() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def import_package():
    """Drop any loaded asdnlms modules and import asdnlms.cli afresh."""
    for name in [m for m in sys.modules if m == "asdnlms" or m.startswith("asdnlms.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    cli = importlib.import_module("asdnlms.cli")
    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"asdnlms imported from {cli.__file__}, not from {SRC}")
    return cli, import_s


def run_round(calls, traced: bool) -> dict:
    """One round: every call of the workload, timed, then every check."""
    for call in calls:
        shutil.rmtree(call.out_dir, ignore_errors=True)
    gc.collect()

    cli, import_s = import_package()
    modules = {"cli": cli, "harness": sys.modules["asdnlms.harness"]}
    tracer = Tracer()
    for module, attr, name, keep in OUTER + (INNER if traced else ()):
        tracer.wrap(modules[module], attr, name, keep)

    wall = import_s
    per_call = []
    for call in calls:
        first = len(tracer.spans)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(list(call.argv))
        except Exception:  # a failing operation is counted and reported, not fatal
            traceback.print_exc()
            rc = "exception"
        wall += time.perf_counter() - t0
        per_call.append((rc, tracer.spans[first:]))

    attempted = failed = 0
    work = {"iterations": 0, "comms": 0.0, "mults": 0.0, "shares": []}
    for call, (rc, spans) in zip(calls, per_call):
        mats = dict(s[KEPT] for s in spans if s[NAME] == "harness.materialize")
        results = {s[KEPT].config.name(): s[KEPT] for s in spans
                   if s[NAME] == "harness.monte_carlo"}
        for label in call.labels:
            attempted += 1
            if rc != 0:
                failed += 1
                print(f"FAIL {label}: cli returned {rc}", file=sys.stderr)
                continue
            try:
                out = check_variant(call.out_dir / f"{label}.csv",
                                    call.out_dir / f"{label}.manifest.txt", call.iterations,
                                    mats.get(label), results.get(label),
                                    label in call.steady_labels)
            except (KeyError, ValueError) as exc:  # a manifest key missing or malformed
                out = Outcome(errors=[f"malformed manifest: {exc!r}"])
            if out.errors:
                failed += 1
                print(f"FAIL {label}: " + "; ".join(out.errors), file=sys.stderr)
                continue
            work["iterations"] += out.iterations
            work["comms"] += out.comms
            work["mults"] += out.mults
            work["shares"].append(out.sampled_share)

    total, self_time, count = tracer.totals()
    mc_results = [s[KEPT] for s in tracer.spans if s[NAME] == "harness.monte_carlo"]
    realization_iters = sum(r.config.realizations * r.config.iterations for r in mc_results)
    mc_s = total.get("harness.monte_carlo", 0.0)
    layers = {"total": total, "self": self_time, "calls": count, "work": {
        "write_bytes": sum(tracer.kept("harness.write")),
        "sampled_share": float(np.mean(work["shares"])) if work["shares"] else 0.0,
        "comms_per_iter": work["comms"] / max(work["iterations"], 1),
        "mults_per_iter": work["mults"] / max(work["iterations"], 1),
    }}
    return {
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "wall_s": wall,
        "setup_s": import_s + sum(total.get(k, 0.0) for k in
                                  ("config.parse", "presets.expand", "harness.materialize")),
        "realization_iters_per_s": realization_iters / mc_s if mc_s > 0 else 0.0,
        "layers": {name: layers[src].get(key, 0) for name, (_, src, key) in PER_LAYER.items()},
        "spans": [s[:4] for s in tracer.spans] if traced else None,
    }


def scale_to_reference(round_: dict, kernel_before: float) -> float:
    """Scale a round's timings to the reference host speed, in place.

    The host's speed during the round is taken as the mean of the reference
    kernel's durations just before and just after it (see calibrate.py).
    The unscaled values are kept under ``raw``.  Returns the kernel's
    duration after the round, the next round's "before".
    """
    kernel_after = reference_seconds()
    factor = NOMINAL_S / ((kernel_before + kernel_after) / 2)
    round_["raw"] = {k: round_[k] for k in SCALED}
    round_["kernel_s"] = (kernel_before, kernel_after)
    for key in ("wall_s", "setup_s"):
        round_[key] *= factor
    round_["realization_iters_per_s"] /= factor
    return kernel_after


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one round at tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "asdnlms" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}/asdnlms", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Import from cached bytecode, as an installed package does, whatever
    # PYTHONDONTWRITEBYTECODE says: only the first round compiles.
    sys.dont_write_bytecode = False

    machine = machine_info()
    print("machine " + json.dumps(machine))
    work_dir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    rounds = []
    try:
        calls = invocations(args.workload, args.seed, work_dir, args.quick)
        reference_seconds()  # warm-up
        kernel_s = reference_seconds()
        start = time.perf_counter()
        while True:
            for traced in (False, True) if args.trace else (False,):
                rounds.append(run_round(calls, traced))
                kernel_s = scale_to_reference(rounds[-1], kernel_s)
            if args.quick or time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if args.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced),
                          "unit": unit} for name, (unit, _, _) in PER_LAYER.items()}
        # Each traced round directly follows an untraced one; pairing them
        # keeps slow drifts of the machine out of the difference.
        overhead = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"tracing overhead: {overhead:.4f} s per round "
              f"({len(traced)} traced and {len(plain)} untraced rounds)")
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items() if name != "peak_rss_mb"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps({
        "args": vars(args), "machine": machine, "result": result,
        "rounds": [{k: v for k, v in r.items() if k != "spans"} for r in rounds],
    }, indent=1))
    if args.trace:
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
        (OUT / "trace" / f"{tag}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"],
             "rounds": [r["spans"] for r in traced]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
