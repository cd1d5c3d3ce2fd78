"""harmonicdisk benchmark: one command for every workload and metric.

Run from the repository root:

    python3 perfbench/run.py --workload {corpus,highorder,cli} --seed N --seconds S --trace {0,1}

The benchmark is a closed loop with one client: items run one at a time in
this process.  The library is imported from ``src/`` of the checkout and
receives only inputs generated from ``--seed``.  The only child processes
are cold-start probes, run one at a time: the cold imports of set-up, which
finish before any item runs, and the interpreter-start probes of a traced
``cli`` run, which start after its last item.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced item passes and reports the per-layer metrics, the
tracing overhead, and a failure for any traced output that differs from the
untraced one.  Human-readable lines come first; the last line of standard
output is the JSON result.  The exit code is 1 when any output check
failed, 2 when the library cannot be found.  Spans and environment details
are written to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("corpus", "highorder", "cli")

#: Latency percentiles are taken per window of whole passes holding at least
#: this many items, so that at least ten samples lie beyond the 90th
#: percentile of each window.
MIN_ITEMS = 100
#: Set-ups per run; ``setup_s`` reports their median.  The import can only be
#: repeated cold in a fresh interpreter, so each set-up starts one.
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    return "count"


def machine_info() -> dict:
    """Interpreter, numpy, CPU and cache details recorded with every result."""
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_pass(wl, items, tracer=None, pass_id=0):
    """Run every item once; returns (latencies in ns, records, failure reasons)."""
    latencies, records, reasons = [], [], []
    wl.before_pass()
    for label, fn in items:
        if tracer is not None:
            tracer.item = (pass_id, label)
            root = tracer.open("item")
        t0 = time.perf_counter_ns()
        try:
            record = fn()
            reason = None
        except Exception as e:  # noqa: BLE001 - a raising item counts as failed
            record, reason = None, f"{type(e).__name__}: {e}"
        latencies.append(time.perf_counter_ns() - t0)
        if tracer is not None:
            tracer.close(root)
        if reason is None:
            reason = wl.check(label, record)
        records.append(record)
        reasons.append(None if reason is None else f"{label}: {reason}")
    return latencies, records, reasons


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


#: Run in a fresh interpreter; prints the seconds the import of a module takes.
IMPORT_PROBE = "import time; t0 = time.perf_counter(); import {}; print(time.perf_counter() - t0)"


def _setup(wl, repeats: int) -> float:
    """Median of *repeats* set-ups: a cold import of the library plus a build of the inputs."""
    import workloads

    probe_code = IMPORT_PROBE.format(wl.import_module)
    times = []
    for _ in range(repeats):
        probe = subprocess.run([sys.executable, "-c", probe_code], env=workloads.child_env(SRC),
                               capture_output=True, text=True, check=True, timeout=120)
        t0 = time.perf_counter()
        wl.build()
        times.append(float(probe.stdout) + time.perf_counter() - t0)
    return statistics.median(times)


def measure(wl, seconds: float, min_items: int, setup_repeats: int) -> dict:
    """Untraced run: end-to-end metrics over whole item passes."""
    setup_s = _setup(wl, setup_repeats)
    items = wl.items()
    run_pass(wl, items)
    # Latencies are grouped into windows of whole passes.  A load burst on the
    # shared host lasts seconds and slows every item in it; the median over
    # windows keeps one such burst from setting the percentiles of a run.
    # The passes after the last full window join it.
    windows, window, reasons, rates = [], [], [], []
    start = time.perf_counter()
    while not windows or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        lat, _, why = run_pass(wl, items)
        rates.append(len(lat) / (time.perf_counter() - t0))
        window += [x / 1e6 for x in lat]
        reasons += why
        if len(window) >= min_items:
            windows.append(window)
            window = []
    windows[-1] += window
    metrics = {
        "setup_s": setup_s,
        "items_per_s": statistics.median(rates),
        "item_ms_p50": statistics.median(statistics.median(w) for w in windows),
        "item_ms_p90": statistics.median(_percentile(w, 90) for w in windows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"metrics": metrics, "reasons": reasons, "latencies_ms": [x for w in windows for x in w],
            "passes": len(rates), "windows": [len(w) for w in windows]}


def measure_traced(wl, seconds: float) -> dict:
    """Traced run: per-layer metrics, tracing overhead, traced-output equality."""
    import spans

    setup_tracer = spans.Tracer()
    with spans.instrumented(setup_tracer):
        with setup_tracer.span("setup"):
            wl.build()
    items = wl.items()
    run_pass(wl, items)
    tracer = spans.Tracer()
    per_pass, reasons, untraced_ns, traced_ns, plain_ns = [], [], 0, 0, []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        lat_u, rec_u, why_u = run_pass(wl, items)
        tracer.reset()
        with spans.instrumented(tracer):
            lat_t, rec_t, why_t = run_pass(wl, items, tracer, len(per_pass))
        for i, (label, _) in enumerate(items):
            if why_t[i] is None and rec_t[i] != rec_u[i]:
                why_t[i] = f"{label}: traced output differs from untraced output"
        per_pass.append(spans.layer_metrics(tracer))
        untraced_ns += sum(lat_u)
        traced_ns += sum(lat_t)
        plain_ns += lat_u
        reasons += why_u + why_t
    metrics = {k: statistics.fmean(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["closure.busy_s"] = spans.layer_metrics(setup_tracer)["closure.busy_s"]
    metrics["trace.overhead_frac"] = traced_ns / untraced_ns - 1.0
    metrics["cli.interp_ms"] = metrics["cli.import_ms"] = metrics["cli.run_command_ms"] = 0.0
    if wl.name == "cli":
        metrics.update(wl.startup_probes())
        metrics["cli.run_command_ms"] = statistics.median(plain_ns) / 1e6
    return {
        "metrics": metrics,
        "reasons": reasons,
        "setup_spans": setup_tracer.spans,
        "spans": tracer.spans,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, *, out_dir: Path = OUT_DIR,
        tiny: bool = False, min_items: int = MIN_ITEMS) -> dict:
    """Run one workload and return the result object (plus details for the log)."""
    import workloads

    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(workload, seed, out_dir, SRC, tiny)
    try:
        if trace:
            res = measure_traced(wl, seconds)
        else:
            res = measure(wl, seconds, min_items, 1 if tiny else SETUP_REPEATS)
    finally:
        wl.close()
    reasons = [r for r in res["reasons"] if r is not None]
    units = END_TO_END if not trace else {k: layer_unit(k) for k in res["metrics"]}
    result = {
        "correct": not reasons,
        "attempted": len(res["reasons"]),
        "failed": len(reasons),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }
    log = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": machine_info(),
        "result": result,
        "failures": reasons,
        "latencies_ms": res.get("latencies_ms", []),
        "setup_spans": res.get("setup_spans", []),
        "spans": res.get("spans", []),
    }
    with open(out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(log, fh)
    return {"result": result, "env": log["env"], "failures": reasons, "latencies": res.get("latencies_ms"),
            "passes": res.get("passes"), "windows": res.get("windows")}


def _report(workload: str, out: dict) -> None:
    result = out["result"]
    print("env " + json.dumps(out["env"], sort_keys=True))
    n = result["attempted"]
    frac = result["failed"] / n
    print(f"{workload}: {n} items attempted, {result['failed']} failed")
    for reason in out["failures"][:10]:
        print(f"  FAILED {reason}")
    for name, m in result["metrics"].items():
        note = ""
        if name == "items_per_s":
            note = f"  (median of {out['passes']} passes)"
        elif name.startswith("item_"):
            note = (f"  (median of {len(out['windows'])} windows of >={min(out['windows'])} items;"
                    f" n={len(out['latencies'])})")
        elif name == "setup_s":
            note = f"  (median of {SETUP_REPEATS} set-ups)"
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'fail_frac':38s} {frac:.6g} ratio  (n={n})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite the highorder reference table from one pass at --seed 1")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "harmonicdisk" / "__init__.py").is_file():
        print(f"error: harmonicdisk sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if SRC.resolve() not in Path(workloads.hd.__file__).resolve().parents:
        print(f"error: harmonicdisk imported from {workloads.hd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        return workloads.write_reference()

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _report(args.workload, out)
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
