"""ortho3 benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; ortho3 is imported from ./src.  One client in
one process and one thread sends each item after the previous one finished.
Items come in passes over a stratified pool (see ``workloads``); each pass
draws a fresh pool from (seed, pass number), and a run ends at the first
pass boundary after S seconds of item time and at least 100 items.  Every
output is checked against the benchmark's own reference answers; any wrong
output makes the run exit 1.

Item times are reported at a reference interpreter speed.  On a shared
machine the interpreter's speed can drift by a quarter or more within a
minute, for every workload at once.  A fixed pure-Python loop, timed every quarter
second of item time, tracks that drift: each item's time is multiplied by
CALIBRATION_REF_S / (mean of the last CALIBRATION_WINDOW loop times).  The
loop is part of the benchmark, so a change to ortho3 moves the scaled figures
as it moves the raw ones; the lines before the JSON result print both.
setup_s is the raw median over its spawns: the loop, run in this process
between spawns, does not track a child interpreter's start-up.

--trace 0 prints the end-to-end metrics; --trace 1 runs the first pool once
untraced and once with every ortho3 layer wrapped (``spans``), and prints
per-layer metrics per item.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

MIN_ITEMS = 100
CALIBRATION_REF_S = 0.003  # one calibration loop at the reference speed
CALIBRATION_EVERY_S = 0.25  # item time between two calibration samples
CALIBRATION_WINDOW = 16  # samples averaged for an item's scale factor
SETUP_SPAWNS = 9
IMPORT_SPAWNS = 5
MODULES = ("ortho3", "ortho3.errors", "ortho3.qfield", "ortho3.qfield.interval",
           "ortho3.qfield.tower", "ortho3.qfield.expr", "ortho3.linalg3",
           "ortho3.isometry", "ortho3.cli")
# the layers each workload drives; the traced run asserts each made calls
DRIVEN = {
    "float_mix": ("linalg3", "isometry"),
    "exact_rational": ("interval", "tower", "linalg3", "isometry", "expr"),
    "exact_deep": ("interval", "tower", "linalg3", "isometry"),
    "cli_docs": ("interval", "tower", "expr", "linalg3", "isometry", "cli"),
}


def _import_ortho3() -> None:
    if not (SRC / "ortho3" / "__init__.py").is_file():
        sys.exit(f"error: no ortho3 sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import ortho3

    if Path(ortho3.__file__).resolve().parent != (SRC / "ortho3").resolve():
        sys.exit(f"error: imported ortho3 from {ortho3.__file__}, not from {SRC}")


def _calibration_loop() -> int:
    """Fixed pure-Python work (integer arithmetic, indexing, a loop): its
    time stands for the interpreter's speed at that moment."""
    s = 0
    t = (1, 2, 3)
    for i in range(20000):
        s += (i * i) % 7 + t[i % 3]
    return s


class Speed:
    """Calibration samples taken through a run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _calibration_loop()
            times.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(times))

    def factor(self) -> float:
        """Reference time over the mean of the last CALIBRATION_WINDOW
        samples: below 1 on a slow stretch."""
        return CALIBRATION_REF_S / statistics.fmean(self.samples[-CALIBRATION_WINDOW:])


def _spawn_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(args: list[str], env: dict) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    dt = time.perf_counter() - t0
    if proc.returncode:
        sys.exit(f"error: {args} exited {proc.returncode}: {proc.stderr[-500:]}")
    return dt, proc.stderr


def setup_seconds() -> tuple[float, float]:
    """Median wall times for a fresh interpreter to import ortho3 and its CLI
    (bytecode caches warm, as for every CLI call after the first), and for a
    bare interpreter, spawned alternately."""
    env = _spawn_env()
    _spawn(["-c", "import ortho3, ortho3.cli"], env)
    full, bare = [], []
    for _ in range(SETUP_SPAWNS):
        full.append(_spawn(["-c", "import ortho3, ortho3.cli"], env)[0])
        bare.append(_spawn(["-c", "pass"], env)[0])
    return statistics.median(full), statistics.median(bare)


def setup_layers() -> dict:
    """Interpreter start alone, and each ortho3 module's own import time."""
    env = _spawn_env()
    bare = statistics.median(_spawn(["-c", "pass"], env)[0] for _ in range(SETUP_SPAWNS))
    per_module: dict = {m: [] for m in MODULES}
    for _ in range(IMPORT_SPAWNS):
        _, err = _spawn(["-X", "importtime", "-c", "import ortho3, ortho3.cli"], env)
        seen = {}
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            name = fields[2].strip()
            if name in per_module and fields[0].strip().isdigit():
                seen[name] = int(fields[0]) / 1e3
        for m in MODULES:
            per_module[m].append(seen.get(m, 0.0))
    out = {f"import.{m}.self_ms": statistics.median(v) for m, v in per_module.items()}
    out["setup.bare_interpreter_s"] = bare
    return out


class Tally:
    """Outcomes of attempted items."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.latencies = array("d")  # scaled seconds per correct item
        self.busy = 0.0  # raw seconds over all attempted items
        self.scaled_busy = 0.0
        self.failures: dict = {}

    def record(self, item, elapsed: float, out, error, scale: float = 1.0) -> None:
        import oracle
        import workloads

        self.attempted += 1
        self.busy += elapsed
        self.scaled_busy += elapsed * scale
        if error is not None:
            self.failed += 1
            key = f"{item.category}: {type(error).__name__}"
            self.failures[key] = self.failures.get(key, 0) + 1
            return
        try:
            item.check(out)
        except workloads.WrongExitCode as e:
            self.failed += 1
            key = f"{item.category}: {e}"
            self.failures[key] = self.failures.get(key, 0) + 1
            return
        except (oracle.Mismatch, ValueError, KeyError, TypeError, ArithmeticError) as e:
            self.wrong.append(f"{item.category} {item.spec[:300]}: {type(e).__name__}: {e}")
            return
        self.latencies.append(elapsed * scale)


def _run_item(item):
    t0 = time.perf_counter()
    try:
        out = item.run()
    except Exception as e:  # a raised item is a failed item, not a crash
        return time.perf_counter() - t0, None, e
    return time.perf_counter() - t0, out, None


def timed_run(name: str, seed: int, seconds: float, speed: Speed) -> Tally:
    import workloads

    for item in workloads.build(name, seed, -1)[:3]:  # warm-up, untimed
        _run_item(item)
    tally = Tally()
    cycle = 0
    speed.sample()
    scale = speed.factor()
    next_sample = CALIBRATION_EVERY_S
    while tally.busy < seconds or tally.attempted < MIN_ITEMS:
        for item in workloads.build(name, seed, cycle):
            tally.record(item, *_run_item(item), scale)
            if tally.busy >= next_sample:
                speed.sample()
                scale = speed.factor()
                next_sample = tally.busy + CALIBRATION_EVERY_S
        cycle += 1
    return tally


def trace_items(items) -> tuple:
    """Run items once with every layer wrapped; outputs are checked later,
    after the wrappers are gone, so checking adds no counts."""
    import spans

    tracer = spans.Tracer()
    outputs, depths = [], []
    tracer.install()
    try:
        missing = tracer.unwrapped_bindings()
        t0 = time.perf_counter()
        for item in items:
            tracer.item_depth = 0
            outputs.append(_run_item(item))
            depths.append(tracer.item_depth)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    if missing:
        sys.exit(f"error: trace wrappers missed {missing}")
    return tracer, outputs, depths, traced_s


def traced_run(name: str, seed: int) -> tuple[Tally, dict]:
    import workloads

    items = workloads.build(name, seed, 0)
    for item in items[:3]:  # warm-up, untimed
        _run_item(item)
    untraced = Tally()
    for item in items:
        untraced.record(item, *_run_item(item))
    tracer, outputs, depths, traced_s = trace_items(items)
    tally = Tally()
    tally.wrong = untraced.wrong
    for item, result in zip(items, outputs):
        tally.record(item, *result)
    idle = [layer for layer in DRIVEN[name] if not tracer.layer_calls().get(layer)]
    if idle:
        sys.exit(f"error: {name} drives {idle} but the trace counted no calls there")
    metrics = tracer.metrics(len(items), depths)
    metrics["trace.overhead_frac"] = traced_s / untraced.busy - 1.0
    metrics.update(setup_layers())
    return tally, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_ortho3()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    units: dict = {}
    if args.trace:
        tally, metrics = traced_run(args.workload, args.seed)
        units = {k: _per_layer_unit(k) for k in metrics}
    else:
        setup, bare = setup_seconds()
        tally = timed_run(args.workload, args.seed, args.seconds, Speed())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(tally.latencies) < 2:
            sys.exit("error: fewer than two correct items; no latency figures")
        deciles = statistics.quantiles(tally.latencies, n=10)
        metrics = {
            "items_per_s": len(tally.latencies) / tally.scaled_busy,
            "latency_p50_ms": 1e3 * deciles[4],
            "latency_p90_ms": 1e3 * deciles[8],
            "ok_frac": len(tally.latencies) / tally.attempted,
            "setup_s": setup,
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"# raw wall clock: items_per_s {len(tally.latencies) / tally.busy:.6g} "
              f"(mean scale {tally.scaled_busy / tally.busy:.4f}); "
              f"setup_s {setup:.6g} beside a bare interpreter's {bare:.6g} s")
        units = {"items_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                 "ok_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB"}
    report(args, tally, metrics, units)
    correct = not tally.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def _per_layer_unit(name: str) -> str:
    if name.endswith(("_ms_per_item", ".self_ms")):
        return "ms"
    if ".mean_us." in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("max_bits"):
        return "bits"
    if name.endswith(("calls_per_item", "ops_per_item")):
        return "count"
    return "ratio"


def report(args, tally: Tally, metrics: dict, units: dict) -> None:
    """Human-readable lines before the JSON result."""
    import workloads

    n = len(tally.latencies)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} attempted, {tally.failed} failed, {len(tally.wrong)} wrong")
    if not args.trace:
        print(f"#   fail_frac {tally.failed / tally.attempted:.6f} "
              f"(recorded sibling_tower share "
              f"{workloads.describe(workloads.build(args.workload, args.seed))['shares']['sibling_tower']})")
    for key, count in sorted(tally.failures.items()):
        print(f"#   failed: {key} x{count}")
    for line in tally.wrong[:20]:
        print(f"#   WRONG: {line}")
    for k, v in metrics.items():
        samples = f"  (n={n})" if k.startswith("latency_") or k == "items_per_s" else ""
        print(f"#   {k} = {v:.6g} {units[k]}{samples}")


if __name__ == "__main__":
    sys.exit(main())
