"""hscube benchmark: seeded workloads, end-to-end metrics, traced layer split.

Run from the repository root:

    python3 perfbench/run.py --workload filter2d --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # every workload, seeds 7 and 11

One process runs one workload as a closed loop: a set-up and a timed pass,
again and again, each pass starting when the previous one has ended, until
``--seconds`` is used up.  With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when an output check fails.  BLAS thread variables are recorded
as found and never set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("filter2d", "cube-cli", "sweep-baselines")
SETUP_REPEATS = 5
CHECK_SEED = 11  # --workload all also runs this seed, to confirm a gain on unseen inputs
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "HSCUBE_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=7, help="input seed")
    p.add_argument("--seconds", type=float, default=35.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 reports the per-layer metrics from a traced run")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input for the self-tests")
    p.add_argument("--inject-failure", action="store_true",
                   help="make one operation of the first pass fail (self-test)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "git": git_revision(),
    }


# ---------------------------------------------------------------------------
# one workload


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def finite_or_none(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


class Tally:
    """Operations attempted and failed, and every problem seen, over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def add(self, outcome, label="", same_inputs=True):
        """Count one pass; passes on the same inputs must give one output."""
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += [f"{label}{p}" for p in outcome.problems]
        if same_inputs and not outcome.failed:
            self.digests.add(outcome.digest)

    def require_one_output(self, what: str):
        if len(self.digests) > 1:
            self.problems.append(f"outputs differ between {what}")


def import_seconds() -> float:
    """Time to import the program in a fresh interpreter, as every user
    process pays it once.  numpy is imported before the clock starts: the
    program cannot change its cost, which varied by 40% between otherwise
    identical runs on a 2-vCPU virtual machine."""
    code = (f"import sys, time, numpy; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "t = time.perf_counter(); import hscube, hscube.cli, hscube.evaluate; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout)


def measure(wl, args, workloads, tally: Tally) -> dict:
    """End-to-end metrics, tracing off.  Set-up (import included) is repeated
    before every pass, and at least SETUP_REPEATS times, so that its samples
    spread over the run as the passes do."""
    imports, setups = [], []

    def set_up():
        imports.append(import_seconds())
        workloads.clear_lazy_state()
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)

    walls, cpus, steps, last = [], [], [], None
    start = time.perf_counter()
    while True:
        step = time.perf_counter()
        set_up()
        inject = args.inject_failure and not walls
        c0, t0 = time.process_time(), time.perf_counter()
        result = wl.run(inject_failure=inject)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        outcome = wl.check(result)
        tally.add(outcome, f"pass {len(walls)}: ")
        if not outcome.failed:
            last = outcome
        steps.append(time.perf_counter() - step)
        if time.perf_counter() - start + statistics.median(steps) > args.seconds:
            break
    while len(setups) < SETUP_REPEATS:
        set_up()
    tally.require_one_output("passes")

    print(f"passes: {len(walls)}; wall_s " + " ".join(f"{w:.3f}" for w in walls) + "; "
          f"set-ups: {len(setups)}, median {statistics.median(setups):.4f} s + import "
          f"{statistics.median(imports):.4f} s")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb(),
        "rrmse_phase": finite_or_none(last.rrmse_phase) if last else None,
        "rrmse_amp": finite_or_none(last.rrmse_amp) if last else None,
        "success_rate": 1.0 - tally.failed / max(1, tally.attempted),
    }


def traced(wl, args, workloads, tracing, tally: Tally) -> dict:
    """Per-layer metrics: one traced set-up, a traced pass at each extra
    image size (for the growth ratio), untraced/traced pass pairs until the
    time is up (the first traced pass is the one reported), and an untraced
    one-thread pass (for the scaling ratio)."""
    total = tracing.Tracer()
    workloads.clear_lazy_state()
    with tracing.Installed(total):
        wl.setup(large=True)

    start = time.perf_counter()
    large = {}
    extra = [s for s in wl.geom.get("large_sides", []) if s not in wl.geom["sides"]]
    for side in extra:
        tracer = tracing.Tracer()
        with tracing.Installed(tracer):
            result = wl.run(sides=[side])
        tally.add(wl.check(result), f"{side}^2: ", same_inputs=False)
        total.merge(tracer)
        large[side] = tracing.layer_metrics(tracer)
        print(f"traced {side}^2 pass: " + ", ".join(
            f"{k} {v:.4f}" for k, v in sorted(large[side].items()) if k.endswith("_s") and v))

    plain, with_trace, first = [], [], None
    while True:
        t0 = time.perf_counter()
        result = wl.run(inject_failure=args.inject_failure and not plain)
        plain.append(time.perf_counter() - t0)
        tally.add(wl.check(result), "untraced: ")

        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        with tracing.Installed(tracer):
            result = wl.run()
        with_trace.append(time.perf_counter() - t0)
        tally.add(wl.check(result), "traced: ")
        first = first or tracer
        if time.perf_counter() - start + plain[-1] + with_trace[-1] > args.seconds:
            break
    total.merge(first)
    tally.require_one_output("traced and untraced passes")

    growth = 0.0
    if large:
        base = tracing.layer_metrics(first)["cdbm3d.match_s"]
        top = large[max(large)]["cdbm3d.match_s"]
        growth = top / base if base and top is not None else None

    scaling = 0.0
    if wl.uses_pool:
        t0 = time.perf_counter()
        result = wl.run(threads=1)
        scaling = (time.perf_counter() - t0) / statistics.median(plain)
        outcome = wl.check(result)
        if not outcome.failed and outcome.digest not in tally.digests:
            tally.problems.append("threads=1 output differs from the default thread count")
        tally.add(outcome, "threads=1: ")

    metrics = tracing.layer_metrics(total)
    metrics["cdbm3d.match_growth"] = growth
    metrics["parallel.scaling_2v1"] = scaling
    metrics["trace.overhead_s"] = statistics.median(with_trace) - statistics.median(plain)
    print(f"traced pairs: {len(plain)}; untraced median {statistics.median(plain):.4f} s, "
          f"traced median {statistics.median(with_trace):.4f} s")
    return metrics


def declared_units(section: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def run_one(args) -> int:
    if not (ROOT / "src" / "hscube" / "__init__.py").is_file():
        print(f"error: no hscube sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    import workloads

    units = declared_units("per_layer" if args.trace else "end_to_end")
    print("env " + json.dumps(environment(), sort_keys=True))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size, str(workdir))
        if args.trace:
            values = traced(wl, args, workloads, tracing, tally)
        else:
            values = measure(wl, args, workloads, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not tally.problems and tally.failed == 0
    print(f"error_rate: {tally.failed}/{tally.attempted}")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload, on the seed and the check seed


def run_all(args) -> int:
    rows, ok, attempted, failed = [], True, 0, 0
    for seed in dict.fromkeys((args.seed, CHECK_SEED)):
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{name} seed {seed}: no result (exit {proc.returncode})")
                ok = False
                continue
            ok &= proc.returncode == 0 and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                rows.append((name, seed, metric, entry["value"], entry["unit"]))
    print(f"{'workload':16} {'seed':>5} {'metric':32} {'value':>14} unit")
    for name, seed, metric, value, unit in rows:
        shown = f"{value:14.6g}" if isinstance(value, (int, float)) else f"{value!s:>14}"
        print(f"{name:16} {seed:5d} {metric:32} {shown} {unit}")
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {f"{n}.seed{s}.{m}": {"value": v, "unit": u} for n, s, m, v, u in rows},
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
