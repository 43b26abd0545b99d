"""cosphere benchmark: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload {verify,lattice,flow} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.

Workloads (one client, closed loop, single-threaded, one pass at a time):

* ``verify``  -- ``checks.verify_fixture`` on both builtin fixtures at the
  acceptance-4 size (10^4 generic samples, every forced-support probe).
  Zero-level sampling, invariants, classification and membership.
* ``lattice`` -- ``cosphere reduce --action SPEC --out REPORT`` (in-process
  ``cli.main``) over a seeded ladder of random weight matrices (|a| <= 5)
  from k=1 up to k=3, n=7, plus stored reference matrices per rung.
  Exact HNF, closure, frontier and Hasse; no floating point.  Most k=3,
  n=7 specs have more than ``MAX_TYPES`` = 64 orbit types and are refused
  with exit 2; they stay in the ladder and count as refusals.
* ``flow``    -- ``checks.flow_checks`` on both fixtures (acceptance 5) and
  ``cosphere flow --fixture F --seed N --out CSV`` for each fixture.

Each pass runs in a fresh interpreter (``worker.py``), so set-up
(``setup_s``) is what a command-line user pays and every pass starts with
the same cache state.  Passes repeat while the next one would end within
``--seconds`` (at least three run); the reported figures are medians over
passes.  Times are CPU seconds of the pass's process, scaled by the host's
speed as measured by a reference kernel run between the timed calls (see
``REFERENCE_S``).  With
``--trace 1`` untraced and traced passes alternate, and the metrics are the
per-layer figures of the median traced pass plus the tracing overhead.

Inputs come only from the seed.  The spec files are written to a work
directory in the checkout before any pass starts and removed at the end;
traced runs leave their spans in ``.perfbench-out/``.

The last line of stdout is the JSON result; the exit code is 1 when any
output fails its correctness check, 2 when the checkout has no package to
run, 3 when a pass crashes or times out (no result is printed then).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
TIME_LIMIT_S = 150.0     # start no pass that would end after this
PASS_TIMEOUT_S = 170.0
VERIFY_BUDGET_S = 10.0   # acceptance 4's time budget, for the headroom figure
# About the CPU seconds of worker.reference_s on the 2-vCPU Intel Xeon host where
# the benchmark was defined.  A pass's times are scaled by REFERENCE_S over the
# median of its own reference runs, so that they read as on that host at the
# speed it had then; the unscaled CPU and wall times are printed too.
REFERENCE_S = 0.010

# (k, n, seeded random specs) per rung.  Each rung also runs its stored
# reference specs (lattice_golden.json): one per rung, and at k=3, n=7 one
# over the orbit-type cap and one exactly at it (64 types, 599 pieces), so
# that every pass has both a refusal and the largest report.
LADDER = (
    (1, 4, 3), (1, 6, 3), (1, 8, 3), (2, 4, 3), (2, 6, 3),
    (2, 8, 3), (3, 5, 3), (3, 6, 4), (3, 7, 3),
)
MAX_ABS_WEIGHT = 5
CACHE_STATE = ("fresh interpreter per pass: stabilizer LRU cache empty, "
               "fixture caches filled during set-up")


def random_weights(rng: random.Random, k: int, n: int) -> list[list[int]]:
    """A k x n weight matrix with entries in [-5, 5] and no zero column."""
    while True:
        w = [[rng.randint(-MAX_ABS_WEIGHT, MAX_ABS_WEIGHT) for _ in range(n)]
             for _ in range(k)]
        if all(any(row[j] for row in w) for j in range(n)):
            return w


def lattice_specs(seed: int, workdir: Path) -> list[dict]:
    """The seeded ladder; writes one action-spec file per spec and the list."""
    golden = json.loads((HERE / "lattice_golden.json").read_text())
    rng = random.Random(seed)
    specs = []
    for k, n, count in LADDER:
        refs = [g for g in golden if g["k"] == k and g["n"] == n]
        for i, ref in enumerate(refs):
            specs.append({"id": f"k{k}n{n}-ref{i}", "weights": ref["weights"],
                          "digest": ref["digest"]})
        for i in range(count):
            specs.append({"id": f"k{k}n{n}-{i}", "weights": random_weights(rng, k, n)})
    for spec in specs:
        path = workdir / f"spec-{spec['id']}.json"
        k, n = len(spec["weights"]), len(spec["weights"][0])
        path.write_text(json.dumps({"k": k, "n": n, "weights": spec["weights"]}))
        spec["path"] = str(path)
    (workdir / "specs.json").write_text(json.dumps(specs))
    return specs


def run_pass(workload: str, seed: int, pass_dir: Path, traced: bool) -> dict:
    pass_dir.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(pass_dir),
         repr(spawned), "1" if traced else "0"],
        capture_output=True, text=True, env=env, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads((pass_dir / "result.json").read_text())
    result["dir"] = pass_dir
    return result


def check_pass(workload: str, result: dict, specs: list[dict]) -> verdict.Tally:
    outputs = result["outputs"]
    if workload == "verify":
        return verdict.check_verify(outputs)
    if workload == "flow":
        return verdict.check_flow(outputs)
    return verdict.check_lattice(outputs, specs)


def median_index(values: list[float]) -> int:
    """Index of the (lower) median value."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
           "python": platform.python_version()}
    for lib in ("numpy", "scipy", "sympy"):
        try:
            env[lib] = importlib.metadata.version(lib)
        except importlib.metadata.PackageNotFoundError:
            env[lib] = None
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "lattice", "flow"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills its worker and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "cosphere" / "__init__.py").is_file():
        print(f"no cosphere package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    started = time.monotonic()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        specs = lattice_specs(args.seed, workdir) if args.workload == "lattice" else []

        plain: list[dict] = []
        traced: list[dict] = []
        totals = verdict.Tally()
        index = 0
        rounds: list[float] = []   # wall seconds of each round of passes
        while True:
            elapsed = time.monotonic() - started
            enough = (len(traced) >= MIN_TRACED_PASSES if args.trace
                      else len(plain) >= MIN_PASSES)
            # start no round that would end after the time limit, nor, once
            # there are enough passes, after --seconds
            if rounds and (elapsed + max(rounds) > TIME_LIMIT_S
                           or (enough and elapsed + statistics.median(rounds)
                               > args.seconds)):
                break
            round_start = time.monotonic()
            for tracing in ((False, True) if args.trace else (False,)):
                result = run_pass(args.workload, args.seed, workdir / f"pass-{index}",
                                  tracing)
                tally = check_pass(args.workload, result, specs)
                result["tally"] = tally
                totals.merge(tally)
                (traced if tracing else plain).append(result)
                if not tracing:
                    shutil.rmtree(result["dir"])
                index += 1
            rounds.append(time.monotonic() - round_start)

        metrics, report = summarize(args, plain, traced, totals)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"pass failed to run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark produced no value for {missing}", file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)} traced_passes={len(traced)}")
    for name, (value, unit) in report.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    print("  run_s of each pass (untraced, then traced) "
          + " ".join(f"{r['run_s'] * r['scale']:.3f}" for r in plain + traced))
    print("env " + json.dumps(dict(environment(), cache_state=CACHE_STATE)))
    for problem in list(dict.fromkeys(totals.problems))[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = totals.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


def summarize(args, plain, traced, totals):
    """(metrics for the JSON line, readable figures by name with unit)."""
    med = statistics.median
    for r in plain + traced:
        r["scale"] = REFERENCE_S / med(r["reference_s"])
    run_s = med(r["run_s"] * r["scale"] for r in plain)
    items_per_s = med(r["tally"].items / (r["run_s"] * r["scale"]) for r in plain)
    failed_ratio = (totals.failed + totals.refused) / totals.attempted
    metrics = {
        "setup_s": med(r["setup_s"] * r["scale"] for r in plain),
        "run_s": run_s,
        "items_per_s": items_per_s,
        "completed_ratio": 1.0 - failed_ratio,
        "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
    }
    item_name = {"verify": "samples_per_s", "lattice": "specs_per_s",
                 "flow": "starts_per_s"}[args.workload]
    report = {
        "setup_s": (metrics["setup_s"], "s"),
        "run_s": (run_s, "s"),
        item_name: (items_per_s, "1/s"),
        "failed_ratio": (failed_ratio, "ratio"),
        "refused": (totals.refused, "count"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
        "cpu_setup_s (unscaled)": (med(r["setup_s"] for r in plain), "s"),
        "cpu_run_s (unscaled)": (med(r["run_s"] for r in plain), "s"),
        "wall_setup_s": (med(r["setup_wall_s"] for r in plain), "s"),
        "wall_run_s": (med(r["wall_run_s"] for r in plain), "s"),
        "host_speed": (med(r["scale"] for r in plain), "ratio"),
    }
    if args.workload == "lattice":
        # pooled over passes, so that at least ten latencies lie above p90
        latencies = [s * r["scale"] * 1e3 for r in plain for s in r["call_s"]]
        deciles = statistics.quantiles(latencies, n=10)
        report["spec_ms_p50"] = (deciles[4], "ms")
        report["spec_ms_p90"] = (deciles[8], "ms")
        report["spec_latencies"] = (len(latencies), "count")
    if args.workload == "verify":
        report["headroom_s (budget 10 s)"] = (VERIFY_BUDGET_S - report["wall_run_s"][0], "s")
    if traced:
        chosen = traced[median_index([r["run_s"] * r["scale"] for r in traced])]
        metrics.update({name: value * chosen["scale"] if name.endswith("_s") else value
                        for name, value in chosen["layers"].items()})
        metrics["trace.run_s"] = chosen["run_s"] * chosen["scale"]
        metrics["trace.untraced_run_s"] = run_s
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - run_s
        OUT_DIR.mkdir(exist_ok=True)
        shutil.copyfile(chosen["dir"] / "spans.json",
                        OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        for name in ("trace.run_s", "trace.untraced_run_s", "trace.overhead_s"):
            report[name] = (metrics[name], "s")
    return metrics, report


if __name__ == "__main__":
    sys.exit(main())
