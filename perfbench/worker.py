"""One timed pass of a workload, in a fresh interpreter.

Started by ``run.py`` once per pass, so every pass pays what a command-line
user pays: interpreter start, ``import cosphere`` (sympy, scipy.linalg) and
fixture or spec loading, all counted as set-up.  The process-wide caches
therefore start each pass in the same state: ``torus._stabilizer_cached``
is empty when the timed region starts, and the fixture constructors'
caches were filled by the set-up's ``get_fixture`` calls.

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR SPAWN_MONOTONIC TRACE

Writes ``WORKDIR/result.json`` (timings plus the program's outputs, which
``run.py`` checks) and, when tracing, ``WORKDIR/spans.json``.
"""

from __future__ import annotations

import os

# single-threaded BLAS, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

FIXTURES = ("s1-on-r2", "t2-on-r4")
CAL_EDGE_RUNS = 5      # reference-kernel runs before and after the timed calls
PROBE_EVERY_S = 0.25   # seconds between reference-kernel runs during them
VERIFY_COUNT = 10000   # acceptance 4: samples in each generic probe
FLOW_STARTS = 1000     # acceptance 5: Reeb starts per fixture


def _battery(run, fixture) -> dict:
    """One battery report; an exception is recorded as the report's error."""
    try:
        return run(fixture)
    except Exception as exc:  # the pass goes on; run.py counts the failed operation
        return {"fixture": fixture.name, "error": f"{type(exc).__name__}: {exc}"}


def _quiet_cli(cli, argv: list[str]) -> tuple[int | None, str, str]:
    """``cosphere ARGV`` in process; returns (exit code, stdout, stderr).

    An exception escaping ``cli.main`` gives exit code None and its message.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # the pass goes on; run.py counts the failed operation
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
    return code, out.getvalue(), err.getvalue()


def _timed_calls(workload, seed, workdir, loaded, specs, outputs):
    """The workload's calls into cosphere, one per step; each records its output."""
    from cosphere import checks, cli  # imported during set-up

    if workload == "verify":
        outputs["reports"] = []
        for fx in loaded:
            outputs["reports"].append(_battery(
                lambda f: checks.verify_fixture(f, seed=seed, count=VERIFY_COUNT), fx))
            yield True
    elif workload == "flow":
        outputs["reports"] = []
        for fx in loaded:
            outputs["reports"].append(_battery(
                lambda f: checks.flow_checks(f, seed=seed, starts=FLOW_STARTS), fx))
            yield True
        outputs["exports"] = []
        for name in FIXTURES:
            csv_path = workdir / f"{name}.csv"
            code, out, err = _quiet_cli(
                cli, ["flow", "--fixture", name, "--seed", str(seed), "--out", str(csv_path)]
            )
            outputs["exports"].append(
                {"fixture": name, "exit": code, "stdout": out, "stderr": err,
                 "csv": str(csv_path)}
            )
            yield True
    else:
        outputs["specs"] = []
        for spec in specs:
            report = workdir / f"{spec['id']}.json"
            code, _, err = _quiet_cli(
                cli, ["reduce", "--action", spec["path"], "--out", str(report)]
            )
            outputs["specs"].append({"id": spec["id"], "exit": code, "stderr": err,
                                     "report": str(report)})
            yield True


def reference_s() -> float:
    """CPU seconds of one run of a fixed reference kernel.

    A mix of the kinds of work the workloads do: an integer loop, many
    numpy calls on tiny arrays, a few on mid-sized ones, and building and
    sorting small Python objects.  About 10 ms on a 2-vCPU Intel Xeon host.
    """
    start = time.process_time()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    v, m = np.ones(4), np.eye(4)
    for _ in range(300):
        v = m @ v
        v = v / np.linalg.norm(v)
    a = np.arange(20_000.0)
    for _ in range(10):
        a = np.sqrt(a * a + 1.0)
    table = {(i % 97, i % 89): [i, str(i)] for i in range(3_000)}
    sorted(table.items())
    return time.process_time() - start


class SpeedProbe:
    """Runs :func:`reference_s` every ``every_s`` seconds while active.

    A ``SIGALRM`` interval timer interrupts the timed calls, so the kernel
    samples the host's speed while cosphere runs, not only between calls.
    (A ``SIGPROF`` CPU-time timer would do as well, but while one is armed
    the process CPU clock only advances in 4 ms ticks.)
    ``spent_s`` and ``spent_wall_s`` add up the time the kernel took, which
    the caller takes out of the calls' times.
    """

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.spent_wall_s = 0.0

    def _tick(self, signum, frame) -> None:
        wall = time.perf_counter()
        took = reference_s()
        self.samples.append(took)
        self.spent_s += took
        self.spent_wall_s += time.perf_counter() - wall

    def __enter__(self) -> "SpeedProbe":
        if self.every_s > 0:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _cpu_s() -> float:
    """CPU seconds (user + system) this process has used since it started."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    workload, seed, workdir, spawned, trace = sys.argv[1:6]
    seed, workdir, trace = int(seed), Path(workdir), trace == "1"

    if workload not in ("verify", "flow", "lattice"):
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    import cosphere
    from cosphere import checks, cli, fixtures  # noqa: F401  (the timed calls use them)

    if Path(cosphere.__file__).resolve().parent != ROOT / "src" / "cosphere":
        print(f"imported cosphere from {cosphere.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    loaded = [fixtures.get_fixture(name) for name in FIXTURES]
    specs = json.loads((workdir.parent / "specs.json").read_text()) \
        if workload == "lattice" else []
    setup_wall_s = time.monotonic() - float(spawned)
    setup_s = _cpu_s()

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outputs: dict = {"count": VERIFY_COUNT, "starts": FLOW_STARTS}
    calls = _timed_calls(workload, seed, workdir, loaded, specs, outputs)
    # The host's speed drifts by tens of percent over seconds to minutes, so
    # a fixed reference kernel runs before and after the timed calls and,
    # in untraced passes, every PROBE_EVERY_S seconds during them;
    # run.py scales the pass's CPU times by the speed it shows.  Traced
    # passes sample only before and after, so that span times hold no
    # kernel runs.
    before = [reference_s() for _ in range(CAL_EDGE_RUNS)]
    call_s: list[float] = []
    call_wall_s: list[float] = []
    with SpeedProbe(0.0 if trace else PROBE_EVERY_S) as probe:
        while True:
            t0, w0 = time.process_time(), time.perf_counter()
            spent, spent_wall = probe.spent_s, probe.spent_wall_s
            if next(calls, None) is None:
                break
            call_s.append(time.process_time() - t0 - (probe.spent_s - spent))
            call_wall_s.append(time.perf_counter() - w0 - (probe.spent_wall_s - spent_wall))
    after = [reference_s() for _ in range(CAL_EDGE_RUNS)]
    reference = before + probe.samples + after
    run_s = sum(call_s)

    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "run_s": run_s,
        "wall_run_s": sum(call_wall_s),
        "call_s": call_s,
        "reference_s": reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(run_s)
        written = [Path(e["csv"]) for e in outputs.get("exports", ())] + \
            [Path(s["report"]) for s in outputs.get("specs", ())]
        written = [p for p in written if p.is_file()]
        layers["cli.bytes_out"] = sum(p.stat().st_size for p in written)
        layers["cli.rows"] = sum(
            p.read_text().count("\n") - 1 for p in written if p.suffix == ".csv"
        )
        result["layers"] = layers
        tracer.write(workdir / "spans.json")
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
