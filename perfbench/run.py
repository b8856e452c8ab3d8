"""Benchmark client for cayley_cliques: one closed-loop client, one worker process.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The client starts the worker
(perfbench/worker.py) several times to time set-up, then asks one worker
for whole passes over the workload, one at a time, checking every
operation of every pass against perfbench/reference/NAME.json and the
paper's facts.  It prints a human summary on stderr and, as the last line
of stdout, one JSON object with the keys correct, attempted, failed and
metrics.

--trace 0: end-to-end metrics, no wrappers installed.  Passes repeat while
           another one of the longest length seen still fits in --seconds.
--trace 1: per-layer metrics.  One untraced pass, then one traced pass;
           the spans go to .perfbench/spans-NAME-seedN.npz in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
OUT_DIR = ROOT / ".perfbench"

# Single-threaded native code, so two shared cores measure the program
# and not the scheduler.
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    """The worker died, hung or answered out of protocol."""


class WorkerProcess:
    """One worker process; set-up time runs from spawn to its ready line."""

    def __init__(self, workload: str, seed: int, spans: Path | None = None):
        env = dict(os.environ, **WORKER_ENV)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--workdir", str(OUT_DIR / f"work-{os.getpid()}")]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self._t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)
        self.setup_s = None

    def wait_ready(self) -> None:
        self._read()
        self.setup_s = time.perf_counter() - self._t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> float:
        """Stop the worker; returns its peak RSS in MB."""
        reply = self.ask("exit")
        if self.proc.wait() != 0:
            raise WorkerError(f"worker exited with code {self.proc.returncode}")
        return reply["peak_rss_mb"]

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    reference = json.loads((HERE / "reference" / f"{workload}.json").read_text())
    live: list[WorkerProcess] = []
    timed_out = threading.Event()

    def stop_all() -> None:
        timed_out.set()
        for w in live:
            if w.proc.poll() is None:
                w.proc.kill()

    setups: list[float] = []

    def spawn(spans: Path | None = None) -> WorkerProcess:
        w = WorkerProcess(workload, seed, spans)
        live.append(w)
        w.wait_ready()
        setups.append(w.setup_s)
        return w

    watchdog = threading.Timer(RUN_LIMIT_S, stop_all)
    watchdog.start()
    try:
        for _ in range(SETUP_SAMPLES - 1):
            spawn().close()
        worker = spawn(OUT_DIR / f"spans-{workload}-seed{seed}.npz" if trace else None)

        attempted = failed = 0
        passes = []
        t0 = time.perf_counter()
        for traced in ([False, True] if trace else itertools.repeat(False)):
            reply = worker.ask(f"pass {int(traced)}")
            a, f = workloads.check(workload, reply["ops"], reference)
            attempted += a
            failed += f
            passes.append(reply)
            if not trace:
                longest = max(p["wall_s"] for p in passes)
                if time.perf_counter() - t0 + longest > seconds:
                    break
        peak_rss_mb = worker.close()
    except (WorkerError, OSError, ValueError) as exc:
        if timed_out.is_set():
            raise WorkerError(f"run exceeded {RUN_LIMIT_S:.0f}s") from exc
        raise WorkerError(str(exc)) from exc
    finally:
        watchdog.cancel()
        for w in live:
            w.kill()

    walls = [p["wall_s"] for p in passes]
    if trace:
        untraced, traced_pass = passes
        metrics = dict(traced_pass["metrics"])
        metrics["trace.wall_s"] = traced_pass["wall_s"]
        metrics["trace.overhead_s"] = traced_pass["wall_s"] - untraced["wall_s"]
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
    print(f"{workload} seed={seed}: {len(passes)} passes, wall_s {walls}, "
          f"setup_s {sorted(setups)}, error_rate {failed}/{attempted}", file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "cayley_cliques" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    unit_of = {m["name"]: m["unit"] for m in declared}
    if set(unit_of) != set(result["metrics"]):
        print(f"error: measured metrics {sorted(result['metrics'])} differ from "
              f"BENCHMARK.json {sorted(unit_of)}", file=sys.stderr)
        return 1
    doc = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in result["metrics"].items()},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
