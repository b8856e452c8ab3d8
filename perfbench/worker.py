"""Benchmark worker: imports the package, then runs passes on the client's command.

Protocol, one JSON object per line on stdout:
  start-up          -> {"ready": true} once the package is imported and the
                       calls are enumerated (the client times this as set-up)
  stdin "pass 0|1"  -> {"wall_s", "cpu_s", "ops", "metrics"}: one pass over
                       every call, traced when the argument is 1
  stdin "exit"      -> {"peak_rss_mb"}, then the worker exits

Usage: python3 perfbench/worker.py --workload NAME --seed N --workdir DIR [--spans PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _import_package():
    """Import cayley_cliques from this checkout's source tree and nowhere else."""
    sys.path.insert(0, str(SRC))
    import cayley_cliques.cli

    if not Path(cayley_cliques.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"cayley_cliques was imported from {cayley_cliques.__file__}, not {SRC}")
    return cayley_cliques.cli


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Worker:
    def __init__(self, workload: str, seed: int, workdir: Path, spans_path: Path | None):
        self.cli = _import_package()
        self.argvs = workloads.calls(workload, seed)
        self.workdir = workdir
        self.spans_path = spans_path

    def run_pass(self, traced: bool) -> dict:
        self.workdir.mkdir(parents=True, exist_ok=True)
        argvs = []
        for i, argv in enumerate(self.argvs):
            argvs.append([str(self.workdir / f"call{i}.jsonl") if a is None else a for a in argv])

        tracer = None
        if traced:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        results = []
        try:
            cpu0 = _cpu_s()
            t0 = time.perf_counter()
            for i, argv in enumerate(argvs):
                if tracer is not None:
                    tracer.run_id = i
                results.append(self._call(argv))
            wall = time.perf_counter() - t0
            cpu = _cpu_s() - cpu0
        finally:
            if tracer is not None:
                tracer.uninstall()

        ops: dict[str, dict] = {}
        for argv, (rc, stdout, error) in zip(argvs, results):
            ops.update(self._operations(argv, rc, stdout, error))
        shutil.rmtree(self.workdir)

        metrics = {}
        if tracer is not None:
            metrics = tracer.metrics()
            if self.spans_path is not None:
                self.spans_path.parent.mkdir(parents=True, exist_ok=True)
                tracer.save(self.spans_path)
        return {"wall_s": wall, "cpu_s": cpu, "ops": ops, "metrics": metrics}

    def _call(self, argv: list[str]) -> tuple[int | None, str, str | None]:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
        except Exception as exc:  # an operation that raised is a failed operation
            return None, buf.getvalue(), repr(exc)
        return rc, buf.getvalue(), None

    def _operations(self, argv, rc, stdout, error) -> dict[str, dict]:
        if error is not None:
            return {workloads.call_key(argv): {"rc": None, "error": error}}
        if argv[0] != "sweep":
            return {workloads.call_key(argv): {"rc": rc, "json": stdout}}
        out = Path(argv[argv.index("--out") + 1])
        if not out.exists():
            return {workloads.call_key(argv): {"rc": rc, "error": "no output written"}}
        return workloads.sweep_operations(rc, out.read_text(), out.with_suffix(".csv").read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    proto = sys.stdout
    worker = Worker(args.workload, args.seed, args.workdir, args.spans)
    proto.write(json.dumps({"ready": True}) + "\n")
    proto.flush()
    for line in sys.stdin:
        cmd = line.split()
        if cmd[:1] == ["pass"]:
            reply = worker.run_pass(traced=cmd[1] == "1")
        elif cmd == ["exit"]:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            proto.write(json.dumps({"peak_rss_mb": rss}) + "\n")
            proto.flush()
            return 0
        else:
            raise ValueError(f"unknown command {line!r}")
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    return 1  # the client went away without saying exit


if __name__ == "__main__":
    sys.exit(main())
