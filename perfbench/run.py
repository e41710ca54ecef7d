"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch-validate-repair --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload online-small --seed 1 --seconds 15 --trace 1

The workloads, the metrics and the run length are those listed in
``BENCHMARK.json`` at the repository root. ``--seed`` makes every input
(clean and dirty tables, request bodies, the stream file); the system
under test only sees those inputs. ``--trace 0`` measures the end-to-end
metrics with nothing traced; ``--trace 1`` runs the same workload with
spans around the calls into each layer and reports the per-layer
metrics instead. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (name → value and
unit). The line before it records the environment (nproc, BLAS, Python
and NumPy versions) and workload details such as sample counts.

BLAS runs single-threaded in the benchmark and in every server it
starts, so processes sharing the CPUs do not oversubscribe them.

Scratch files (archives, rule files, frame files, server logs) go to
``.perfbench/`` under the repository root and are removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: a run that has not finished by now is aborted (the limit is 180 s)
RUN_DEADLINE_S = 170

#: set before NumPy loads, here and in every spawned server
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

#: the module that runs each workload named in BENCHMARK.json
WORKLOAD_MODULES = {
    "batch-validate-repair": "perfbench.batch",
    "online-small": "perfbench.online",
    "fleet-stream": "perfbench.fleet",
}


@dataclass
class RunContext:
    seed: int
    seconds: float
    trace: bool
    root: Path
    work: Path

    def server_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["TMPDIR"] = str(self.work / "tmp")
        env["REPRO_NO_DISK_CACHE"] = "1"
        env.update(BLAS_THREADS)
        return env


class _Stopped(Exception):
    pass


def _stop(signum, frame):
    # Raising unwinds through every ``finally``, which stops the servers.
    raise _Stopped(f"stopped by signal {signum} (deadline {RUN_DEADLINE_S} s)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in definition["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro sources are missing ({SRC}); run from a repository checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path[:0] = [str(ROOT), str(SRC)]
    os.environ["REPRO_NO_DISK_CACHE"] = "1"

    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    ctx = RunContext(
        seed=args.seed,
        seconds=float(args.seconds if args.seconds is not None else definition["run_seconds"]),
        trace=bool(args.trace),
        root=ROOT,
        work=work,
    )
    for signum in (signal.SIGALRM, signal.SIGTERM):
        signal.signal(signum, _stop)
    signal.alarm(RUN_DEADLINE_S)
    try:
        return _run(ctx, args.workload, definition["per_layer" if ctx.trace else "end_to_end"])
    finally:
        signal.alarm(0)
        from perfbench.common import stop_children

        stop_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's scratch is still there


def _run(ctx: RunContext, workload: str, listed: list) -> int:
    import importlib

    from perfbench.checks import OutputMismatch
    from perfbench.common import environment_record

    module = importlib.import_module(WORKLOAD_MODULES[workload])
    record = {"workload": workload, "seed": ctx.seed, "seconds": ctx.seconds,
              "trace": int(ctx.trace), "environment": environment_record()}
    try:
        result = module.run(ctx)
    except OutputMismatch as exc:
        record["error"] = str(exc)
        print(json.dumps(record))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    measured = result["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in listed})
    if unknown:
        raise KeyError(f"workload reported metrics BENCHMARK.json does not list: {unknown}")
    # A layer this workload never runs did no work: it reports 0.
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in listed
    }
    if not ctx.trace:
        missing = [m["name"] for m in listed if m["name"] not in measured]
        if missing:
            raise KeyError(f"workload did not measure end-to-end metrics {missing}")
    record.update(result.get("record", {}))
    print(json.dumps(record, default=float))
    print(json.dumps({
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
