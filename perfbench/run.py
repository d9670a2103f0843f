"""conefluct benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload validate-ref --seed 1 --seconds 20 --trace 0

The run sets the workload up ``SETUP_REPS`` times in fresh processes
(``setup_s`` is their median), then runs whole passes of the workload's CLI
calls, each in a fresh process, until ``--seconds`` have passed (at least one
pass).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics instead.  The
last line of stdout is the result JSON; the line before it records the
environment, the per-pass samples and the artifact digests.

Exit code 2, with no result line, when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("validate-ref", "spectral-sweep", "mc-d3k64")
SETUP_REPS = 7
RUN_LIMIT_S = 170.0  # every run must end well within 180 s

# One BLAS/OpenMP thread per process: no workload runs more threads than it
# has processes, and mc-d3k64's two pool workers get one thread each.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    # pool workers started by another method than fork import from PYTHONPATH
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": 1,
    }


class Worker:
    """Runs ``worker.py`` roles in fresh processes under one run deadline."""

    def __init__(self, workload: str, work: Path, deadline: float, smoke: bool):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.smoke = smoke
        self.env = _child_env()
        self.count = 0

    def __call__(self, role: str, *extra: str) -> dict:
        self.count += 1
        result = self.work / f"result-{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), role, "--workload", self.workload, "--result", str(result), *extra]
        if self.smoke:
            cmd.append("--smoke")
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True
        )
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the pass and any pool workers it started
            proc.communicate()
            raise RuntimeError(f"{role} pass did not finish within the run limit")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"{role} process failed ({proc.returncode}): {err.decode(errors='replace')[-2000:]}")
        return json.loads(result.read_text(encoding="utf-8"))


def _run(args, work: Path) -> tuple[dict, dict]:
    start = time.monotonic()
    worker = Worker(args.workload, work, start + RUN_LIMIT_S, args.smoke)
    inputs = work / "inputs"
    setups = [worker("setup", "--seed", str(args.seed), "--inputs", str(inputs)) for _ in range(SETUP_REPS)]
    setup_samples = [s["setup_s"] for s in setups]
    failures = []
    if any(s["inputs"] != setups[0]["inputs"] for s in setups):
        failures.append("set-up is not deterministic: the input files differ between repetitions")

    passes = {False: [], True: []}
    measure_start = time.monotonic()
    while True:
        for traced in (False, True) if args.trace else (False,):
            outputs = work / f"out-{worker.count}"
            extra = ["--inputs", str(inputs), "--outputs", str(outputs)] + (["--trace"] if traced else [])
            passes[traced].append(worker("iterate", *extra))
            shutil.rmtree(outputs, ignore_errors=True)
        if time.monotonic() - measure_start >= args.seconds:
            break

    every = passes[False] + passes[True]
    attempted = 1 + sum(p["attempted"] for p in every)  # 1: the set-up determinism check
    failures += [f for p in every for f in p["failures"]]
    walls = [p["wall_s"] for p in passes[False]]
    if args.trace:
        traced_walls = [p["wall_s"] for p in passes[True]]
        values = {
            name: statistics.fmean(p["layers"][name] for p in passes[True])
            for name in passes[True][0]["layers"]
        }
        values["trace.wall_s"] = statistics.median(traced_walls)
        values["trace.untraced_wall_s"] = statistics.median(walls)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes[False]), "unit": "MB"},
        }
    digests = {label: call.get("digests") for label, call in every[0]["calls"].items()}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": _environment(),
        "setup_s": setup_samples,
        "passes": len(walls),
        "wall_s": walls,
        "call_wall_s": [{label: c["wall_s"] for label, c in p["calls"].items()} for p in passes[False]],
        "inputs_sha256": setups[0]["inputs"],
        "artifacts_sha256": digests,
        "artifacts_stable": all(
            {label: c.get("digests") for label, c in p["calls"].items()} == digests for p in every
        ),
        "failures": failures,
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="conefluct benchmark (one workload, one seed)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny budgets, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "conefluct" / "cli.py").is_file():
        print(f"error: no conefluct sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        info, result = _run(args, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
