"""One benchmark process: set up a workload's inputs, or run its CLI calls once.

``run.py`` starts a fresh process for every set-up and every pass, so import
cost and peak memory are those of a single CLI user.  Usage::

    python3 perfbench/worker.py setup   --workload W --seed N --inputs DIR --result FILE [--smoke]
    python3 perfbench/worker.py iterate --workload W --inputs DIR --outputs DIR --result FILE
                                        [--trace] [--smoke]

The result file is JSON; stdout belongs to the CLI under test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _digests(out: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir()) if p.is_file()
    }


def setup(args) -> dict:
    inputs = Path(args.inputs)
    t0 = time.perf_counter()
    import conefluct.cli  # noqa: F401  (users pay this import on every CLI call)
    import workloads

    workloads.make_inputs(args.workload, args.seed, inputs, smoke=args.smoke)
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "inputs": _digests(inputs)}


def iterate(args) -> dict:
    import conefluct
    import conefluct.cli as cli
    import tracing
    import workloads

    src = (ROOT / "src").resolve()
    if src not in Path(conefluct.__file__).resolve().parents:
        raise RuntimeError(f"conefluct was imported from {conefluct.__file__}, not from {src}")
    outputs = Path(args.outputs)
    plan = workloads.calls(args.workload, Path(args.inputs), outputs, smoke=args.smoke)
    recorder = tracing.Recorder()
    calls = {}
    wall = 0.0
    failures = []
    with tracing.traced(recorder) if args.trace else contextlib.nullcontext():
        for label, argv in plan:
            t = time.perf_counter()
            error = ""
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash of the program is a failed call
                code, error = -1, f" ({type(exc).__name__}: {exc})"
            elapsed = time.perf_counter() - t
            wall += elapsed
            calls[label] = {"wall_s": elapsed, "code": code, "error": error}
    result = {"wall_s": wall, "peak_rss_mb": _peak_rss_mb(), "attempted": 2 * len(plan), "calls": calls}
    # every call is two operations: the call itself and the check of its outputs
    artifact_bytes = 0
    for label, _ in plan:
        code = calls[label]["code"]
        if code != 0:
            failures.append(f"{label}: exit code {code}{calls[label]['error']}")
        out = outputs / label
        try:
            problems = workloads.check(args.workload, label, out)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"{label}: " + "; ".join(problems))
        if out.is_dir():
            calls[label]["digests"] = _digests(out)
            artifact_bytes += sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    result["failures"] = failures
    if args.trace:
        result["layers"] = tracing.layer_metrics(recorder.spans, artifact_bytes)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "iterate"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--outputs")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    result = setup(args) if args.role == "setup" else iterate(args)
    Path(args.result).write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
