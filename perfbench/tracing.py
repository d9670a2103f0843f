"""Traced runs: spans around the program's public functions, from outside.

Nothing in the program is edited.  ``traced(recorder)`` replaces each public
function listed by ``_trace_points`` with a timing wrapper in the namespace where
its caller looks it up (``cli`` imports ``stationary_measure`` by name, so
that one is wrapped in ``cli``; ``cli`` calls ``fsim.estimate_V`` through the
module, so that one is wrapped in ``fluctuation_sim``), and puts every
original back on exit.

A span records its name, start, end, parent span and the counts its counter
computes from the call's arguments and result.  Counters run after the span
has ended, so their cost is not in any span.  ``layer_metrics`` turns spans
into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

from workloads import SPECTRAL_RESOLUTIONS

MIB = float(1 << 20)

FSIM_TIMED = (
    "survival_probability",
    "estimate_V",
    "conditional_endpoint_samples",
    "mc_sigma2",
    "simulate_paths",
    "martingale_gap",
    "exit_ordering_violations",
    "covariance_decay",
)
TRANSFER_TIMED = ("stationary_measure", "dominant_eigenvalue", "solve_poisson", "lyapunov_exact")
MATRIX_LAW_TIMED = ("hypothesis_report", "estimate_lyapunov", "convolution_contraction")
MATRIX_CORE_TIMED = ("matrix_norms", "hennion_distance", "contraction_coeff")
THEOREM_TIMED = ("validate_exit_asymptotics", "validate_conditional_law", "check_V_properties")

# Per-layer metrics of a traced run, in the order they are reported.  The
# per_layer list of BENCHMARK.json is exactly this list.
PER_LAYER: list[tuple[str, str, str]] = [
    ("batch.run_chunks_s", "s", "lower"),
    ("batch.run_chunks.calls", "count", "lower"),
    ("batch.chunks", "count", "lower"),
    ("batch.pools_started", "count", "lower"),
    *[(f"fluctuation_sim.{name}_s", "s", "lower") for name in FSIM_TIMED],
    ("fluctuation_sim.self_s", "s", "lower"),
    ("fluctuation_sim.estimate_V.calls", "count", "lower"),
    ("fluctuation_sim.full_path_steps", "count", "lower"),
    ("fluctuation_sim.ns_per_full_path_step", "ns", "lower"),
    ("fluctuation_sim.killed_nominal_path_steps", "count", "lower"),
    ("fluctuation_sim.ns_per_killed_nominal_step", "ns", "lower"),
    ("fluctuation_sim.conditional_yield", "ratio", "higher"),
    ("fluctuation_sim.records_mb", "MB", "lower"),
    *[(f"transfer_operator.{name}_s.G{G}", "s", "lower") for name in TRANSFER_TIMED for G in SPECTRAL_RESOLUTIONS],
    *[(f"transfer_operator.poisson_terms.G{G}", "count", "lower") for G in SPECTRAL_RESOLUTIONS],
    *[(f"transfer_operator.dense_mb.G{G}", "MB", "lower") for G in SPECTRAL_RESOLUTIONS],
    ("transfer_operator.self_s", "s", "lower"),
    *[(f"matrix_law.{name}_s", "s", "lower") for name in MATRIX_LAW_TIMED],
    ("matrix_law.self_s", "s", "lower"),
    ("matrix_core_s", "s", "lower"),
    *[(f"theorem_validation.{name}_s", "s", "lower") for name in THEOREM_TIMED],
    ("theorem_validation.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_mb", "MB", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span) -> float:
    """The span's duration minus the part of its interval its children cover."""
    covered = 0.0
    reach = span.start
    for child in sorted(span.children, key=lambda c: c.start):
        lo = max(child.start, reach)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


class Recorder:
    """Keeps spans in memory; one recorder per traced run, single thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent)
            if parent is not None:
                parent.children.append(span)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# counters: computed from call arguments and public results


def _count_run_chunks(args, result) -> dict:
    chunks = len(result)
    return {"chunks": chunks, "pools": int(args["workers"] > 1 and chunks > 1)}


def _count_killed(horizon_arg: str):
    def counter(args, result) -> dict:
        counts = {"nominal_steps": args["paths"] * max(int(n) for n in args[horizon_arg])}
        if isinstance(result, dict):  # conditional_endpoint_samples
            counts["survivors"] = int(result[max(result)].size)
            counts["paths"] = args["paths"]
        return counts

    return counter


def _count_records(args, result) -> dict:
    nbytes = 0
    for rec in result:
        nbytes += rec.S.nbytes + rec.x_final.nbytes + (rec.M.nbytes if rec.M is not None else 0)
    return {"full_steps": args["paths"] * args["horizon"], "records_bytes": nbytes}


def _count_grid(args, result) -> dict:
    grid = args["grid"] if "grid" in args else args["nu"].grid
    counts = {"G": grid.resolution}
    if hasattr(result, "truncation_n"):  # solve_poisson
        counts["poisson_terms"] = result.truncation_n
    return counts


def _trace_points() -> list[tuple[str, str, str, object]]:
    """``(owner module, attribute, span name, counter)`` for every wrapper."""
    points = [("conefluct._batch", "run_chunks", "batch.run_chunks", _count_run_chunks)]
    fsim_counters = {
        "survival_probability": _count_killed("n_values"),
        "estimate_V": _count_killed("n_schedule"),
        "conditional_endpoint_samples": _count_killed("n_values"),
        "mc_sigma2": lambda args, _: {"full_steps": args["paths"] * args["n"]},
        "simulate_paths": _count_records,
        "covariance_decay": lambda args, _: {"full_steps": args["paths"] * (args["burn_in"] + args["max_lag"])},
    }
    for name in FSIM_TIMED:
        points.append(("conefluct.fluctuation_sim", name, f"fluctuation_sim.{name}", fsim_counters.get(name)))
    for name in TRANSFER_TIMED:
        points.append(("conefluct.cli", name, f"transfer_operator.{name}", _count_grid))
    for name in MATRIX_LAW_TIMED:
        points.append(("conefluct.cli", name, f"matrix_law.{name}", None))
    for name in MATRIX_CORE_TIMED:
        points.append(("conefluct.matrix_law", name, f"matrix_core.{name}", None))
    for name in THEOREM_TIMED:
        points.append(("conefluct.theorem_validation", name, f"theorem_validation.{name}", None))
    points.append(("conefluct.cli", "main", "cli.main", None))
    return points


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Install every wrapper for the duration of the block, then restore."""
    patched = []
    try:
        for module_name, attr, name, counter in _trace_points():
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
            setattr(owner, attr, recorder.wrap(name, original, counter))
            patched.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(spans: list[Span], artifact_bytes: int) -> dict:
    """Per-layer metrics (name -> value) from one traced run's spans.

    The ``trace.*`` metrics compare traced and untraced runs; the caller adds
    them.
    """
    values = {name: 0.0 for name, _, _ in PER_LAYER if not name.startswith("trace.")}
    full_steps = full_time = killed_steps = killed_time = 0.0
    survivors = cond_paths = 0
    for span in spans:
        own = self_time(span)
        layer, func = span.name.split(".", 1)
        c = span.counts
        if layer == "batch":
            values["batch.run_chunks_s"] += own
            values["batch.run_chunks.calls"] += 1
            values["batch.chunks"] += c["chunks"]
            values["batch.pools_started"] += c["pools"]
        elif layer == "fluctuation_sim":
            values[f"{span.name}_s"] += own
            values["fluctuation_sim.self_s"] += own
            if func == "estimate_V":
                values["fluctuation_sim.estimate_V.calls"] += 1
            if "full_steps" in c:
                full_steps += c["full_steps"]
                full_time += span.duration
            if "nominal_steps" in c:
                killed_steps += c["nominal_steps"]
                killed_time += span.duration
            survivors += c.get("survivors", 0)
            cond_paths += c.get("paths", 0)
            values["fluctuation_sim.records_mb"] += c.get("records_bytes", 0) / MIB
        elif layer == "transfer_operator":
            G = c["G"]
            key = f"{span.name}_s.G{G}"
            if key in values:
                values[key] += own
            if func == "solve_poisson" and G in SPECTRAL_RESOLUTIONS:
                # the dense cross-check holds one G x G float64 matrix
                values[f"transfer_operator.dense_mb.G{G}"] = 8.0 * G * G / MIB
                values[f"transfer_operator.poisson_terms.G{G}"] += c["poisson_terms"]
            values["transfer_operator.self_s"] += own
        elif layer == "matrix_law":
            values[f"{span.name}_s"] += own
            values["matrix_law.self_s"] += own
        elif layer == "matrix_core":
            values["matrix_core_s"] += own
        elif layer == "theorem_validation":
            values[f"{span.name}_s"] += own
            values["theorem_validation.self_s"] += own
        elif layer == "cli":
            values["cli.self_s"] += own
    values["fluctuation_sim.full_path_steps"] = full_steps
    values["fluctuation_sim.ns_per_full_path_step"] = 1e9 * full_time / full_steps if full_steps else 0.0
    values["fluctuation_sim.killed_nominal_path_steps"] = killed_steps
    values["fluctuation_sim.ns_per_killed_nominal_step"] = 1e9 * killed_time / killed_steps if killed_steps else 0.0
    values["fluctuation_sim.conditional_yield"] = survivors / cond_paths if cond_paths else 0.0
    values["cli.artifact_mb"] = artifact_bytes / MIB
    return values
