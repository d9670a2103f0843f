"""Experiment driver: law/config files, subcommands, and on-disk artifacts.

Law files and experiment configs are JSON (human-writable, exact float
round-trip).  A law file looks like::

    {
      "dim": 2,
      "atoms": [[[3.0, 2.0], [2.0, 4.0]], [[1.0, 2.0], [1.0, 1.0]]],
      "weights": [0.5, 0.5],
      "metadata": {"note": "free-form"}
    }

Subcommands: ``check`` (hypothesis battery, nonzero exit on failure),
``spectral`` (invariant weights, drift, variance, potential; d = 2 only, as
the grid operators refuse any other d; refuses laws that fail positivity),
``simulate`` (survival, killed expectations, conditional endpoints),
``validate`` (assembled verdict report, ``--sigma-scale`` for
negative-control runs), ``covariance`` (lagged increment covariances with
the geometric-rate fit).

``validate`` runs the ``check`` battery first and, when it fails, stops with
exit code 1 and the single verdict ``hypotheses: false``.  Otherwise it reuses
the ``simulate`` stages, its verdicts are exactly ``ValidationReport.verdicts()``
and the exit code is nonzero unless all pass.  Malformed laws and configs
exit with code 2: ``_SCHEMA`` holds one row per config key with its
default, the JSON types it takes and its range rule, and a refused value
(unknown key, wrong type, not finite, out of range) is named by the key,
environment variable or flag that set it.  The spectral solvers' tolerances
and iteration caps and the hypothesis battery's moment exponent, positivity
search depth, drift tolerance and variance floor are not config keys: every
command runs at the library defaults.

Each command returns its exit code and its artifacts, and ``main`` writes
them: nothing in ``--out`` is created, deleted or written until the command
has finished.  A command that fails leaves ``--out`` as it was, so a failing
``--force`` rerun keeps the previous run.  Every run writes ``manifest.json``
with the config hash, seed, law fingerprint and the conefluct and numpy
versions; numpy is the only library outside the standard library that the
commands import.  A command loads what it runs: ``spectral`` draws no random
number, so it loads neither ``numpy.random`` nor, like every run at one
worker, the process-pool machinery, which ``_batch`` imports at the first
fork.  The hash takes the law by its fingerprint, not its path, and leaves
out the worker count and ``--out``, so identical (config, law, seed) runs
produce byte-identical artifacts wherever the files live and whatever the
worker count.  No timestamps are recorded.
``main`` runs each command inside one ``_batch.pool_scope``: its Monte Carlo
stages share one worker pool, which is shut down when the command ends.
Environment overrides: ``CONEFLUCT_SEED``, ``CONEFLUCT_WORKERS``,
``CONEFLUCT_OUT``, ``CONEFLUCT_FORCE`` (flags still win); a seed or worker
count that is not an integer exits with code 2 and names its variable.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, _batch
from .matrix_core import SimplexVector
from .matrix_law import ENUMERATION_BUDGET, P3_CAP, MatrixLaw, check_P3, convolution_contraction, hypothesis_report
from .matrix_law import estimate_lyapunov  # noqa: F401  (unused; perfbench/tracing.py wraps it here)
from .transfer_operator import (
    ConvergenceError,
    DegenerateLawError,
    SimplexGrid,
    lyapunov_exact,
    solve_poisson,
    stationary_measure,
)
from .transfer_operator import dominant_eigenvalue  # noqa: F401  (unused; perfbench/tracing.py wraps it here)
from . import fluctuation_sim as fsim
from . import theorem_validation as tval

__all__ = ["LawFormatError", "load_law", "save_law", "law_fingerprint", "load_config", "main"]


class LawFormatError(ValueError):
    """A law or config file failed structural validation."""


# ---------------------------------------------------------------------------
# law files


def load_law(path) -> tuple[MatrixLaw, dict]:
    """Parse a law file; raises LawFormatError with the offending field."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise LawFormatError(f"cannot read law file {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LawFormatError(f"law file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise LawFormatError(f"law file {path}: top level must be an object")
    for key in ("dim", "atoms", "weights"):
        if key not in obj:
            raise LawFormatError(f"law file {path}: missing required key {key!r}")
    unknown = set(obj) - {"dim", "atoms", "weights", "metadata"}
    if unknown:
        raise LawFormatError(f"law file {path}: unknown keys {sorted(unknown)}")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 2:
        raise LawFormatError(f"law file {path}: 'dim' = {dim!r} must be an integer >= 2")
    atoms = obj["atoms"]
    weights = obj["weights"]
    if not isinstance(atoms, list) or not atoms:
        raise LawFormatError(f"law file {path}: 'atoms' must be a non-empty list")
    if not isinstance(weights, list) or len(weights) != len(atoms):
        raise LawFormatError(f"law file {path}: 'weights' must list one weight per atom")
    for field, value in (("atoms", atoms), ("weights", weights)):
        bad = _first_non_number(value, field)
        if bad is not None:
            raise LawFormatError(f"law file {path}: {bad[0]} = {json.dumps(bad[1])} is not a number")
    try:
        entry_arrays = [np.asarray(entries, dtype=float) for entries in atoms]
    except (TypeError, ValueError) as exc:
        raise LawFormatError(f"law file {path}: atom entries are not numeric: {exc}") from exc
    for i, arr in enumerate(entry_arrays):
        if arr.shape != (dim, dim):
            raise LawFormatError(
                f"law file {path}: atom {i} has shape {arr.shape}, expected ({dim}, {dim}) "
                "(row-major rows of the matrix)"
            )
    try:
        law = MatrixLaw.from_entries(entry_arrays, np.asarray(weights, dtype=float))
    except ValueError as exc:
        raise LawFormatError(f"law file {path}: {exc}") from exc
    return law, obj.get("metadata", {})


def _first_non_number(value, where: str):
    """The first leaf of the nested lists ``value`` that is not a JSON number.

    Returns ``(where, leaf)``, with ``where`` extended by the leaf's indices,
    or None when every leaf is a number.
    """
    if isinstance(value, list):
        for k, item in enumerate(value):
            bad = _first_non_number(item, f"{where}[{k}]")
            if bad is not None:
                return bad
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return where, value
    return None


def _law_dict(law: MatrixLaw, metadata: dict | None) -> dict:
    out = {
        "dim": law.dim,
        "atoms": [g.entries.tolist() for g in law.atoms],
        "weights": law.weights.tolist(),
    }
    if metadata:
        out["metadata"] = metadata
    return out


def save_law(law: MatrixLaw, path, metadata: dict | None = None) -> None:
    """Serialize a law; parsing the output reproduces it exactly."""
    Path(path).write_text(json.dumps(_law_dict(law, metadata), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def law_fingerprint(law: MatrixLaw) -> str:
    """Content hash of the law (atoms and weights, exact floats)."""
    payload = json.dumps(_law_dict(law, None), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# config


# range rules: a message and a predicate on a value of the leaf's JSON type
def _at_least(k: int, reason: str = ""):
    return f"must be >= {k}{reason}", lambda v: v >= k


_POSITIVE = ("must be positive", lambda v: v > 0)
_VARIANCE = _at_least(2, " (it feeds a sample variance)")
_STEPS = ("must hold at least one step, each >= 1", lambda v: len(v) > 0 and min(v) >= 1)
_LEVELS = (
    "must hold at least 2 positive, strictly increasing levels",
    lambda v: len(v) >= 2 and v[0] > 0 and all(a < b for a, b in zip(v, v[1:])),
)
_UNIT = ("must lie in (0, 1)", lambda v: 0 < v < 1)

# One row per config leaf: dotted key, default, an example value of a second
# JSON type the leaf accepts, and the range rule.  No rule applies to None.
_SCHEMA = (
    ("law", None, "law.json", None),
    ("seed", None, 0, _at_least(0)),
    ("workers", 1, None, _at_least(1)),
    ("out", "out", None, None),
    ("start.x", "barycenter", [0.5], None),
    ("start.a", 1.0, None, _at_least(0)),
    ("grid.resolution", 512, None, _at_least(2)),
    ("check.n", 1024, None, _at_least(1)),
    ("check.paths", 20000, None, _VARIANCE),
    ("simulate.n_values", [64, 128, 256, 512, 1024], None, _STEPS),
    ("simulate.paths", 100000, None, _at_least(1)),
    ("simulate.v_schedule", [16, 32, 64, 128, 256, 512, 1024], None, _STEPS),
    ("simulate.v_paths", 100000, None, _at_least(1)),
    ("simulate.a_grid", None, [1.0], _LEVELS),
    ("simulate.a_grid_sigmas", [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 50.0], None, _LEVELS),
    ("simulate.a_paths", 30000, None, _at_least(1)),
    ("simulate.conditional_n", [64, 256, 1024], None, _STEPS),
    ("simulate.conditional_paths", 200000, None, _at_least(1)),
    ("simulate.sigma2_n", 1024, None, _at_least(1)),
    ("simulate.sigma2_paths", 30000, None, _VARIANCE),
    ("covariance.burn_in", 50, None, _at_least(1)),
    ("covariance.max_lag", 6, None, _at_least(1)),
    ("covariance.paths", 200000, None, _VARIANCE),
    ("covariance.conv_check_n", 4, None, _at_least(0, " (0 skips the check)")),
    ("validate.sigma_scale", 1.0, None, _POSITIVE),
    ("validate.martingale_paths", 4000, None, _at_least(1)),
    ("validate.martingale_horizon", 512, None, _at_least(1)),
    # the KS distance is not scaled by the survivor count, so a small budget
    # needs its own bar; every other verdict band is a ValidationThresholds
    # default that no config can move
    ("thresholds.ks_threshold", tval.ValidationThresholds.ks_threshold, None, _UNIT),
    ("thresholds.min_survivors", tval.ValidationThresholds.min_survivors, None, _at_least(1)),
)
_ROWS = {row[0]: row for row in _SCHEMA}


def _nest(flat: dict) -> dict:
    """The config object for a map of dotted keys to values."""
    out = {}
    for key, value in flat.items():
        section, _, leaf = key.rpartition(".")
        (out.setdefault(section, {}) if section else out)[leaf] = value
    return out


_DEFAULTS = _nest({key: default for key, default, _, _ in _SCHEMA})

# fixed per-operation salts so every estimator gets its own substream
_SALTS = {
    "check": 1,
    "survival": 2,
    "v_start": 3,
    "conditional": 4,
    "sigma2": 5,
    "covariance": 6,
    "martingale": 7,
    "a_grid": 8,
}


def _type_ok(default, value) -> bool:
    """Whether ``value`` has the JSON type of ``default``: ints pass for floats."""
    if default is None:
        return value is None
    if isinstance(default, list):
        return isinstance(value, list) and all(_type_ok(default[0], v) for v in value)
    if isinstance(value, bool):
        return isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _finite(value) -> bool:
    """Whether no float in a leaf, or in a list leaf, is NaN or infinite (JSON ``NaN``, ``Infinity``)."""
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _check(name: str, value, default, alt=None, rule=None) -> None:
    """Refuse a leaf value of neither the default's nor ``alt``'s JSON type, not finite, or refused by ``rule``."""
    if not (_type_ok(default, value) or (alt is not None and _type_ok(alt, value))):
        raise LawFormatError(f"{name} = {value!r} has the wrong type (default {default!r})")
    if not _finite(value):
        raise LawFormatError(f"{name} = {value!r} is not a finite number")
    if rule is not None and value is not None and not rule[1](value):
        raise LawFormatError(f"{name} = {value!r} {rule[0]}")


def _merge(flat: dict, obj: dict, defaults: dict = _DEFAULTS, path: str = "") -> None:
    """Copy the leaves of a config file object into ``flat``, refusing unknown keys and wrong types."""
    for key, value in obj.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            # an unknown section is named by its first leaf, the key a config sets
            while isinstance(value, dict) and value:
                key, value = next(iter(value.items()))
                where = f"{where}.{key}"
            raise LawFormatError(f"config: unknown key {where!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise LawFormatError(f"config: {where!r} must be an object")
            _merge(flat, value, defaults[key], where)
        else:
            _check(f"config key {where!r}", value, defaults[key], _ROWS[where][2])
            flat[where] = value


def _env_int(name: str) -> int:
    try:
        return int(os.environ[name])
    except ValueError:
        raise LawFormatError(f"{name} = {os.environ[name]!r} is not an integer") from None


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Assemble the effective config: defaults < file < env < overrides.

    ``overrides`` are the command-line flags (``--law``, ``--seed``,
    ``--workers``, ``--out``, and ``sigma_scale`` for ``--sigma-scale``).
    Unknown keys and wrong JSON types in the file are refused as it is read.
    Once all sources are merged, each ``_SCHEMA`` row checks its leaf's
    type, finiteness and range, and a refusal names the key, variable or
    flag that set the value.
    """
    flat = {key: copy.deepcopy(default) for key, default, _, _ in _SCHEMA}
    if path is not None:
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise LawFormatError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise LawFormatError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise LawFormatError(f"config {path}: top level must be an object")
        _merge(flat, obj)
    source = {}
    for key in ("seed", "workers", "out"):
        name = f"CONEFLUCT_{key.upper()}"
        if os.environ.get(name):
            flat[key] = os.environ[name] if key == "out" else _env_int(name)
            source[key] = name
    for key, value in (overrides or {}).items():
        if value is not None:
            dotted = "validate.sigma_scale" if key == "sigma_scale" else key
            flat[dotted] = value
            source[dotted] = "--" + key.replace("_", "-")
    if flat["law"] is None:
        raise LawFormatError("no law file given (config key 'law' or --law)")
    if flat["seed"] is None:
        raise LawFormatError("no seed given (config key 'seed', CONEFLUCT_SEED, or --seed); "
                             "wall-clock seeding is not supported")
    for key, default, alt, rule in _SCHEMA:
        _check(source.get(key, f"config key {key!r}"), flat[key], default, alt, rule)
    return _nest(flat)


def _config_hash(cfg: dict, law: MatrixLaw) -> str:
    # workers and out are execution details, not experiment identity: runs
    # that differ only in parallelism or destination hash (and re-compute)
    # identically, so their artifacts can be compared byte for byte.  The
    # law enters by content, so a copy of it in another directory does too.
    ident = {k: v for k, v in cfg.items() if k not in ("workers", "out")}
    ident["law"] = law_fingerprint(law)
    payload = json.dumps(_jsonable(ident), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _seed_for(cfg: dict, op: str) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=cfg["seed"], spawn_key=(_SALTS[op],))


def _start_point(cfg: dict, law: MatrixLaw) -> SimplexVector:
    choice = cfg["start"]["x"]
    if choice == "barycenter":
        return SimplexVector.barycenter(law.dim)
    if isinstance(choice, str):
        raise LawFormatError(f"config: 'start.x' = {choice!r} must be 'barycenter' or a list of coordinates")
    if len(choice) != law.dim:
        raise LawFormatError(f"config: 'start.x' has {len(choice)} coordinates, but the law has dimension {law.dim}")
    try:
        return SimplexVector(np.asarray(choice, dtype=float))
    except ValueError as exc:
        raise LawFormatError(f"config: 'start.x' = {choice!r}: {exc}") from None


# ---------------------------------------------------------------------------
# artifact plumbing


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    # a SeedSequence exists only once numpy.random is loaded, so a command
    # that draws nothing (spectral) does not load it here
    random = sys.modules.get("numpy.random")
    if random is not None and isinstance(obj, random.SeedSequence):
        return {"entropy": _jsonable(obj.entropy), "spawn_key": _jsonable(list(obj.spawn_key))}
    if hasattr(obj, "__dataclass_fields__"):
        return {name: _jsonable(getattr(obj, name)) for name in obj.__dataclass_fields__}
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


# rows formatted per write in ``_write_csv``
_CSV_ROWS = 256


def _fmt_column(values) -> list:
    """The cells of one CSV column, each as ``_fmt`` writes it; numeric arrays are formatted whole."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return list(map(repr if values.dtype.kind == "f" else str, values.tolist()))
    return [_fmt(v) for v in values]


def _csv_lines(cells: list) -> str:
    """CSV lines of equal-length columns of str cells, at least one row, each line ended by ``\\r\\n``.

    These are the bytes ``csv.writer`` writes for cells it leaves unquoted.
    It quotes a cell holding ``,``, ``"``, ``\\r`` or ``\\n``, which this
    refuses with ValueError; the counts of those characters in the text show
    any such cell.
    """
    rows, width = len(cells[0]), len(cells)
    text = "\r\n".join(map(",".join, zip(*cells))) + "\r\n"
    if text.count(",") != rows * (width - 1) or text.count("\r") != rows or text.count("\n") != rows or '"' in text:
        raise ValueError("a CSV cell holds a comma, a quote or a line break")
    return text


def _write_csv(tables: dict) -> None:
    """Write each ``path: (header, columns)`` of ``tables`` as a CSV file; one table's columns have equal length.

    The files are written side by side, a slice of rows at a time, which
    keeps the formatted text small, and a column that several tables share
    (spectral's grid) is formatted once per slice.
    """
    with contextlib.ExitStack() as stack:
        files = []
        for path, (header, columns) in tables.items():
            fh = stack.enter_context(open(path, "w", newline="", encoding="utf-8"))
            fh.write(_csv_lines([[name] for name in header]))
            files.append((fh, columns, len(columns[0])))
        for s in range(0, max((rows for _, _, rows in files), default=0), _CSV_ROWS):
            cells = {}  # id(column) -> the slice's cells
            for fh, columns, rows in files:
                if s < rows:
                    for col in columns:
                        if id(col) not in cells:
                            cells[id(col)] = _fmt_column(col[s : s + _CSV_ROWS])
                    fh.write(_csv_lines([cells[id(col)] for col in columns]))


def _listed_artifacts(out: Path) -> set:
    """File names the manifest in ``out`` lists, itself included; empty if unreadable."""
    try:
        names = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["artifacts"]
    except (OSError, ValueError, TypeError, KeyError):
        return set()
    if not isinstance(names, list) or not all(isinstance(n, str) and Path(n).name == n for n in names):
        return set()
    return set(names)


def _prepare_out(cfg: dict, force: bool) -> set:
    """Check ``--out`` and return the previous run's files, which a finished run replaces.

    With ``--force`` these are the files the existing manifest lists.  Anything
    else in the directory is refused.  Nothing is deleted here.
    """
    out = Path(cfg["out"])
    if os.environ.get("CONEFLUCT_FORCE") == "1":
        force = True
    if not out.exists() or not any(out.iterdir()):
        return set()
    if not force:
        raise LawFormatError(f"output directory {out} is not empty; pass --force to overwrite")
    listed = _listed_artifacts(out)
    others = sorted(p.name for p in out.iterdir() if p.name not in listed or not p.is_file())
    if others:
        raise LawFormatError(
            f"output directory {out} holds files no conefluct manifest lists ({', '.join(others)}); "
            "--force replaces only a previous run's artifacts"
        )
    return listed


def _write_run(cfg: dict, law: MatrixLaw, command: str, stale: set, artifacts: dict) -> None:
    """Replace the previous run's files in ``--out`` with ``artifacts`` and their manifest.

    ``artifacts`` maps a file name to a JSON object (``.json``) or to a
    ``(header, columns)`` pair (``.csv``), the columns of equal length.
    """
    out = Path(cfg["out"])
    for name in stale:
        if (out / name).is_file():
            (out / name).unlink()
    out.mkdir(parents=True, exist_ok=True)
    _write_csv({out / name: payload for name, payload in artifacts.items() if name.endswith(".csv")})
    for name, payload in artifacts.items():
        if not name.endswith(".csv"):
            _write_json(out / name, payload)
    _write_json(
        out / "manifest.json",
        {
            "command": command,
            "config_sha256": _config_hash(cfg, law),
            "seed": cfg["seed"],
            "law_fingerprint": law_fingerprint(law),
            "versions": {
                "conefluct": __version__,
                "numpy": np.__version__,
            },
            "artifacts": sorted([*artifacts, "manifest.json"]),
        },
    )


# ---------------------------------------------------------------------------
# subcommands


def _battery(cfg: dict, law: MatrixLaw):
    """Run the standing-hypothesis battery and print one line per failure."""
    # the ``check`` config keys are the battery's keyword arguments
    report = hypothesis_report(
        law, _start_point(cfg, law), **cfg["check"], seed=_seed_for(cfg, "check"), workers=cfg["workers"]
    )
    failures = report.failures()
    for line in failures:
        print(f"FAIL {line}")
    return report, failures


def cmd_check(cfg: dict, law: MatrixLaw):
    report, failures = _battery(cfg, law)
    print(f"hypotheses: {'all pass' if not failures else f'{len(failures)} failing'}")
    return (0 if not failures else 1), {
        "hypotheses.json": {"report": report, "failures": failures, "passed": not failures}
    }


def _spectral_pipeline(cfg: dict, law: MatrixLaw):
    """The ``spectral.json`` summary, the invariant weights and the Poisson solution."""
    grid = SimplexGrid(cfg["grid"]["resolution"])
    nu = stationary_measure(law, grid)
    gamma = lyapunov_exact(law, nu)
    poisson = solve_poisson(law, nu)
    summary = {
        "grid_resolution": grid.resolution,
        "gamma": gamma,
        "sigma2": poisson.sigma2,
        "A": poisson.A,
        "poisson": {
            "drift": poisson.drift,
            "truncation_n": poisson.truncation_n,
            "tail_bound": poisson.tail_bound,
            "residual": poisson.residual,
            "dense_gap": poisson.dense_gap,
            "interp_slack": poisson.interp_slack,
        },
    }
    return summary, nu, poisson


def cmd_spectral(cfg: dict, law: MatrixLaw):
    if check_P3(law) is None:
        raise DegenerateLawError(f"positivity: no product of up to {P3_CAP} atoms is strictly positive; see 'check'")
    summary, nu, poisson = _spectral_pipeline(cfg, law)
    print(f"gamma = {summary['gamma']:.6g}, sigma^2 = {summary['sigma2']:.6g}, A = {poisson.A:.6g}")
    return 0, {
        "spectral.json": summary,
        "nu.csv": (["param", "weight"], (nu.grid.params, nu.values)),
        "theta.csv": (["param", "value"], (nu.grid.params, poisson.theta.values)),
    }


def _mc_stages(cfg: dict, law: MatrixLaw, x: SimplexVector, a: float):
    """Survival curve, Monte Carlo variance, V at the start level, conditioned endpoints."""
    sim = cfg["simulate"]
    workers = cfg["workers"]
    curve = fsim.survival_probability(
        law, x, a, sim["n_values"], sim["paths"], _seed_for(cfg, "survival"), workers=workers
    )
    sigma2_mc, sigma2_se = fsim.mc_sigma2(
        law, x, sim["sigma2_n"], sim["sigma2_paths"], _seed_for(cfg, "sigma2"), workers=workers
    )
    v_start = fsim.estimate_V(
        law, x, a, sim["v_schedule"], sim["v_paths"], _seed_for(cfg, "v_start"), workers=workers
    )
    samples = fsim.conditional_endpoint_samples(
        law, x, a, sim["conditional_n"], sim["conditional_paths"], _seed_for(cfg, "conditional"),
        workers=workers,
    )
    return curve, sigma2_mc, sigma2_se, v_start, samples


def _v_table(cfg: dict, law: MatrixLaw, x: SimplexVector, sigma_hat: float):
    """V over the level grid (``a_grid``, else ``a_grid_sigmas`` times sigma_hat), with its v_table.csv.

    The even-indexed levels share one path set and the odd-indexed levels
    another, on two substreams of the ``a_grid`` seed.  So every adjacent
    pair that ``check_V_properties`` compares comes from independent paths:
    within one set the killed expectation is monotone in the level by
    construction, and the monotonicity check would be vacuous.
    """
    sim = cfg["simulate"]
    a_grid = sim["a_grid"]
    if a_grid is None:
        a_grid = [round(m * sigma_hat, 12) for m in sim["a_grid_sigmas"]]
    estimates = [None] * len(a_grid)
    for start, ss in enumerate(_seed_for(cfg, "a_grid").spawn(2)):
        estimates[start::2] = fsim.estimate_V(
            law, x, [float(level) for level in a_grid[start::2]], sim["v_schedule"], sim["a_paths"], ss,
            workers=cfg["workers"],
        )
    columns = (
        a_grid,
        [e.V_hat for e in estimates],
        [e.V_stderr for e in estimates],
        [e.plateau_n or -1 for e in estimates],
        [e.converged for e in estimates],
        [e.reported_survival for e in estimates],
    )
    return a_grid, estimates, (["a", "V_hat", "V_stderr", "plateau_n", "converged", "survival"], columns)


def cmd_simulate(cfg: dict, law: MatrixLaw):
    x = _start_point(cfg, law)
    a = float(cfg["start"]["a"])
    curve, sigma2_mc, sigma2_se, v_start, samples = _mc_stages(cfg, law, x, a)
    _, _, v_table = _v_table(cfg, law, x, math.sqrt(sigma2_mc))
    ns = sorted(samples)
    print(
        f"survival at n={curve.n_values[-1]}: {curve.p_hat[-1]:.5f} +- {curve.ci_half_width[-1]:.5f}; "
        f"V_hat({a:g}) = {v_start.V_hat:.5f}"
    )
    return 0, {
        "survival.csv": (
            ["n", "p_hat", "ci_half_width", "survivors"],
            (curve.n_values, curve.p_hat, curve.ci_half_width, curve.survivors),
        ),
        "v_curve.csv": (["n", "estimate", "stderr"], (v_start.n_schedule, v_start.estimates, v_start.stderrs)),
        "v_table.csv": v_table,
        "conditional.csv": (
            ["n", "scaled_endpoint"],
            (np.repeat(ns, [samples[n].size for n in ns]), np.concatenate([samples[n] for n in ns])),
        ),
        "simulate.json": {
            "start": {"x": x.coords, "a": a},
            "sigma2_mc": sigma2_mc,
            "sigma2_mc_stderr": sigma2_se,
            "survival": curve,
            "V_start": v_start,
            "conditional_counts": {str(n): samples[n].size for n in samples},
        },
    }


def cmd_covariance(cfg: dict, law: MatrixLaw):
    cov = cfg["covariance"]
    x = _start_point(cfg, law)
    table = fsim.covariance_decay(
        law, x, cov["burn_in"], cov["max_lag"], cov["paths"], _seed_for(cfg, "covariance"),
        workers=cfg["workers"],
    )
    conv_rate = None
    n_conv = cov["conv_check_n"]
    K = law.support_size
    if n_conv and K**n_conv > ENUMERATION_BUDGET:
        print(
            f"warning: convolution_rate not computed: {K}^{n_conv} = {K**n_conv} products "
            f"is over the enumeration budget {ENUMERATION_BUDGET}",
            file=sys.stderr,
        )
    elif n_conv:
        conv_rate = convolution_contraction(law, n_conv) ** (1.0 / n_conv)
    print(f"kappa_fit = {table.kappa_fit}, window = {table.fit_lags}")
    return 0, {
        "covariance.csv": (
            ["lag", "cov", "stderr", "in_fit_window"],
            (table.lags, table.cov, table.stderr, [int(l) in table.fit_lags for l in table.lags]),
        ),
        "covariance.json": {
            "burn_in": table.burn_in,
            "paths": table.paths,
            "kappa_fit": table.kappa_fit,
            "fit_lags": table.fit_lags,
            "note": table.note,
            "convolution_rate": {"n": n_conv, "value": conv_rate},
        },
    }


def _report(report, extra: dict, tables: dict):
    """Print the verdicts; return the exit code with report.json and the tables."""
    verdicts = report.verdicts()
    for name in sorted(verdicts):
        print(f"{'PASS' if verdicts[name] else 'FAIL'} {name}")
    return (0 if report.all_pass else 1), {"report.json": {"report": report, "verdicts": verdicts, **extra}, **tables}


def cmd_validate(cfg: dict, law: MatrixLaw):
    thresholds = tval.ValidationThresholds(**cfg["thresholds"])
    hypotheses, failures = _battery(cfg, law)
    battery = {"hypotheses": {"report": hypotheses, "failures": failures}}
    if failures:
        report = tval.ValidationReport(
            law_fingerprint=law_fingerprint(law),
            gamma={},
            sigma2={},
            exit_section=None,
            conditional_section=None,
            negative_control=None,
            v_section=None,
            checklist={"hypotheses": False},
            thresholds=thresholds,
        )
        return _report(report, battery, {})

    spectral, _, poisson = _spectral_pipeline(cfg, law)
    sigma2 = spectral["sigma2"]
    if sigma2 <= 0.0:
        raise DegenerateLawError("sigma^2 = 0: the conditioned limit theory does not apply")
    sigma_hat = math.sqrt(sigma2)
    x = _start_point(cfg, law)
    a = float(cfg["start"]["a"])
    curve, sigma2_mc, sigma2_mc_se, v_start, samples = _mc_stages(cfg, law, x, a)

    exit_section = tval.validate_exit_asymptotics(
        curve, v_start.V_hat, v_start.V_stderr, sigma_hat, thresholds
    )
    val = cfg["validate"]
    sigma_scale = float(val["sigma_scale"])
    section = tval.validate_conditional_law(samples, sigma_hat * sigma_scale, thresholds)
    conditional_section = negative_control = None
    if sigma_scale == 1.0:
        conditional_section = section
    else:
        negative_control = tval.negative_control(section, sigma_scale)

    a_grid, estimates, v_table = _v_table(cfg, law, x, sigma_hat)
    v_section = tval.check_V_properties(
        a_grid, [e.V_hat for e in estimates], [e.V_stderr for e in estimates], poisson.A, thresholds
    )

    gap, gap_violations, ordering_violations = fsim.martingale_guards(
        law, x, a, val["martingale_horizon"], val["martingale_paths"], _seed_for(cfg, "martingale"),
        poisson, workers=cfg["workers"],
    )
    report = tval.ValidationReport(
        law_fingerprint=law_fingerprint(law),
        gamma={"quadrature": spectral["gamma"], "monte_carlo": [hypotheses.gamma_hat, hypotheses.gamma_stderr]},
        sigma2={
            "spectral": sigma2,
            "monte_carlo": [sigma2_mc, sigma2_mc_se],
            "relative_gap": abs(sigma2_mc - sigma2) / sigma2,
        },
        exit_section=exit_section,
        conditional_section=conditional_section,
        negative_control=negative_control,
        v_section=v_section,
        checklist={
            "hypotheses": True,
            "martingale_bound": gap_violations == 0,
            "exit_ordering": ordering_violations == 0,
            "sigma2_agreement": tval.sigma2_agreement(sigma2, sigma2_mc, sigma2_mc_se),
            "gamma_agreement": tval.gamma_agreement(
                spectral["gamma"], hypotheses.gamma_hat, hypotheses.gamma_stderr, hypotheses.gamma_tol
            ),
        },
        thresholds=thresholds,
    )
    diagnostics = {"martingale_gap": gap, "A": poisson.A, "interp_slack": poisson.interp_slack}
    tables = {
        "ratio_table.csv": (
            ["n", "p_hat", "sqrt_n_p", "sqrt_n_p_stderr", "ratio", "ratio_stderr"],
            (
                exit_section.n_values, exit_section.p_hat, exit_section.sqrt_n_p,
                exit_section.sqrt_n_p_stderr, exit_section.ratio, exit_section.ratio_stderr,
            ),
        ),
        "ks_table.csv": (["n", "survivors", "ks"], (section.n_values, section.survivors, section.ks)),
        "v_table.csv": v_table,
    }
    return _report(report, {**battery, "diagnostics": diagnostics}, tables)


# built once per process: ``parse_args`` leaves the parser as it was and
# returns a fresh namespace, so no option carries over between calls
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conefluct",
        description="Products of positive random matrices: hypothesis checks, spectral "
        "quantities, exit-time simulation, and limit-law validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text in (
        ("check", cmd_check, "run the standing-hypothesis battery (nonzero exit on failure)"),
        ("spectral", cmd_spectral, "invariant weights, drift, variance, potential (d = 2)"),
        ("simulate", cmd_simulate, "survival curve, killed expectations, conditional endpoints"),
        ("validate", cmd_validate, "assemble the verdict report (nonzero exit on failing verdicts)"),
        ("covariance", cmd_covariance, "lagged increment covariances and geometric-rate fit"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", type=str, default=None, help="experiment config (JSON)")
        p.add_argument("--law", type=str, default=None, help="law file (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--workers", type=int, default=None, help="process count (results unchanged)")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--force", action="store_true", help="overwrite a non-empty output directory")
        if name == "validate":
            p.add_argument(
                "--sigma-scale", type=float, default=None,
                help="scale sigma for the conditioned law (negative control; != 1 flips the KS check)",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        "law": args.law, "seed": args.seed, "workers": args.workers, "out": args.out,
        "sigma_scale": getattr(args, "sigma_scale", None),
    }
    try:
        cfg = load_config(args.config, overrides)
        law, _ = load_law(cfg["law"])
        stale = _prepare_out(cfg, force=args.force)
        # one worker pool for the whole command, reaped however the command ends
        with _batch.pool_scope(cfg["workers"]):
            code, artifacts = args.run(cfg, law)
        _write_run(cfg, law, args.command, stale, artifacts)
        return code
    except (LawFormatError, ConvergenceError, DegenerateLawError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
