"""The benchmark's workloads: generated inputs, CLI calls and output checks.

Each workload is a fixed set of ``conefluct`` CLI calls on input files that
``make_inputs`` writes from the workload seed.  The program only ever sees
those files.  ``check`` turns a call's exit code and artifacts into a list of
failure messages; an empty list means the outputs are correct.

Budgets are fixed per workload, so the wall time of a workload is the time
to a result of the stated accuracy.  ``smoke=True`` shrinks every budget so
the whole pipeline runs in seconds; smoke results are not benchmark results.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

SPECTRAL_RESOLUTIONS = (512, 1024, 2048, 4096)
SMOKE_RESOLUTIONS = (64, 128)

# Bound on the Poisson equation residual and on the gap between the series
# and the dense solve, at every grid resolution and for both laws.  Measured
# values are about 2e-11 (reference law) and 5e-9 (weak law).
POISSON_BOUND = 1e-7

# Budgets of the d = 3, K = 64 workload.  Every Monte Carlo call gets more
# than one chunk of paths (a chunk is 16384), so each ``run_chunks`` call with
# two workers starts a process pool, as every CLI Monte Carlo call does at
# default budgets.
MC_D3K64_CONFIG = {
    "workers": 2,
    "check": {"n": 512, "paths": 32768},
    "simulate": {
        "n_values": [32, 64, 128, 256],
        "paths": 32768,
        "v_schedule": [16, 32, 64, 128, 256],
        "v_paths": 32768,
        "a_paths": 32768,
        "conditional_n": [64, 128, 256],
        "conditional_paths": 32768,
        "sigma2_n": 256,
        "sigma2_paths": 32768,
    },
    "covariance": {"paths": 32768, "conv_check_n": 2},
}

# Shrunk budgets for the smoke runs only.  validate keeps its default
# conditional budget: the KS verdict needs that many survivors to pass.
_SMOKE_VALIDATE = {
    "check": {"paths": 4000, "n": 256},
    "simulate": {
        "paths": 20000,
        "v_paths": 20000,
        "a_paths": 8000,
        "sigma2_paths": 4000,
        "a_grid_sigmas": [0.5, 2.0, 8.0],
    },
    "validate": {"martingale_paths": 200, "martingale_horizon": 64},
}
_SMOKE_MC = {
    "workers": 2,
    "check": {"n": 128, "paths": 2000},
    "simulate": {
        "n_values": [16, 32],
        "paths": 2000,
        "v_schedule": [16, 32],
        "v_paths": 2000,
        "a_grid_sigmas": [1.0, 4.0],
        "a_paths": 1000,
        "conditional_n": [16, 32],
        "conditional_paths": 2000,
        "sigma2_n": 32,
        "sigma2_paths": 1000,
    },
    # more than one chunk, so the smoke run starts a pool too
    "covariance": {"paths": 20000, "conv_check_n": 2},
}


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _law_file(atoms, weights) -> dict:
    atoms = np.asarray(atoms, dtype=float)
    return {"dim": int(atoms.shape[1]), "atoms": atoms.tolist(), "weights": [float(w) for w in weights]}


def weak_law(rng: np.random.Generator) -> dict:
    """Weakly contracting d = 2 law: two nearly diagonal atoms.

    One atom pulls toward each vertex and the off-diagonals (near 1e-3) keep
    the chain off the vertices, so mixing is slow: the Poisson series needs
    about 70 terms at tolerance 1e-10, against 8 for the reference law.
    The narrow parameter ranges keep that count within a few terms across
    seeds.
    """
    big = 1.5 + rng.uniform(-0.05, 0.05, 2)
    small = 0.03 + rng.uniform(-0.003, 0.003, 2)
    off = 1e-3 * rng.uniform(0.8, 1.2, (2, 2))
    atoms = [
        [[big[0], off[0, 0]], [off[0, 1], small[0]]],
        [[small[1], off[1, 0]], [off[1, 1], big[1]]],
    ]
    w = rng.uniform(0.48, 0.52)
    return _law_file(atoms, [w, 1.0 - w])


def lyapunov_estimate(atoms: np.ndarray, weights: np.ndarray, rng, chains: int, steps: int, burn_in: int) -> float:
    """Top Lyapunov exponent from ``chains`` parallel projective walks.

    This is the benchmark's own estimator, independent of the program's:
    the mean log-mass increment after ``burn_in`` steps.
    """
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    d = atoms.shape[1]
    X = np.full((chains, d), 1.0 / d)
    total = 0.0
    for step in range(burn_in + steps):
        idx = np.searchsorted(cum, rng.random(chains), side="right")
        Y = np.einsum("pij,pj->pi", atoms[idx], X)
        mass = Y.sum(axis=1)
        X = Y / mass[:, None]
        if step >= burn_in:
            total += float(np.log(mass).sum())
    return total / (chains * steps)


def centered_law(rng: np.random.Generator, dim: int = 3, atoms_count: int = 64, smoke: bool = False) -> dict:
    """Random strictly positive law, rescaled so its Lyapunov exponent is ~0.

    Uncentered, the walk drifts: it either never exits or exits at once,
    which changes the amount of killed-walk work.  Scaling every atom by
    ``exp(-gamma_hat)`` shifts the exponent by exactly ``-gamma_hat``; the
    estimate's stderr (~1e-4) is well inside the battery's 1e-3 tolerance.
    """
    atoms = rng.uniform(0.2, 1.8, (atoms_count, dim, dim))
    weights = rng.uniform(0.5, 1.5, atoms_count)
    weights /= weights.sum()
    chains, steps = (500, 200) if smoke else (2000, 1000)
    gamma = lyapunov_estimate(atoms, weights, rng, chains=chains, steps=steps, burn_in=50)
    return _law_file(atoms * math.exp(-gamma), weights)


# ---------------------------------------------------------------------------
# input generation


def make_inputs(workload: str, seed: int, dest: Path, smoke: bool = False) -> None:
    """Write the workload's law and config files into ``dest``."""
    dest.mkdir(parents=True, exist_ok=True)
    if workload == "validate-ref":
        from conefluct.fixtures import reference_law_text

        (dest / "reference_law.json").write_text(reference_law_text(), encoding="utf-8")
        cfg = {"law": str(dest / "reference_law.json"), "seed": seed, "workers": 1, "grid": {"resolution": 512}}
        if smoke:
            cfg.update(_SMOKE_VALIDATE)
        _write_json(dest / "validate.json", cfg)
    elif workload == "spectral-sweep":
        from conefluct.fixtures import reference_law_text

        rng = np.random.default_rng(seed)
        (dest / "reference_law.json").write_text(reference_law_text(), encoding="utf-8")
        _write_json(dest / "weak_law.json", weak_law(rng))
        for law in ("reference", "weak"):
            for G in SMOKE_RESOLUTIONS if smoke else SPECTRAL_RESOLUTIONS:
                cfg = {"law": str(dest / f"{law}_law.json"), "seed": seed, "grid": {"resolution": G}}
                _write_json(dest / f"spectral_{law}_G{G}.json", cfg)
    elif workload == "mc-d3k64":
        rng = np.random.default_rng(seed)
        _write_json(dest / "d3k64_law.json", centered_law(rng, smoke=smoke))
        cfg = {"law": str(dest / "d3k64_law.json"), "seed": seed}
        cfg.update(_SMOKE_MC if smoke else MC_D3K64_CONFIG)
        _write_json(dest / "mc.json", cfg)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    from conefluct.cli import load_law

    # parse every law as the CLI will, so a malformed input fails at set-up
    for law_file in sorted(dest.glob("*_law.json")):
        load_law(law_file)


def calls(workload: str, inputs: Path, outputs: Path, smoke: bool = False) -> list[tuple[str, list[str]]]:
    """The workload's CLI calls as ``(label, argv)``; each writes ``outputs/label``."""
    if workload == "validate-ref":
        plan = [("validate", "validate", "validate.json")]
    elif workload == "spectral-sweep":
        plan = [
            (f"spectral_{law}_G{G}", "spectral", f"spectral_{law}_G{G}.json")
            for law in ("reference", "weak")
            for G in (SMOKE_RESOLUTIONS if smoke else SPECTRAL_RESOLUTIONS)
        ]
    elif workload == "mc-d3k64":
        plan = [(cmd, cmd, "mc.json") for cmd in ("check", "simulate", "covariance")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [
        (label, [cmd, "--config", str(inputs / cfg), "--out", str(outputs / label), "--force"])
        for label, cmd, cfg in plan
    ]


# ---------------------------------------------------------------------------
# output checks


def _check_validate(out: Path) -> list[str]:
    verdicts = json.loads((out / "report.json").read_text(encoding="utf-8"))["verdicts"]
    if not verdicts:
        return ["report.json holds no verdicts"]
    return [f"verdict {name} is FAIL" for name, ok in sorted(verdicts.items()) if ok is not True]


def _check_spectral(label: str, out: Path) -> list[str]:
    from conefluct.fixtures import reference_manifest

    summary = json.loads((out / "spectral.json").read_text(encoding="utf-8"))
    failures = []
    for key in ("residual", "dense_gap"):
        value = summary["poisson"][key]
        if not (math.isfinite(value) and value < POISSON_BOUND):
            failures.append(f"poisson {key} = {value!r} is not below {POISSON_BOUND:g}")
    if label == "spectral_reference_G512":
        pins = reference_manifest()
        if abs(summary["sigma2"] - pins["sigma2"]) > pins["sigma2_rel_tolerance"] * pins["sigma2"]:
            failures.append(f"sigma2 = {summary['sigma2']!r} misses the pinned {pins['sigma2']!r}")
        if abs(summary["gamma"] - pins["gamma_after_calibration"]) > pins["gamma_tolerance"]:
            failures.append(f"gamma = {summary['gamma']!r} misses the pinned {pins['gamma_after_calibration']!r}")
        if abs(summary["A"] - pins["A"]) > pins["A_tolerance"]:
            failures.append(f"A = {summary['A']!r} misses the pinned {pins['A']!r}")
    return failures


def _check_survival(out: Path) -> list[str]:
    with open(out / "survival.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return ["survival.csv is empty"]
    p_hat = [float(r["p_hat"]) for r in rows]
    survivors = [int(r["survivors"]) for r in rows]
    failures = []
    if any(later > earlier for earlier, later in zip(p_hat, p_hat[1:])):
        failures.append(f"survival curve increases: {p_hat}")
    if survivors[-1] <= 0:
        failures.append("no survivors at the last evaluation time")
    return failures


def _check_hypotheses(out: Path) -> list[str]:
    obj = json.loads((out / "hypotheses.json").read_text(encoding="utf-8"))
    return [] if obj["passed"] is True else [f"hypothesis battery fails: {obj['failures']}"]


def _check_covariance(out: Path) -> list[str]:
    with open(out / "covariance.csv", newline="", encoding="utf-8") as fh:
        cov = [float(r["cov"]) for r in csv.DictReader(fh)]
    if not cov or not all(math.isfinite(c) for c in cov) or not cov[0] > 0.0:
        return [f"covariance table is malformed: {cov}"]
    return []


def check(workload: str, label: str, out: Path) -> list[str]:
    """Failure messages for one call's artifacts (empty: correct).

    The call's exit code is checked separately; this reads what it wrote.
    """
    if workload == "validate-ref":
        return _check_validate(out)
    if workload == "spectral-sweep":
        return _check_spectral(label, out)
    return {"check": _check_hypotheses, "simulate": _check_survival, "covariance": _check_covariance}[label](out)
