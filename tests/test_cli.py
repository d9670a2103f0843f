"""Command-line driver: file formats, artifact contracts, reproducibility."""

import csv
import json
import multiprocessing
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import conefluct
from conefluct import MatrixLaw, SimplexVector, _batch, fluctuation_sim, mc_sigma2
from conefluct.cli import (
    _CSV_ROWS, _SCHEMA, LawFormatError, _build_parser, _fmt, _fmt_column, _write_csv, law_fingerprint,
    load_config, load_law, main, save_law,
)
from conefluct.fixtures import reference_law_text

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import centered_law, weak_law  # noqa: E402


@pytest.fixture(scope="module")
def law_path(tmp_path_factory) -> Path:
    p = tmp_path_factory.mktemp("law") / "reference_law.json"
    p.write_text(reference_law_text(), encoding="utf-8")
    return p


@pytest.fixture(scope="module")
def config_path(tmp_path_factory, law_path) -> Path:
    cfg = {
        "law": str(law_path),
        "seed": 20240907,
        "grid": {"resolution": 128},
        "simulate": {
            "n_values": [16, 32, 64, 128, 256],
            "paths": 20000,
            "v_schedule": [16, 32, 64, 128],
            "v_paths": 20000,
            "a_paths": 4000,
            "conditional_n": [16, 64, 256],
            "conditional_paths": 30000,
            "sigma2_n": 512,
            "sigma2_paths": 10000,
        },
        "covariance": {"paths": 30000, "max_lag": 3},
        "validate": {"martingale_paths": 500, "martingale_horizon": 128},
        "thresholds": {"ks_threshold": 0.08, "min_survivors": 100},
    }
    p = tmp_path_factory.mktemp("cfg") / "config.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# law files


def test_law_round_trip(tmp_path, ref_law):
    p = tmp_path / "law.json"
    save_law(ref_law, p, metadata={"note": "round trip"})
    loaded, meta = load_law(p)
    assert isinstance(loaded, MatrixLaw)
    assert meta == {"note": "round trip"}
    assert np.array_equal(loaded.weights, ref_law.weights)
    for a, b in zip(loaded.atoms, ref_law.atoms):
        assert np.array_equal(a.entries, b.entries)
    assert law_fingerprint(loaded) == law_fingerprint(ref_law)


def test_fingerprint_ignores_metadata_but_not_entries(tmp_path, ref_law):
    base = law_fingerprint(ref_law)
    scaled = MatrixLaw.from_entries([g.entries * 1.000001 for g in ref_law.atoms], ref_law.weights)
    assert law_fingerprint(scaled) != base


@pytest.mark.parametrize(
    "payload, field",
    [
        ("not json {", "valid JSON"),
        ('{"dim": 2, "atoms": [[[1, 1], [1, 1]]]}', "weights"),
        ('{"dim": 2, "weights": [1.0]}', "atoms"),
        ('{"atoms": [[[1, 1], [1, 1]]], "weights": [1.0]}', "dim"),
        ('{"dim": 2, "atoms": [[[1, 1], [1, 1]]], "weights": [1.0], "extra": 1}', "unknown"),
        ('{"dim": 3, "atoms": [[[1, 1], [1, 1]]], "weights": [1.0]}', "shape"),
        ('{"dim": "2", "atoms": [[[1, 1], [1, 1]]], "weights": [1.0]}', "'dim' = '2'"),
        ('{"dim": 2.0, "atoms": [[[1, 1], [1, 1]]], "weights": [1.0]}', "'dim' = 2.0"),
        ('{"dim": true, "atoms": [[[1.0]]], "weights": [1.0]}', "'dim' = True"),
        ('{"dim": [2], "atoms": [[[1, 1], [1, 1]]], "weights": [1.0]}', r"'dim' = \[2\]"),
        ('{"dim": 1, "atoms": [[[1.0]]], "weights": [1.0]}', "'dim' = 1 must be an integer >= 2"),
        ('{"dim": 2, "atoms": [[[1, 1], [1, 1]]], "weights": [0.5]}', "sum to 1"),
        ('{"dim": 2, "atoms": [[[1, -1], [1, 1]]], "weights": [1.0]}', "negative"),
        ('{"dim": 2, "atoms": [[["3", "2"], [1, 1]]], "weights": [1.0]}', r'atoms\[0\]\[0\]\[0\] = "3" is not a number'),
        ('{"dim": 2, "atoms": [[[3, 2], [true, "4"]]], "weights": [1.0]}', r"atoms\[0\]\[1\]\[0\] = true is not"),
        ('{"dim": 2, "atoms": [[[3, 2], [1, null]]], "weights": [1.0]}', r"atoms\[0\]\[1\]\[1\] = null is not"),
        (
            '{"dim": 2, "atoms": [[[1, 1], [1, 1]], [[1, 2], [2, 1]]], "weights": [0.5, "0.5"]}',
            r'weights\[1\] = "0.5" is not a number',
        ),
        ('{"dim": 2, "atoms": [[[1, 1], [1, 1]]], "weights": [true]}', r"weights\[0\] = true is not"),
    ],
)
def test_law_parse_errors(tmp_path, payload, field):
    p = tmp_path / "bad.json"
    p.write_text(payload, encoding="utf-8")
    with pytest.raises(LawFormatError, match=field):
        load_law(p)


@pytest.mark.parametrize(
    "x, needle",
    [
        ([0.2, 0.3, 0.5], "'start.x' has 3 coordinates, but the law has dimension 2"),
        ("center", "'start.x' = 'center' must be 'barycenter' or a list of coordinates"),
        ([0.3, 0.3], "'start.x' = [0.3, 0.3]: coordinates must sum to 1 within 1e-12, got 0.6"),
        ([-0.5, 1.5], "'start.x' = [-0.5, 1.5]: coordinates must be finite and non-negative"),
    ],
    ids=["wrong-dimension", "unknown-name", "sum-not-one", "negative"],
)
def test_start_point_is_checked_against_the_law(law_path, tmp_path, capsys, x, needle):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"law": str(law_path), "seed": 7, "start": {"x": x}}), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert needle in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_law_missing_file(tmp_path):
    with pytest.raises(LawFormatError, match="cannot read"):
        load_law(tmp_path / "nope.json")


# ---------------------------------------------------------------------------
# config assembly


def test_config_requires_seed(tmp_path, law_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"law": str(law_path)}), encoding="utf-8")
    with pytest.raises(LawFormatError, match="wall-clock"):
        load_config(p)


_LEVELS = "must hold at least 2 positive, strictly increasing levels"
_STEPS = "must hold at least one step, each >= 1"
_UNIT = "must lie in (0, 1)"


@pytest.mark.parametrize(
    "override, env, flags, needle",
    [
        ({"simulate": {"pathz": 7}}, {}, {}, "pathz"),
        ({"thresholds": {"ks_treshold": 0.1}}, {}, {}, "thresholds.ks_treshold"),
        ({"check": {"paths": "many"}}, {}, {}, "check.paths"),
        ({"thresholds": {"ratio_band": [0.8, 0.9, 1.2]}}, {}, {}, "unknown key 'thresholds.ratio_band'"),
        ({"simulate": {"horizon": 1000000}}, {}, {}, "simulate.horizon"),
        ({}, {"CONEFLUCT_SEED": "abc"}, {}, "CONEFLUCT_SEED"),
        ({}, {"CONEFLUCT_WORKERS": "two"}, {}, "CONEFLUCT_WORKERS"),
        ({}, {"CONEFLUCT_WORKERS": "0"}, {}, "CONEFLUCT_WORKERS"),
        ({}, {}, {"workers": -3}, "--workers"),
        ({"workers": 0}, {}, {}, "config key 'workers'"),
        ({"start": {"a": float("nan")}}, {}, {}, "'start.a' = nan is not a finite number"),
        ({"thresholds": {"ks_threshold": float("inf")}}, {}, {}, "'thresholds.ks_threshold' = inf is not a finite"),
        ({"simulate": {"a_grid": [1.0, float("-inf")]}}, {}, {}, "'simulate.a_grid' = [1.0, -inf] is not a finite"),
        ({"spectral": {"sigma2_h": 0.05}}, {}, {}, "'spectral.sigma2_h'"),
        ({"spectral": {"eigen_tol": 1e-13}}, {}, {}, "'spectral.eigen_tol'"),
        ({"validate": {"sigma_scale": -1.0}}, {}, {}, "'validate.sigma_scale' = -1.0 must be positive"),
        ({"validate": {"sigma_scale": 0}}, {}, {}, "'validate.sigma_scale' = 0 must be positive"),
        ({"simulate": {"a_grid": [2.0, 1.0]}}, {}, {}, f"'simulate.a_grid' = [2.0, 1.0] {_LEVELS}"),
        ({"simulate": {"a_grid": [1.0]}}, {}, {}, f"'simulate.a_grid' = [1.0] {_LEVELS}"),
        ({"simulate": {"a_grid_sigmas": [0.0, 1.0]}}, {}, {}, f"'simulate.a_grid_sigmas' = [0.0, 1.0] {_LEVELS}"),
        ({"simulate": {"a_grid_sigmas": [1.0, 1.0]}}, {}, {}, f"'simulate.a_grid_sigmas' = [1.0, 1.0] {_LEVELS}"),
        ({"covariance": {"conv_check_n": -1}}, {}, {}, "'covariance.conv_check_n' = -1 must be >= 0"),
        ({"start": {"a": -1}}, {}, {}, "'start.a' = -1 must be >= 0"),
        ({"check": {"paths": 1}}, {}, {}, "'check.paths' = 1 must be >= 2"),
        ({"simulate": {"sigma2_paths": 1}}, {}, {}, "'simulate.sigma2_paths' = 1 must be >= 2"),
        ({"covariance": {"paths": 1}}, {}, {}, "'covariance.paths' = 1 must be >= 2"),
        ({"simulate": {"paths": 0}}, {}, {}, "'simulate.paths' = 0 must be >= 1"),
        ({"simulate": {"v_paths": 0}}, {}, {}, "'simulate.v_paths' = 0 must be >= 1"),
        ({"simulate": {"a_paths": -5}}, {}, {}, "'simulate.a_paths' = -5 must be >= 1"),
        ({"simulate": {"conditional_paths": 0}}, {}, {}, "'simulate.conditional_paths' = 0 must be >= 1"),
        ({"validate": {"martingale_paths": 0}}, {}, {}, "'validate.martingale_paths' = 0 must be >= 1"),
        ({"check": {"n": 0}}, {}, {}, "'check.n' = 0 must be >= 1"),
        ({"simulate": {"n_values": [0, 64]}}, {}, {}, f"'simulate.n_values' = [0, 64] {_STEPS}"),
        ({"simulate": {"v_schedule": []}}, {}, {}, f"'simulate.v_schedule' = [] {_STEPS}"),
        ({"simulate": {"conditional_n": [64, -1]}}, {}, {}, f"'simulate.conditional_n' = [64, -1] {_STEPS}"),
        ({"simulate": {"sigma2_n": 0}}, {}, {}, "'simulate.sigma2_n' = 0 must be >= 1"),
        ({"validate": {"martingale_horizon": 0}}, {}, {}, "'validate.martingale_horizon' = 0 must be >= 1"),
        ({"covariance": {"burn_in": 0}}, {}, {}, "'covariance.burn_in' = 0 must be >= 1"),
        ({"covariance": {"max_lag": 0}}, {}, {}, "'covariance.max_lag' = 0 must be >= 1"),
        # the spectral solvers' tolerances and iteration cap and the battery's
        # moment exponent and positivity search depth are library constants:
        # a config that sets one is refused as setting an unknown key, at a
        # value the key once refused and at the default it once held
        ({"spectral": {"max_iter": 0}}, {}, {}, "unknown key 'spectral.max_iter'"),
        ({"spectral": {"nu_tol": -1}}, {}, {}, "unknown key 'spectral.nu_tol'"),
        ({"spectral": {"poisson_tol": 0}}, {}, {}, "unknown key 'spectral.poisson_tol'"),
        ({"grid": {"resolution": 1}}, {}, {}, "'grid.resolution' = 1 must be >= 2"),
        ({"check": {"delta0": 0}}, {}, {}, "unknown key 'check.delta0'"),
        ({"check": {"p3_cap": 0}}, {}, {}, "unknown key 'check.p3_cap'"),
        ({"spectral": {"nu_tol": 1e-10}}, {}, {}, "unknown key 'spectral.nu_tol'"),
        ({"spectral": {"poisson_tol": 1e-10}}, {}, {}, "unknown key 'spectral.poisson_tol'"),
        ({"spectral": {"max_iter": 20000}}, {}, {}, "unknown key 'spectral.max_iter'"),
        ({"check": {"delta0": 1.0}}, {}, {}, "unknown key 'check.delta0'"),
        ({"check": {"p3_cap": 16}}, {}, {}, "unknown key 'check.p3_cap'"),
        ({}, {}, {"seed": -1}, "--seed = -1 must be >= 0"),
        ({}, {"CONEFLUCT_SEED": "-1"}, {}, "CONEFLUCT_SEED = -1 must be >= 0"),
        # the verdict bands other than the KS check's are library constants,
        # so a config that sets one is refused as setting an unknown key
        ({"check": {"sigma2_threshold": -1}}, {}, {}, "unknown key 'check.sigma2_threshold'"),
        ({"thresholds": {"negative_control_min": -1}}, {}, {}, "unknown key 'thresholds.negative_control_min'"),
        ({"thresholds": {"negative_control_min": 1}}, {}, {}, "unknown key 'thresholds.negative_control_min'"),
        ({"thresholds": {"ks_threshold": 0}}, {}, {}, f"'thresholds.ks_threshold' = 0 {_UNIT}"),
        ({"thresholds": {"ks_threshold": 1.5}}, {}, {}, f"'thresholds.ks_threshold' = 1.5 {_UNIT}"),
        ({"thresholds": {"ratio_z": 0}}, {}, {}, "unknown key 'thresholds.ratio_z'"),
        ({"thresholds": {"flat_z": -3.0}}, {}, {}, "unknown key 'thresholds.flat_z'"),
        ({"thresholds": {"bound_z": 0.0}}, {}, {}, "unknown key 'thresholds.bound_z'"),
        ({"thresholds": {"min_survivors": 0}}, {}, {}, "'thresholds.min_survivors' = 0 must be >= 1"),
        ({"thresholds": {"ks_rise_allowance": -0.5}}, {}, {}, "unknown key 'thresholds.ks_rise_allowance'"),
        ({"thresholds": {"ratio_band": [1.15, 0.85]}}, {}, {}, "unknown key 'thresholds.ratio_band'"),
        ({"thresholds": {"ratio_band": [1.0, 1.0]}}, {}, {}, "unknown key 'thresholds.ratio_band'"),
        ({"thresholds": {"slope_band": [0, 1.1]}}, {}, {}, "unknown key 'thresholds.slope_band'"),
        ({"check": {"gamma_tol": 1e9}}, {}, {}, "unknown key 'check.gamma_tol'"),
    ],
    ids=[
        "unknown-key", "unknown-threshold", "wrong-type", "wrong-length", "removed-horizon",
        "env-seed-not-int", "env-workers-not-int", "env-workers-zero", "flag-workers-negative",
        "config-workers-zero", "nan-start-level", "infinite-threshold", "infinite-a-grid-level",
        "removed-sigma2-h", "removed-eigen-tol", "negative-sigma-scale", "zero-sigma-scale",
        "decreasing-a-grid", "single-level-a-grid", "zero-a-grid-sigma", "repeated-a-grid-sigma",
        "negative-conv-check-n", "negative-start-level", "one-check-path", "one-sigma2-path",
        "one-covariance-path", "zero-simulate-paths", "zero-v-paths", "negative-a-paths",
        "zero-conditional-paths", "zero-martingale-paths", "zero-check-n", "zero-in-n-values",
        "empty-v-schedule", "negative-conditional-n", "zero-sigma2-n", "zero-martingale-horizon",
        "zero-burn-in", "zero-max-lag", "zero-max-iter", "negative-nu-tol", "zero-poisson-tol",
        "one-grid-node", "zero-delta0", "zero-p3-cap", "removed-nu-tol", "removed-poisson-tol",
        "removed-max-iter", "removed-delta0", "removed-p3-cap", "flag-seed-negative", "env-seed-negative",
        "negative-sigma2-threshold", "negative-control-min-negative", "negative-control-min-one",
        "zero-ks-threshold", "ks-threshold-over-one", "zero-ratio-z", "negative-flat-z", "zero-bound-z",
        "zero-min-survivors", "negative-ks-rise-allowance", "reversed-ratio-band", "empty-ratio-band",
        "zero-slope-band-lo", "removed-gamma-tol",
    ],
)
def test_config_rejects_unknown_keys(tmp_path, law_path, capsys, monkeypatch, override, env, flags, needle):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"law": str(law_path), "seed": 1, **override}), encoding="utf-8")
    with pytest.raises(LawFormatError, match=re.escape(needle)):
        load_config(p, overrides=flags)
    out = tmp_path / "out"
    argv = [arg for name, value in flags.items() for arg in (f"--{name}", str(value))]
    assert main(["validate", "--config", str(p), "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert needle in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_sigma_scale_flag_must_be_finite(config_path, tmp_path, capsys, scale):
    out = tmp_path / "out"
    assert main(["validate", "--config", str(config_path), "--out", str(out), "--sigma-scale", scale]) == 2
    err = capsys.readouterr().err
    assert f"--sigma-scale = {scale} is not a finite number" in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("scale", ["-1", "0"])
def test_sigma_scale_flag_must_be_positive(config_path, tmp_path, capsys, scale):
    out = tmp_path / "out"
    assert main(["validate", "--config", str(config_path), "--out", str(out), "--sigma-scale", scale]) == 2
    captured = capsys.readouterr()
    assert f"--sigma-scale = {float(scale)!r} must be positive" in captured.err and len(captured.err.splitlines()) == 1
    assert captured.out == "" and not out.exists()


def test_config_precedence(tmp_path, law_path, monkeypatch):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"law": str(law_path), "seed": 1, "workers": 2}), encoding="utf-8")
    cfg = load_config(p)
    assert cfg["seed"] == 1 and cfg["workers"] == 2
    monkeypatch.setenv("CONEFLUCT_SEED", "5")
    monkeypatch.setenv("CONEFLUCT_WORKERS", "3")
    cfg = load_config(p)
    assert cfg["seed"] == 5 and cfg["workers"] == 3
    cfg = load_config(p, overrides={"seed": 9})
    assert cfg["seed"] == 9 and cfg["workers"] == 3


def test_readme_config_table_lists_every_schema_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Config files") : readme.index("### Artifacts")]
    rows = {m.group(1) for m in re.finditer(r"^\| `([^`]+)` \|", section, re.MULTILINE)}
    assert {key for key, *_ in _SCHEMA} == rows


def test_config_cannot_switch_a_verdict_off(tmp_path, law_path, ref_law, capsys):
    """The configs that turned a failing verdict into a pass are refused before any stage runs.

    Every atom of the reference law scaled by 1.05 drifts (gamma_hat about
    0.049), so ``check`` fails it at the default drift tolerance.  The
    negative control has no KS floor of its own: it passes exactly when the
    conditional-law verdict fails at the scaled sigma, so a config that sets
    the floor it once had is refused like any removed key.
    """
    drifting = tmp_path / "drifting.json"
    save_law(MatrixLaw.from_entries([g.entries * 1.05 for g in ref_law.atoms], ref_law.weights), drifting)
    assert main(["check", "--law", str(drifting), "--seed", "7", "--out", str(tmp_path / "drift")]) == 1
    assert "FAIL drift" in capsys.readouterr().out
    runs = (
        (["check", "--law", str(drifting)], {"check": {"gamma_tol": 1e9}}, "check.gamma_tol"),
        (
            ["validate", "--law", str(law_path), "--sigma-scale", "1.01"],
            {"thresholds": {"negative_control_min": 1e-9}},
            "thresholds.negative_control_min",
        ),
    )
    for k, (argv, override, key) in enumerate(runs):
        cfg = tmp_path / f"cfg{k}.json"
        cfg.write_text(json.dumps(override), encoding="utf-8")
        out = tmp_path / f"out{k}"
        assert main([*argv, "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config: unknown key {key!r}\n"
        assert captured.out == "" and not out.exists()


# ---------------------------------------------------------------------------
# subcommands


def test_check_passes_on_reference_law(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["check", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    assert "all pass" in capsys.readouterr().out
    payload = json.loads((out / "hypotheses.json").read_text())
    assert payload["passed"] is True
    assert payload["report"]["p3_n0"] == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "check"
    assert sorted(manifest) == [
        "artifacts", "command", "config_sha256", "law_fingerprint", "seed", "versions",
    ]


def test_check_fails_on_drifting_law(tmp_path):
    law = MatrixLaw.from_entries([np.eye(2) * 0.5], np.array([1.0]))
    law_file = tmp_path / "law.json"
    save_law(law, law_file)
    out = tmp_path / "out"
    code = main(["check", "--law", str(law_file), "--seed", "3", "--out", str(out)])
    assert code == 1
    payload = json.loads((out / "hypotheses.json").read_text())
    assert payload["passed"] is False
    assert any("drift" in f for f in payload["failures"])


def test_manifest_independent_of_file_locations(tmp_path):
    # the same law and config in two directories: the law enters the config
    # hash by content, so every artifact, manifest.json included, matches
    outs = []
    for where in ("a", "b"):
        d = tmp_path / where
        d.mkdir()
        (d / "law.json").write_text(reference_law_text(), encoding="utf-8")
        cfg = {"law": str(d / "law.json"), "seed": 3, "check": {"n": 64, "paths": 2000}}
        (d / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        outs.append(d / "out")
        assert main(["check", "--config", str(d / "cfg.json"), "--out", str(outs[-1])]) == 0
    for name in ("hypotheses.json", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_spectral_artifacts(config_path, tmp_path):
    out = tmp_path / "out"
    code = main(["spectral", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "spectral.json").read_text())
    assert abs(summary["gamma"]) < 1e-6
    assert summary["sigma2"] == pytest.approx(0.1747, abs=0.002)
    assert summary["A"] > 0.0
    assert not {"sigma2_h", "lambda_h", "lambda_h_half", "kappa_power"} & set(summary)
    with open(out / "nu.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["param", "weight"]
    assert len(rows) - 1 == summary["grid_resolution"]
    weights = np.array([float(r[1]) for r in rows[1:]])
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_spectral_sigma2_under_drift(tmp_path):
    # the weak law drifts (gamma = -1.07); sigma^2 is the variance of S_n / sqrt(n),
    # so it must match the Monte Carlo variance, not sigma^2 + gamma^2 (2.258)
    spec = weak_law(np.random.default_rng(7))
    law_file = tmp_path / "weak_law.json"
    law_file.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["spectral", "--law", str(law_file), "--seed", "7", "--out", str(out)]) == 0
    summary = json.loads((out / "spectral.json").read_text())
    law, _ = load_law(law_file)
    mc, mc_se = mc_sigma2(law, SimplexVector.barycenter(2), 1024, 30000, seed=7)
    assert abs(summary["gamma"]) > 1.0
    assert abs(summary["sigma2"] - mc) < 4.0 * mc_se


def test_spectral_and_validate_load_no_scipy_solvers(config_path, tmp_path):
    # the commands need numpy only: loading scipy.sparse or scipy.linalg
    # would add 0.1 s and 20 MB to every spectral and validate call, and
    # scipy is a test-only requirement.  A command also loads only what it
    # runs: spectral draws no random number and forks nothing, so
    # numpy.random and the pool machinery stay unloaded, and validate at
    # one worker forks nothing either
    watched = ("numpy.random", "concurrent.futures", "multiprocessing")
    script = (
        "import sys\n"
        "from conefluct.cli import main\n"
        f"watched = {watched!r}\n"
        "def loaded():\n"
        "    print('loaded', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in watched))\n"
        f"assert main(['spectral', '--config', {str(config_path)!r}, '--out', {str(tmp_path / 's')!r}]) == 0\n"
        "loaded()\n"
        f"assert main(['validate', '--config', {str(config_path)!r}, '--workers', '1', '--out', {str(tmp_path / 'v')!r}]) == 0\n"
        "loaded()\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(conefluct.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    after_spectral, after_validate = [line for line in result.stdout.splitlines() if line.startswith("loaded ")]
    assert after_spectral == "loaded []"
    assert after_validate == "loaded ['numpy.random']"


def test_hypothesis_failure_stops_spectral_and_validate(tmp_path, capsys):
    # upper-triangular atoms: no product is ever strictly positive (P3 fails)
    law = MatrixLaw.from_entries([np.array([[2.0, 1.0], [0.0, 0.5]]), np.array([[0.5, 1.0], [0.0, 1.0]])])
    law_file = tmp_path / "law.json"
    save_law(law, law_file)
    code = main(["spectral", "--law", str(law_file), "--seed", "3", "--out", str(tmp_path / "s")])
    assert code == 2
    assert "positivity" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()
    cfg = tmp_path / "cfg.json"
    tiny = {"law": str(law_file), "seed": 3, "check": {"n": 64, "paths": 500}}
    cfg.write_text(json.dumps(tiny), encoding="utf-8")
    out = tmp_path / "v"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 1
    text = capsys.readouterr().out
    assert "FAIL positivity" in text and "FAIL hypotheses" in text
    payload = json.loads((out / "report.json").read_text())
    assert payload["verdicts"] == {"hypotheses": False}
    assert any("positivity" in f for f in payload["hypotheses"]["failures"])
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "report.json"]


def test_spectral_refuses_higher_dimension(tmp_path, capsys):
    law = MatrixLaw.from_entries([np.eye(3) + 1.0], np.array([1.0]))
    law_file = tmp_path / "law3.json"
    save_law(law, law_file)
    code = main(["spectral", "--law", str(law_file), "--seed", "3", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "Monte Carlo" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_artifacts_and_rerun_identical(config_path, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", str(config_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config_path), "--out", str(out2), "--workers", "3"]) == 0
    names = ["survival.csv", "v_curve.csv", "v_table.csv", "conditional.csv", "simulate.json", "manifest.json"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == sorted(names)
    with open(out1 / "survival.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "p_hat", "ci_half_width", "survivors"]
    p_vals = [float(r[1]) for r in rows[1:]]
    assert all(b <= a for a, b in zip(p_vals, p_vals[1:]))


def test_out_dir_protection(config_path, tmp_path, capsys):
    out = tmp_path / "busy"
    out.mkdir()
    (out / "keep.txt").write_text("data")
    code = main(["covariance", "--config", str(config_path), "--out", str(out)])
    assert code == 2
    assert "--force" in capsys.readouterr().err
    # --force deletes only what a conefluct manifest lists, so a foreign file is refused
    code = main(["covariance", "--config", str(config_path), "--out", str(out), "--force"])
    assert code == 2
    err = capsys.readouterr().err
    assert "keep.txt" in err and err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]


def test_force_replaces_previous_artifacts(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["check", "--config", str(config_path), "--out", str(out)]) == 0
    assert main(["covariance", "--config", str(config_path), "--out", str(out), "--force"]) == 0
    listed = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert "hypotheses.json" not in listed
    assert sorted(p.name for p in out.iterdir()) == listed
    (out / "stale.csv").write_text("x\n")
    capsys.readouterr()
    assert main(["check", "--config", str(config_path), "--out", str(out), "--force"]) == 2
    err = capsys.readouterr().err
    assert "stale.csv" in err and err.count("\n") == 1
    assert (out / "stale.csv").read_text() == "x\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(listed + ["stale.csv"])


@pytest.fixture(scope="module")
def short_config_path(tmp_path_factory, law_path) -> Path:
    # too few paths: 159 survivors at n = 64, under the 200 the conditional
    # law needs, so validate fails after its exit-time tables are computed
    cfg = {
        "law": str(law_path),
        "seed": 3,
        "check": {"paths": 2000, "n": 128},
        "simulate": {
            "n_values": [16, 32],
            "paths": 2000,
            "v_schedule": [16, 32],
            "v_paths": 2000,
            "a_paths": 1000,
            "a_grid_sigmas": [0.5, 2.0],
            "conditional_n": [16, 64],
            "conditional_paths": 500,
            "sigma2_n": 32,
            "sigma2_paths": 1000,
        },
        "validate": {"martingale_paths": 50, "martingale_horizon": 16},
    }
    p = tmp_path_factory.mktemp("short") / "config.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return p


def test_failed_run_creates_no_out(short_config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["validate", "--config", str(short_config_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "survivors" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_failed_force_rerun_keeps_previous_run(short_config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(short_config_path), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "manifest.json" in before and len(before) == 6
    capsys.readouterr()
    assert main(["validate", "--config", str(short_config_path), "--out", str(out), "--force"]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert main(["check", "--config", str(short_config_path), "--out", str(out), "--force"]) == 0
    listed = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert listed == ["hypotheses.json", "manifest.json"]
    assert sorted(p.name for p in out.iterdir()) == listed


def test_covariance_artifacts(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["covariance", "--config", str(config_path), "--out", str(out)]) == 0
    payload = json.loads((out / "covariance.json").read_text())
    assert payload["burn_in"] == 50
    assert payload["convolution_rate"]["value"] < 0.3
    with open(out / "covariance.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lag", "cov", "stderr", "in_fit_window"]
    assert len(rows) - 1 == 4  # lags 0..3
    assert float(rows[1][1]) > 0.0


def test_covariance_over_budget_says_so(law_path, tmp_path, capsys):
    # 2^18 = 262144 products is over the enumeration budget: the rate is
    # null in the artifact and one stderr line says why
    p = tmp_path / "cfg.json"
    p.write_text(
        json.dumps({"law": str(law_path), "seed": 5, "covariance": {"paths": 2000, "conv_check_n": 18}}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["covariance", "--config", str(p), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "2^18 = 262144" in err and "200000" in err
    payload = json.loads((out / "covariance.json").read_text())
    assert payload["convolution_rate"] == {"n": 18, "value": None}


def test_csv_columns_format_like_cells():
    columns = [
        np.array([0.1, -2.5e-17, 1e300, 3.0, np.inf]),
        np.array([1, -2, 3, 0, 2**40], dtype=np.int64),
        np.array([True, False, True, True, False]),
        np.array([0.5, 1, 2, 3, 4], dtype=np.float32),
        [1, 2.0, None, True, np.float64(0.3)],
    ]
    for col in columns:
        assert _fmt_column(col) == [_fmt(v) for v in col]


@pytest.mark.parametrize("rows", [0, 5, 3 * _CSV_ROWS + 7])
def test_csv_bytes_match_csv_writer(tmp_path, rows):
    # float cells with signed zeros, nan and infinities; int and bool cells;
    # longer tables span several of the writer's slices
    specials = np.array([0.1, -0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300, -2.5e17])
    columns = (
        np.resize(specials, rows) * np.resize([1.0, 3.0], rows),
        np.arange(rows, dtype=np.int64) * -(2**33),
        np.arange(rows) % 3 == 0,
        [True, 7, 0.25, np.float64(-0.0), None][:rows] + [1.5] * max(rows - 5, 0),
    )
    path = tmp_path / "t.csv"
    _write_csv({path: (["a", "b", "c", "d"], columns)})
    assert path.read_bytes() == oracles.csv_bytes(["a", "b", "c", "d"], columns)


@pytest.mark.parametrize("cell", ["1,5", 'say "x"', "a\rb", "a\nb", "a\r\nb"])
def test_csv_writer_refuses_cells_csv_would_quote(tmp_path, cell):
    with pytest.raises(ValueError, match="CSV cell"):
        _write_csv({tmp_path / "t.csv": (["a", "b"], (np.arange(3.0), ["x", cell, "z"]))})
    with pytest.raises(ValueError, match="CSV cell"):
        _write_csv({tmp_path / "h.csv": (["a", cell], (np.arange(3.0), np.arange(3)))})


def test_csv_tables_written_side_by_side_match_csv_writer(tmp_path):
    # two tables share their first column, as spectral's nu.csv and
    # theta.csv share the grid; a third is shorter and one is empty, so the
    # slices end at different rows
    grid = np.linspace(0.0, 1.0, 2 * _CSV_ROWS + 3)
    tables = {
        tmp_path / "nu.csv": (["param", "weight"], (grid, np.sqrt(grid))),
        tmp_path / "theta.csv": (["param", "value"], (grid, np.sin(grid))),
        tmp_path / "short.csv": (["n", "x"], (np.arange(7), grid[:7])),
        tmp_path / "empty.csv": (["n"], (np.arange(0),)),
    }
    _write_csv(tables)
    for path, (header, columns) in tables.items():
        assert path.read_bytes() == oracles.csv_bytes(header, columns)


def test_validate_passes_and_reports(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["validate", "--config", str(config_path), "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0, text
    payload = json.loads((out / "report.json").read_text())
    verdicts = payload["verdicts"]
    assert verdicts["exit_asymptotics"] and verdicts["conditional_law"] and verdicts["v_properties"]
    assert "negative_control" not in verdicts
    assert payload["report"]["sigma2"]["relative_gap"] < 0.2
    assert payload["diagnostics"]["martingale_gap"] <= payload["diagnostics"]["A"]
    for name in ("ratio_table.csv", "ks_table.csv", "v_table.csv"):
        assert (out / name).exists()
    assert "PASS exit_asymptotics" in text
    assert {"hypotheses", "sigma2_agreement", "gamma_agreement"} <= set(verdicts)
    assert payload["hypotheses"]["failures"] == []
    # the verdict list is exactly what the serialized report implies
    report = payload["report"]
    rebuilt = {name: flag for name, flag in report["checklist"].items() if flag is not None}
    for key, name in (
        ("exit_section", "exit_asymptotics"),
        ("conditional_section", "conditional_law"),
        ("v_section", "v_properties"),
    ):
        if report[key] is not None:
            rebuilt[name] = report[key]["verdict"]
    if report["negative_control"] is not None:
        rebuilt["negative_control"] = report["negative_control"]["pass"]
    assert verdicts == rebuilt


def test_validate_identical_across_workers(config_path, tmp_path):
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["validate", "--config", str(config_path), "--out", str(out1)]) == 0
    assert main(["validate", "--config", str(config_path), "--out", str(out2), "--workers", "2"]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["ks_table.csv", "manifest.json", "ratio_table.csv", "report.json", "v_table.csv"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.fixture(scope="module")
def d3k64_config_path(tmp_path_factory) -> Path:
    """The benchmark's d = 3, K = 64 law at seed 7, with budgets of two and three chunks."""
    root = tmp_path_factory.mktemp("d3k64")
    (root / "law.json").write_text(json.dumps(centered_law(np.random.default_rng(7))), encoding="utf-8")
    two, three = _batch.CHUNK_PATHS + 3000, 2 * _batch.CHUNK_PATHS + 3000
    cfg = {
        "law": str(root / "law.json"),
        "seed": 7,
        "check": {"n": 64, "paths": two},
        "simulate": {
            "n_values": [16, 32],
            "paths": two,
            "v_schedule": [16, 32],
            "v_paths": two,
            "a_grid_sigmas": [1.0, 2.0, 4.0, 8.0],
            "a_paths": two,
            "conditional_n": [16, 32],
            "conditional_paths": three,
            "sigma2_n": 32,
            "sigma2_paths": two,
        },
        "covariance": {"paths": three, "conv_check_n": 2},
    }
    (root / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    return root / "cfg.json"


class _CountingPool(ProcessPoolExecutor):
    """A process pool that records the size of every pool started."""

    sizes: list = []

    def __init__(self, max_workers=None, **kwargs):
        self.sizes.append(max_workers)
        super().__init__(max_workers=max_workers, **kwargs)


@pytest.fixture
def counted(monkeypatch):
    """Count the pools started and the ``run_chunks`` calls made."""
    calls = []
    run_chunks = _batch.run_chunks
    monkeypatch.setattr(_CountingPool, "sizes", [])
    monkeypatch.setattr(_batch, "_executor", _CountingPool)
    monkeypatch.setattr(_batch, "run_chunks", lambda *args, **kwargs: calls.append(1) or run_chunks(*args, **kwargs))
    return _CountingPool.sizes, calls


@pytest.mark.parametrize("workers, pools", [(1, []), (2, [1]), (3, [2])])
def test_command_starts_one_pool(d3k64_config_path, tmp_path, counted, workers, pools):
    """Six multi-chunk stages of ``simulate`` share one pool of ``workers - 1`` processes, reaped at the end."""
    sizes, calls = counted
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(d3k64_config_path), "--out", str(out), "--workers", str(workers)]) == 0
    assert len(calls) == 6 and sizes == pools
    assert not multiprocessing.active_children()


def test_command_reaps_its_pool_on_an_error(d3k64_config_path, tmp_path, capsys, counted, monkeypatch):
    """A stage that fails after the pool started exits 2, with every pool process gone."""
    sizes, calls = counted

    def fail(*args, **kwargs):
        assert multiprocessing.active_children()  # the pool is open
        raise ValueError("stage failed")

    monkeypatch.setattr(fluctuation_sim, "conditional_endpoint_samples", fail)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(d3k64_config_path), "--out", str(out), "--workers", "2"]) == 2
    assert capsys.readouterr().err == "error: stage failed\n"
    assert sizes == [1] and len(calls) == 3 and not out.exists()
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("command", ["check", "simulate", "covariance"])
def test_d3k64_artifacts_identical_across_workers(d3k64_config_path, tmp_path, command):
    outs = [tmp_path / f"w{w}" for w in (1, 2, 3)]
    for w, out in zip((1, 2, 3), outs):
        assert main([command, "--config", str(d3k64_config_path), "--out", str(out), "--workers", str(w)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert "manifest.json" in names and len(names) >= 2
    for out in outs[1:]:
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (outs[0] / name).read_bytes(), (out.name, name)


def test_validate_negative_control(config_path, tmp_path):
    out = tmp_path / "out"
    code = main([
        "validate", "--config", str(config_path), "--out", str(out), "--sigma-scale", "2.0",
    ])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    control = payload["report"]["negative_control"]
    assert control["pass"] is True
    assert control["final_ks"] > 0.15
    assert payload["report"]["conditional_section"] is None
    assert payload["verdicts"]["negative_control"] is True


def test_parser_is_reused_without_carrying_options(config_path, tmp_path):
    """spectral, validate --sigma-scale 1.05, spectral in one process write what each writes alone."""
    calls = [
        ("spectral1", ["spectral", "--config", str(config_path)]),
        ("validate", ["validate", "--config", str(config_path), "--sigma-scale", "1.05"]),
        ("spectral2", ["spectral", "--config", str(config_path)]),
    ]

    def run(root, label, argv):
        code = main([*argv, "--out", str(tmp_path / root / label)])
        return code, {p.name: p.read_bytes() for p in sorted((tmp_path / root / label).iterdir())}

    _build_parser.cache_clear()
    together = [run("together", label, argv) for label, argv in calls]
    assert _build_parser.cache_info().misses == 1
    for (label, argv), got in zip(calls, together):
        _build_parser.cache_clear()
        assert got == run("alone", label, argv), label
    assert together[0][0] == 0 and together[0] == together[2]
    assert json.loads(together[1][1]["report.json"])["report"]["negative_control"] is not None


def test_cli_error_paths(tmp_path, capsys):
    assert main(["check", "--law", str(tmp_path / "missing.json"), "--seed", "1", "--out", str(tmp_path / "o")]) == 2
    assert "cannot read" in capsys.readouterr().err
    assert main(["check", "--out", str(tmp_path / "o2")]) == 2
    assert "law" in capsys.readouterr().err
