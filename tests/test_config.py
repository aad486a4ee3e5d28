"""Tests for the unified run configuration (repro.config)."""

from __future__ import annotations

import argparse
import dataclasses

import pytest

from repro.config import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    EXEC_BACKEND_ENV,
    JOBS_ENV,
    NO_CACHE_ENV,
    ReproConfig,
    default_jobs,
)
from repro.core.errors import ConfigError
from repro.imb.fastpath import MACRO_ABOVE_ENV


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Every test starts from an unconfigured environment."""
    for var in (JOBS_ENV, EXEC_BACKEND_ENV, CACHE_DIR_ENV, NO_CACHE_ENV,
                MACRO_ABOVE_ENV):
        monkeypatch.delenv(var, raising=False)


# ---------------------------------------------------------------------------
# Resolution precedence: explicit > env > default
# ---------------------------------------------------------------------------

def test_defaults():
    cfg = ReproConfig.from_env_and_args(jobs=1)
    assert cfg.jobs == 1
    assert cfg.macro_above is None  # exact everywhere
    assert cfg.exec_backend == "inline"
    assert cfg.cache_dir == DEFAULT_CACHE_DIR
    assert cfg.cache is True


def test_jobs_gt_one_defaults_to_the_fleet():
    assert ReproConfig.from_env_and_args(jobs=4).exec_backend == "subprocess"


def test_env_layer(monkeypatch, tmp_path):
    monkeypatch.setenv(JOBS_ENV, "3")
    monkeypatch.setenv(EXEC_BACKEND_ENV, "subprocess")
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "c"))
    monkeypatch.setenv(NO_CACHE_ENV, "1")
    cfg = ReproConfig.from_env_and_args()
    assert cfg.jobs == 3
    assert cfg.exec_backend == "subprocess"
    assert cfg.cache_dir == str(tmp_path / "c")
    assert cfg.cache is False


def test_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "3")
    monkeypatch.setenv(EXEC_BACKEND_ENV, "subprocess")
    cfg = ReproConfig.from_env_and_args(jobs=1, exec_backend="inline",
                                        no_cache=False)
    assert cfg.jobs == 1
    assert cfg.exec_backend == "inline"
    assert cfg.cache is True


def test_namespace_args_supply_explicit_layer(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "7")
    args = argparse.Namespace(jobs=2, macro_above=None,
                              exec_backend="inline", cache_dir=None,
                              no_cache=None)
    cfg = ReproConfig.from_env_and_args(args)
    assert cfg.jobs == 2           # Namespace beats env
    assert cfg.exec_backend == "inline"
    assert cfg.cache_dir == DEFAULT_CACHE_DIR


def test_keyword_beats_namespace():
    args = argparse.Namespace(jobs=2)
    assert ReproConfig.from_env_and_args(args, jobs=5).jobs == 5


# ---------------------------------------------------------------------------
# Validation failures
# ---------------------------------------------------------------------------

def test_macro_above_flag_beats_env(monkeypatch):
    monkeypatch.setenv(MACRO_ABOVE_ENV, "64")
    assert ReproConfig.from_env_and_args().macro_above == 64
    assert ReproConfig.from_env_and_args(macro_above="0").macro_above == 0
    args = argparse.Namespace(macro_above="2048")
    assert ReproConfig.from_env_and_args(args).macro_above == 2048


@pytest.mark.parametrize("raw, match", [
    ("not-a-number", "must be an integer"),
    ("1.5", "must be an integer"),
    ("-1", "must be >= 0"),
], ids=["garbage", "fraction", "negative"])
def test_bad_macro_above(monkeypatch, raw, match):
    with pytest.raises(ConfigError, match=f"--macro-above {match}"):
        ReproConfig.from_env_and_args(macro_above=raw)
    monkeypatch.setenv(MACRO_ABOVE_ENV, raw)
    with pytest.raises(ConfigError, match=f"{MACRO_ABOVE_ENV} {match}"):
        ReproConfig.from_env_and_args()


def test_bad_macro_above_is_a_usage_error(monkeypatch, capsys):
    from repro.harness.runner import main as runner_main

    assert runner_main(["--table", "2", "--macro-above", "abc"]) == 2
    assert "--macro-above must be an integer" in capsys.readouterr().err
    monkeypatch.setenv(MACRO_ABOVE_ENV, "-3")
    assert runner_main(["--table", "2"]) == 2
    assert f"{MACRO_ABOVE_ENV} must be >= 0" in capsys.readouterr().err


def test_unknown_exec_backend():
    with pytest.raises(ConfigError, match="unknown exec backend"):
        ReproConfig.from_env_and_args(exec_backend="nope")


def test_bad_jobs_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "lots")
    with pytest.raises(ValueError, match=JOBS_ENV):
        ReproConfig.from_env_and_args()
    with pytest.raises(ValueError, match=JOBS_ENV):
        default_jobs()


def test_bad_no_cache_env(monkeypatch):
    monkeypatch.setenv(NO_CACHE_ENV, "maybe")
    with pytest.raises(ConfigError, match=NO_CACHE_ENV):
        ReproConfig.from_env_and_args()


# ---------------------------------------------------------------------------
# Derived objects & immutability
# ---------------------------------------------------------------------------

def test_frozen():
    cfg = ReproConfig.from_env_and_args(jobs=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.jobs = 9


def test_with_overrides():
    cfg = ReproConfig.from_env_and_args(jobs=1)
    other = cfg.with_overrides(jobs=4, exec_backend="subprocess")
    assert (other.jobs, other.exec_backend) == (4, "subprocess")
    assert cfg.jobs == 1  # original untouched


def test_make_cache_respects_no_cache(tmp_path):
    off = ReproConfig.from_env_and_args(jobs=1, no_cache=True)
    assert off.make_cache() is None
    on = ReproConfig.from_env_and_args(jobs=1,
                                       cache_dir=str(tmp_path / "c"))
    cache = on.make_cache()
    assert cache is not None and str(cache.root) == str(tmp_path / "c")


def test_make_executor_wires_everything(tmp_path):
    cfg = ReproConfig.from_env_and_args(
        jobs=2, exec_backend="inline", cache_dir=str(tmp_path / "c"))
    ex = cfg.make_executor()
    assert ex.jobs == 2
    assert ex.backend.name == "inline"
    assert ex.cache is not None


def test_to_dict_roundtrips_fields():
    cfg = ReproConfig.from_env_and_args(jobs=2, exec_backend="subprocess")
    doc = cfg.to_dict()
    assert doc == {"jobs": 2, "macro_above": None,
                   "exec_backend": "subprocess", "cache_dir": cfg.cache_dir,
                   "cache": True, "energy": False, "telemetry": False}
