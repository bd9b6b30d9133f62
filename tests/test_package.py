"""The package root: what the benchmark reaches through it, and the BLAS
thread count it sets before numpy loads."""

import re
import subprocess
import sys
import types
from pathlib import Path

import semsearch

from conftest import child_env

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_benchmark_names_resolve_through_the_root():
    """Every ``sem.<name>`` and ``semsearch.<name>`` in perfbench that is not
    a submodule is exported, and every such chain resolves, so trimming the
    root fails here rather than in a benchmark run."""
    chains = set()
    for name in ("run.py", "test_checks.py"):
        text = (PERFBENCH / name).read_text(encoding="utf-8")
        chains.update(re.findall(r"\b(?:sem|semsearch)((?:\.\w+)+)", text))
    assert chains
    for chain in sorted(chains):
        names = chain[1:].split(".")
        if names[0].startswith("__"):
            continue
        if not isinstance(getattr(semsearch, names[0], None), types.ModuleType):
            assert names[0] in semsearch.__all__, chain
        obj = semsearch
        for name in names:
            assert hasattr(obj, name), chain
            obj = getattr(obj, name)


def _blas_threads(env):
    code = f"import os, semsearch; print(*(os.environ[v] for v in {BLAS_VARS!r}))"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.split()


def test_blas_threads_default_to_one_and_keep_the_users_value():
    env = child_env()
    for var in BLAS_VARS:
        env.pop(var, None)
    assert _blas_threads(env) == ["1", "1", "1"]
    env["OPENBLAS_NUM_THREADS"] = "3"
    assert _blas_threads(env) == ["3", "1", "1"]
