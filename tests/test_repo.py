"""Repository hygiene: nothing that .gitignore excludes is tracked, and
every name the benchmark's tracer wraps or reads still exists."""

import importlib
import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(),
    reason="needs git and a git checkout",
)
def test_no_ignored_file_is_tracked():
    out = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == ""


def test_benchmark_hooks_resolve():
    # a refactor that deletes a traced name would otherwise break only
    # the benchmark, which tier-1 does not run
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, modname, attr in tracer.SPANS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(meth)), attr
        else:
            assert callable(getattr(owner, attr, None)), attr
    assert importlib.import_module("treealg._kernel").BACKEND
