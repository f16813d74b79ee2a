"""The public API shown in docs cannot drift: run every example script
and execute the README's doctest blocks verbatim."""

from __future__ import annotations

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))
SCRIPTED = [
    "quickstart.py",
    "dblp_case_study.py",
    "network_olap.py",
    "streaming_updates.py",
    "concurrent_serving.py",
    "cluster_serving.py",
]


def _run(script: Path, tmp: Path) -> subprocess.CompletedProcess:
    """Run *script* with its temporary files confined to *tmp*."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["TMPDIR"] = str(tmp)
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=str(REPO_ROOT),
    )


@pytest.mark.parametrize("name", SCRIPTED)
def test_example_script_runs(name, tmp_path):
    script = REPO_ROOT / "examples" / name
    assert script.exists(), f"examples/{name} is documented but missing"
    proc = _run(script, tmp_path)
    assert proc.returncode == 0, (
        f"examples/{name} failed\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
    assert proc.stdout.strip(), f"examples/{name} printed nothing"
    left = sorted(path.name for path in tmp_path.iterdir())
    assert left == [], f"examples/{name} left temporary files behind: {left}"


def test_facade_examples_use_the_query_surface():
    """The two ported case studies really demonstrate hin.query()."""
    for name in ("dblp_case_study.py", "network_olap.py", "quickstart.py"):
        text = (REPO_ROOT / "examples" / name).read_text()
        assert ".query()" in text, f"examples/{name} does not use the facade"


def test_readme_doctests():
    """Execute the README's ```pycon blocks as doctests, verbatim."""
    readme = (REPO_ROOT / "README.md").read_text()
    parser = doctest.DocTestParser()
    test = parser.get_doctest(readme, {}, "README.md", "README.md", 0)
    assert test.examples, "README has no doctest examples to pin"
    runner = doctest.DocTestRunner(
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS
    )
    runner.run(test)
    results = runner.summarize(verbose=False)
    assert results.failed == 0, (
        f"{results.failed} README doctest(s) failed — the documented API drifted"
    )
