"""Documentation cannot drift: every ```pycon block in docs/*.md runs
as a doctest, and every intra-repo markdown link must resolve."""

from __future__ import annotations

import doctest
import importlib
import re

import pytest

from tests.test_examples import REPO_ROOT

DOC_FILES = sorted((REPO_ROOT / "docs").glob("*.md"))
LINKED_FILES = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "benchmarks" / "README.md",
    *DOC_FILES,
]

_FENCE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)
_LINK = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")


def _pycon_blocks(text: str) -> str:
    """Concatenate a file's ```pycon fences (one shared doctest scope)."""
    return "\n".join(
        body for lang, body in _FENCE.findall(text) if lang == "pycon"
    )


def _strip_fences(text: str) -> str:
    return _FENCE.sub("", text)


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_doc_snippets_run(path):
    """```pycon blocks in docs/*.md execute exactly as printed."""
    source = _pycon_blocks(path.read_text(encoding="utf-8"))
    if not source:
        pytest.skip(f"{path.name} has no pycon snippets")
    parser = doctest.DocTestParser()
    test = parser.get_doctest(source, {}, path.name, str(path), 0)
    assert test.examples, f"{path.name} pycon block parsed to no examples"
    runner = doctest.DocTestRunner(
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS
    )
    runner.run(test)
    results = runner.summarize(verbose=False)
    assert results.failed == 0, (
        f"{results.failed} doc snippet(s) in {path.name} failed — "
        f"the documented API drifted"
    )


@pytest.mark.parametrize("path", LINKED_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_intra_repo_links_resolve(path):
    """Relative markdown links point at files that exist."""
    text = _strip_fences(path.read_text(encoding="utf-8"))
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "#", "mailto:")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{path} has broken intra-repo links: {broken}"


def test_every_benchmark_is_documented():
    """docs/BENCHMARKS.md covers every bench_e*.py file by name."""
    doc = (REPO_ROOT / "docs" / "BENCHMARKS.md").read_text(encoding="utf-8")
    missing = [
        bench.name
        for bench in sorted((REPO_ROOT / "benchmarks").glob("bench_e*.py"))
        if bench.name not in doc
    ]
    assert not missing, f"benchmarks missing from docs/BENCHMARKS.md: {missing}"


def test_every_package_has_a_module_map_row():
    """README's module map names every package under src/repro/."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    missing = [
        package.parent.name
        for package in sorted((REPO_ROOT / "src" / "repro").glob("*/__init__.py"))
        if f"\n| `{package.parent.name}/` |" not in readme
    ]
    assert not missing, f"packages missing from README's module map: {missing}"


def test_backticked_container_names_resolve():
    """Every `shm.<name>` / `snapshot.<name>` the docs mention exists on
    that module — a deleted function cannot live on in the prose."""
    missing = []
    for path in DOC_FILES:
        text = path.read_text(encoding="utf-8")
        for module, name in re.findall(r"`(shm|snapshot)\.(\w+)[`(]", text):
            if not hasattr(importlib.import_module(f"repro.serving.{module}"), name):
                missing.append(f"{path.name}: {module}.{name}")
    assert not missing, f"docs name functions that do not exist: {missing}"
