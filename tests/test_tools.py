"""The repository's own tooling (``tools/``)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path, capsys):
    code_lines = _load("code_lines")
    source = (
        '"""Module docstring,\ntwo lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # trailing comments do not hide code\n"
        "\n"
        "def f(x):\n"
        '    """Docstring."""\n'
        '    text = """a string that is\n'
        '    not a docstring"""\n'
        "    return (\n"
        "        x,\n"
        "        text,\n"
        "    )\n"
    )
    assert code_lines.code_lines(source) == 8
    (tmp_path / "m.py").write_text(source, encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == [
        "8", "total", str(tmp_path),
    ]


def test_code_lines_prints_usage_for_a_path_that_does_not_exist(tmp_path, capsys):
    code_lines = _load("code_lines")
    typo = str(tmp_path / "typo.py")
    for argv, named in ([], ""), (["--help"], "--help"), ([str(tmp_path), typo], typo):
        assert code_lines.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert named in err
        assert "python tools/code_lines.py <dir-or-file>..." in err



def _listing(*dirs):
    return [
        sorted(p.name for p in d.iterdir() if p.name != "__pycache__") for d in dirs
    ]


def test_route_census_smoke_counts_the_top_k_route(capsys):
    """One ``--smoke`` workload run: per-function call counts under
    ``src/repro``, most-called first, with nothing left in the checkout."""
    route_census = _load("route_census")
    watched = (TOOLS.parent, TOOLS.parent / "benchmarks" / "perf")
    before = _listing(*watched)
    assert route_census.main(["hot_read", "--smoke", "--seed", "3"]) == 0
    header, columns, *rows = capsys.readouterr().out.splitlines()
    assert header.startswith("# hot_read seed=3 seconds=0.15 smoke:")
    assert header.endswith("failed=0") and columns.split() == ["calls", "function"]
    rows = [row.split() for row in rows]
    counts = [int(n) for n, _, _ in rows]
    assert counts == sorted(counts, reverse=True) and counts[-1] > 0
    route = [w for _, w, name in rows if name.split(".")[-1] == "_pathsim_top_k"]
    assert len(route) == 1 and route[0].startswith("repro/engine/engine.py:")
    assert _listing(*watched) == before


def test_kernel_costs_smoke_prints_one_row_per_deep_path(capsys):
    """``--smoke``: the cost table with each path's count, and one
    deep_path round's cache entries, held diagonals and first-touch
    picks, one row per deep path each, with nothing left in the
    checkout."""
    kernel_costs = _load("kernel_costs")
    deep_paths = kernel_costs._harness().DEEP_PATHS
    watched = (TOOLS.parent, TOOLS.parent / "benchmarks" / "perf")
    before = _listing(*watched)
    assert kernel_costs.main(["--smoke", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    n = len(deep_paths)
    assert lines[0].startswith("# kernel costs, smoke network, seed=3")
    assert lines[1].split()[1:] == [
        "first_mat_ms", "mat_ms/q", "fused_ms/q", "held_ms/q", "stream_ms", "nnz(W)",
        "bound(W)", "bound/rel", "auto",
    ]
    table = [row.split() for row in lines[2 : 2 + n]]
    assert [row[0] for row in table] == deep_paths
    assert all(row[-1] in ("fused", "materialize") for row in table)
    # The count bounds nnz(W), and its ratio to the relations decides.
    assert all(int(row[7]) >= int(row[6]) > 0 and float(row[8]) > 0 for row in table)
    from repro.engine.engine import _MATERIALIZE_COST_RATIO as ratio

    assert all((float(row[8]) <= ratio) == (row[-1] == "materialize") for row in table)
    # A forced-fused engine holds every path's diagonal after its first
    # query, so every path has a fused, a held and a stream cost.
    assert all(float(row[3]) > 0 and float(row[4]) > 0 and float(row[5]) > 0 for row in table)
    assert lines[2 + n].startswith("# one deep_path round:")
    assert lines[2 + n].endswith("errors=0")
    held = [row.split() for row in lines[3 + n :]]
    assert [row[0] for row in held] == deep_paths
    assert all(row[1:3] == ["pathsim", "entry"] for row in held)
    assert all(row[3] in ("cached", "absent") for row in held)
    assert all(row[4] == "diagonal" and row[5] in ("held", "absent") for row in held)
    assert all(row[6:8] == ["first", "touch"] for row in held)
    # A path built at first touch holds its entry; one kept fused holds
    # its diagonal and no entry.
    assert all(row[8] in ("fused", "materialize") for row in held)
    assert all(row[3] == "cached" for row in held if row[8] == "materialize")
    assert all(row[3:6] == ["absent", "diagonal", "held"] for row in held if row[8] == "fused")
    assert _listing(*watched) == before


def test_kernel_costs_smoke_prints_the_reach_route(capsys):
    """``reach_main --smoke``: one row per hot or deep path whose half
    is read by column for free, with its flop ratios ordered and a share
    of rows in [0, 1], and nothing left in the checkout."""
    kernel_costs = _load("kernel_costs")
    watched = (TOOLS.parent, TOOLS.parent / "benchmarks" / "perf")
    before = _listing(*watched)
    assert kernel_costs.reach_main(["--smoke", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# reach route, smoke network, seed=3")
    assert lines[1].split() == [
        "path", "nnz(W)", "reach_ms/q", "matvec_ms/q", "flops/nnz_med", "p90", "max",
        "reach_rows", "C*",
    ]
    rows = [row.split() for row in lines[2:]]
    assert [row[0] for row in rows] == ["A-P-A", "A-P-A-P-A", "P-A-P-A-P"]
    for row in rows:
        median, p90, peak, share = (float(x) for x in row[4:8])
        assert 0 <= median <= p90 <= peak and 0 <= share <= 1
        assert float(row[2]) > 0 and float(row[3]) > 0
    assert _listing(*watched) == before


def test_pairs_smoke_runs_a_checkout_against_itself(capsys):
    """One ``--smoke`` pair of this checkout against itself: each run is
    listed with its ``correct`` / ``failed``, every end-to-end metric gets
    its row, and nothing is left in the checkout."""
    pairs = _load("pairs")
    watched = (TOOLS.parent, TOOLS.parent / "benchmarks" / "perf")
    before = _listing(*watched)
    root = str(TOOLS.parent)
    argv = [root, root, "--smoke", "--pairs", "1", "--workload", "hot_read"]
    assert pairs.main(argv) == 0
    header, columns, run, table, *rows = capsys.readouterr().out.splitlines()
    assert header == "# hot_read pairs=1 seeds=11-20 smoke"
    assert columns.split() == ["pair", "seed", "first", "parent", "change"]
    assert run.split() == ["1", "11", "parent"] + ["correct=True", "failed=0"] * 2
    assert table.split() == [
        "metric", "unit", "parent", "change", "change%", "wins", "parent_iqr",
    ]
    names = ["setup_s", "qps", "similar_p50_ms", "commit_p50_ms", "peak_rss_mb"]
    assert [row.split()[0] for row in rows] == names
    for row in rows:
        _name, _unit, parent, change, percent, wins, iqr = row.split()
        assert float(parent) > 0 and float(change) > 0
        assert percent.endswith("%") and wins in ("0/1", "1/1") and float(iqr) == 0.0
    assert _listing(*watched) == before
