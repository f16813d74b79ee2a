"""Paired benchmark runs: one workload, two checkouts, alternating.

    python tools/pairs.py PARENT CHANGE --workload scaleout_read --pairs 10 --seeds 31-40
    python tools/pairs.py . . --workload hot_read --pairs 1 --smoke

Copies both checkouts the same way under one temporary root (``tree-a``
for PARENT, ``tree-b`` for CHANGE: same depth, same name length), then
runs each copy's own ``benchmarks/perf/run.py`` once per pair, on the
pair's seed, the parent first in odd pairs and the change first in even
ones, so drift over the session falls on both sides alike.  Pair *i*
runs seed ``S + i`` of ``--seeds S-T``, wrapping round the range.
Nothing is written under either checkout: the copies, their ``--out``
directories and their bytecode live under the temporary root, which is
removed afterwards.

Prints every run (seed, which side ran first, each side's ``correct``
and ``failed``), then per end-to-end metric of the change's
``BENCHMARK.json``: the parent median, the change median, the change in
percent, the change's wins x/N (pairs where the change is better in the
metric's direction; a tie is no win) and the interquartile range of the
parent's runs.  The exit code is non-zero if any run was not
``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

USAGE = (
    "python tools/pairs.py PARENT CHANGE --workload W --pairs N --seeds S-T "
    "[--seconds X] [--smoke]"
)
SIDES = ("parent", "change")


def _ignore(directory, names) -> list[str]:
    """What a copy leaves out: version control, caches, benchmark output."""
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
    if Path(directory).name == "perf":
        skip.add("out")
    return [name for name in names if name in skip or name.endswith(".egg-info")]


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run(tree: Path, out: Path, workload: str, seed: int, seconds, smoke: bool) -> dict:
    """One benchmark run of *tree*'s own ``run.py``: its result object,
    marked ``correct: False`` when the run exited non-zero or printed
    none."""
    command = [
        sys.executable, str(tree / "benchmarks" / "perf" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--out", str(out),
    ]
    command += ["--seconds", str(seconds)] if seconds is not None else []
    command += ["--smoke"] if smoke else []
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    else:
        result = {"correct": False, "failed": None, "metrics": {}}
    if done.returncode != 0:
        result["correct"] = False
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-4000:])
    return result


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def report(results: list[dict], spec: dict) -> None:
    """The per-metric table over paired *results* (``{side: result}``)."""
    print(
        f"{'metric':16s} {'unit':8s} {'parent':>12s} {'change':>12s} "
        f"{'change%':>8s} {'wins':>7s} {'parent_iqr':>12s}"
    )
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        pairs = [
            (pair["parent"]["metrics"][name]["value"], pair["change"]["metrics"][name]["value"])
            for pair in results
            if name in pair["parent"]["metrics"] and name in pair["change"]["metrics"]
        ]
        if not pairs:
            print(f"{name:16s} {metric['unit']:8s} {'-':>12s} {'-':>12s}")
            continue
        parent = statistics.median(a for a, _ in pairs)
        change = statistics.median(b for _, b in pairs)
        percent = (change - parent) / abs(parent) * 100 if parent else float("nan")
        wins = sum(sign * (b - a) < 0 for a, b in pairs)
        print(
            f"{name:16s} {metric['unit']:8s} {parent:12.4f} {change:12.4f} "
            f"{percent:+7.1f}% {f'{wins}/{len(pairs)}':>7s} "
            f"{_iqr([a for a, _ in pairs]):12.4f}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(usage=USAGE, description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=None,
                        help="pairs to run (default: one per seed)")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("11-20"),
                        metavar="S-T", help="seed range (default 11-20)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run.py's)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny network and op counts (self-test)")
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "benchmarks" / "perf" / "run.py").is_file():
            parser.error(f"{checkout} holds no benchmarks/perf/run.py")
    count = len(args.seeds) if args.pairs is None else args.pairs
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    root = Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        trees = {}
        for side, checkout, name in zip(SIDES, (args.parent, args.change), "ab"):
            trees[side] = root / f"tree-{name}"
            shutil.copytree(checkout, trees[side], ignore=_ignore)
        print(
            f"# {args.workload} pairs={count} seeds={args.seeds[0]}-{args.seeds[-1]}"
            f"{'' if args.seconds is None else f' seconds={args.seconds:g}'}"
            f"{' smoke' if args.smoke else ''}"
        )
        print(f"{'pair':>4s} {'seed':>5s} {'first':6s} {'parent':24s} {'change':24s}")
        results = []
        for i in range(count):
            seed = args.seeds[i % len(args.seeds)]
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {
                side: run(trees[side], root / f"out-{side}", args.workload, seed,
                          args.seconds, args.smoke)
                for side in order
            }
            results.append(pair)
            cells = [f"correct={pair[s]['correct']} failed={pair[s]['failed']}" for s in SIDES]
            print(f"{i + 1:4d} {seed:5d} {order[0]:6s} {cells[0]:24s} {cells[1]:24s}", flush=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    report(results, spec)
    return 0 if all(pair[s]["correct"] for pair in results for s in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())
