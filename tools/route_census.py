"""Count the calls one benchmark workload makes into the library.

    python tools/route_census.py hot_read                 # seed 11, 10 s
    python tools/route_census.py deep_path --seed 11 --seconds 3
    python tools/route_census.py hot_read --smoke         # tiny network

Runs one seeded ``benchmarks/perf`` workload end to end in this
interpreter (warm-up round, measured rounds and the oracle's replays;
the dataset is generated before counting starts) with a profile hook on
every thread, and prints how many times each function under
``src/repro`` was entered, most-called first.  It counts and never
times: a profile hook makes everything slower, so the counts are the
only output worth reading.  Calls made in worker *processes* (the
sharded tier's shards) are not seen; the hook lives in this process.

It answers "which route carries the traffic?" before a change merges or
deletes one.  Nothing is written under the repository: the workload's
work directory is a temporary directory, removed afterwards.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
USAGE = "python tools/route_census.py <workload> [--seed N] [--seconds S] [--smoke]"


def _harness():
    """The benchmark's harness, imported from this checkout."""
    for entry in (str(ROOT / "src"), str(ROOT / "benchmarks")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from perf import harness

    return harness


def census(workload: str, seed: int, seconds: float, smoke: bool):
    """``(counts, result)``: calls per ``(file, line, name)`` under
    ``src/repro`` during one end-to-end run, and the run's result."""
    harness = _harness()
    prefix = str(PACKAGE) + os.sep
    counts: Counter = Counter()

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                name = getattr(code, "co_qualname", code.co_name)
                counts[(code.co_filename, code.co_firstlineno, name)] += 1

    workdir = tempfile.mkdtemp(prefix="route-census-")
    saved = tempfile.tempdir
    tempfile.tempdir = workdir  # services' private directories land here
    try:
        scale = harness.SMOKE if smoke else harness.FULL
        ctx = harness.Context(scale, seed, seconds, workdir)
        run = harness.WORKLOADS[workload](ctx)
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            result = harness.run_end_to_end(run)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    finally:
        tempfile.tempdir = saved
        shutil.rmtree(workdir, ignore_errors=True)
    return counts, result


def main(argv=None) -> int:
    harness = _harness()
    parser = argparse.ArgumentParser(
        usage=USAGE, description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("workload", choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default 10; 0.15 with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny network and op counts")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = 0.15 if args.smoke else 10.0
    counts, result = census(args.workload, args.seed, seconds, args.smoke)
    print(
        f"# {args.workload} seed={args.seed} seconds={seconds:g}"
        f"{' smoke' if args.smoke else ''}: {sum(counts.values())} calls "
        f"into src/repro, {len(counts)} functions; attempted="
        f"{result['attempted']} failed={result['failed']}"
    )
    print(f"{'calls':>10}  function")
    rows = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    for (filename, line, name), n in rows:
        where = Path(filename).relative_to(PACKAGE.parent).as_posix()
        print(f"{n:>10}  {where}:{line} {name}")
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
