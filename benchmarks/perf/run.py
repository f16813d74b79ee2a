"""One command for the repository's performance benchmark.

    python3 benchmarks/perf/run.py                      # all workloads, end to end
    python3 benchmarks/perf/run.py --trace 1            # all workloads, per layer
    python3 benchmarks/perf/run.py --workload hot_read --seed 12
    python3 benchmarks/perf/run.py --repeat 10 --out A  # ten seeds per workload
    python3 benchmarks/perf/run.py --compare A/results-e2e.json B/results-e2e.json

With ``--workload`` one workload runs and the last line of standard
output is the result object ``BENCHMARK.json``'s contract describes.
Without it, every workload runs in a fresh interpreter of its own (so
``peak_rss_mb`` is that workload's peak) and a table of medians is
printed.  The exit code is non-zero when any operation failed or any
answer differs from the cold oracle's.  Run as a script, the work happens
in a child session that this process supervises (:func:`supervise`), so
the command returns only when every process it started has ended.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SHM = Path("/dev/shm")


def shm_entries() -> set[str]:
    return set(os.listdir(SHM)) if SHM.is_dir() else set()


def environment() -> dict:
    """Where the numbers were taken: commit, cores, versions, load."""
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():  # never ask git to look above the checkout
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


# ----------------------------------------------------------------------
# One workload, in this interpreter
# ----------------------------------------------------------------------
def run_one(args) -> int:
    from perf import harness, layers

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    tempfile.tempdir = str(workdir)  # services' private directories land here
    shm_before = shm_entries()
    scale = harness.SMOKE if args.smoke else harness.FULL
    env = environment()
    try:
        ctx = harness.Context(scale, args.seed, args.seconds, workdir)
        workload = harness.WORKLOADS[args.workload](ctx)
        if args.trace:
            result = layers.run_traced(
                workload, out / f"trace-{args.workload}.jsonl"
            )
            names = [m["name"] for m in SPEC["per_layer"]]
        else:
            result = harness.run_end_to_end(
                workload, inject_wrong=args.inject_wrong
            )
            names = [m["name"] for m in SPEC["end_to_end"]]
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
    leaked = sorted(shm_entries() - shm_before)
    if args.trace:
        result["metrics"]["shm.leaked_segments"] = float(len(leaked))
    result["failed"] += len(leaked)
    result["leaked_segments"] = leaked

    samples = result.get("samples", {})
    print(f"# {args.workload} seed={args.seed} digest={result['digest'][:16]}")
    for name in names:
        note = _sample_note(name, samples)
        print(f"{name:32s} {result['metrics'][name]:14.4f} {UNITS[name]:10s}{note}")
    for name, value in result.get("tails", {}).items():
        note = _sample_note(name, samples)
        print(f"{name:32s} {value:14.4f} {'ms':10s}{note} (no bound)")
    if "slowdown" in result:  # end-to-end timings are at reference speed
        print(
            f"# the yardstick took {result['slowdown']:.3f} x its reference "
            "time; as measured: "
            + ", ".join(f"{k}={v:.4f}" for k, v in result["as_measured"].items())
        )
    print(
        f"# attempted={result['attempted']} failed={result['failed']} "
        f"checked_against_oracle={result.get('checked', 0)}"
    )
    kind = "trace" if args.trace else "e2e"
    detail = out / f"{args.workload}-{kind}-seed{args.seed}.json"
    detail.write_text(
        json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                    **result}, indent=1)
    )
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": UNITS[name]}
                    for name in names
                },
            }
        )
    )
    return 0 if correct else 1


def _sample_note(name: str, samples: dict) -> str:
    for key in ("similar", "commit"):
        if name.startswith(key) and key in samples:
            return f" n={samples[key]}"
    if name in ("qps", "setup_s") and "rounds" in samples:
        return f" rounds={samples['rounds']}"
    return ""


# ----------------------------------------------------------------------
# Every workload, one fresh interpreter each
# ----------------------------------------------------------------------
def run_all(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "e2e"
    names = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    workloads = [w["name"] for w in SPEC["workloads"]]
    report = {"env": environment(), "kind": kind, "seconds": args.seconds,
              "workloads": {}}
    status = 0
    for workload in workloads:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(out),
            ] + (["--smoke"] if args.smoke else [])
            started = time.perf_counter()
            done = subprocess.run(command, capture_output=True, text=True)
            wall = time.perf_counter() - started
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                status = 1
                sys.stderr.write(done.stdout[-2000:] + done.stderr[-4000:])
            if lines and lines[-1].startswith("{"):
                runs.append({"seed": seed, "wall_s": wall,
                             **json.loads(lines[-1])})
            print(f"{workload} seed={seed} exit={done.returncode} "
                  f"wall={wall:.1f}s", flush=True)
        report["workloads"][workload] = summarise(runs, names)
    (out / f"results-{kind}.json").write_text(json.dumps(report, indent=1))
    print_table(report, names)
    return status


def summarise(runs: list[dict], names: list[str]) -> dict:
    """Median, min–max and quartile spread of each metric over *runs*."""
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        if not values:
            continue
        median = statistics.median(values)
        spread = None
        if len(values) >= 4 and median:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median)
        summary[name] = {"median": median, "min": min(values),
                         "max": max(values), "spread": spread,
                         "unit": UNITS[name], "n": len(values)}
    return {
        "runs": runs,
        "summary": summary,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failed_share": (
            sum(r["failed"] for r in runs)
            / max(1, sum(r["attempted"] for r in runs))
        ),
        "wall_s": [r["wall_s"] for r in runs],
    }


def print_table(report: dict, names: list[str]) -> None:
    workloads = list(report["workloads"])
    print(f"\n{'metric':32s} {'unit':10s}" + "".join(f"{w:>16s}" for w in workloads))
    for name in names:
        cells = []
        for w in workloads:
            entry = report["workloads"][w]["summary"].get(name)
            cells.append(f"{entry['median']:16.4f}" if entry else f"{'-':>16s}")
        print(f"{name:32s} {UNITS[name]:10s}" + "".join(cells))
    print(f"{'failed_share':32s} {'ratio':10s}" + "".join(
        f"{report['workloads'][w]['failed_share']:16.6f}" for w in workloads
    ))


# ----------------------------------------------------------------------
# Parent-vs-change table
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """Per workload row: each end-to-end metric of B against A, relative to
    the metric's bound; ``unresolved`` where either side's run-to-run
    spread is wider than the bound, so the difference cannot be called."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    status = 0
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, "
              f"bound {bound:.0%})")
        for workload, side_a in a["workloads"].items():
            ea = side_a["summary"].get(name)
            eb = b["workloads"].get(workload, {}).get("summary", {}).get(name)
            if not ea or not eb:
                continue
            worse_by = sign * (eb["median"] - ea["median"]) / abs(ea["median"])
            spread = max(ea["spread"] or 0.0, eb["spread"] or 0.0)
            if spread > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict, status = "WORSE", 1
            else:
                verdict = "better" if worse_by < -spread else "same"
            print(f"  {workload:16s} {ea['median']:14.4f} -> {eb['median']:14.4f} "
                  f"{-worse_by:+8.1%}  spread {spread:6.1%}  {verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--repeat", type=int, default=1,
                        help="seeds per workload (all-workloads mode)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny network and op counts (harness self-test)")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="corrupt one answer to prove the oracle bites")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return run_one(args) if args.workload else run_all(args)


# ----------------------------------------------------------------------
# Nothing outlives the command
# ----------------------------------------------------------------------
CHILD_FLAG = "--supervised"
HARD_LIMIT_S = 170.0  # the contract allows a run 180 s
PR_SET_CHILD_SUBREAPER = 36


def supervise(argv: list[str]) -> int:
    """Run the benchmark in a child session and return only when every
    process that session started has ended and been reaped.

    The multi-process tiers start helpers that end *because* the
    benchmark's interpreter ended — ``multiprocessing``'s resource tracker
    reads EOF on its pipe and only then unlinks what leaked and exits — so
    the interpreter that ran the workload cannot wait for them itself.
    This one can: it is their sub-reaper, so an orphan is re-parented here
    rather than to init, and ``waitpid`` sees it go.  Whatever is still
    alive after a grace period (or when the time limit or a signal ends
    the run) is killed, session-wide, and waited for too.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")

    def interrupted(signum, _frame):
        raise SystemExit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, interrupted)
    # One CPU for the benchmark and everything it starts (README, "One
    # CPU"): with its threads and workers spread over the box's vCPUs, what
    # a run measured was where the host had put those vCPUs that minute.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), CHILD_FLAG, *argv],
        start_new_session=True,
    )
    # one workload is one run of the contract; the all-workloads table is not
    limit = HARD_LIMIT_S if "--workload" in argv else None
    code = 1
    try:
        code = child.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: no result after {limit:.0f} s, stopping\n")
    finally:
        if child.poll() is None:
            _kill_session(child.pid)
            child.wait()
        stragglers = _reap_all(grace_s=10.0, session=child.pid)
    if stragglers:
        sys.stderr.write("run.py: had to kill processes the run left behind\n")
        code = code or 1
    return code


def _kill_session(session: int) -> None:
    try:
        os.killpg(session, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_all(grace_s: float, session: int) -> int:
    """Wait for every remaining descendant; kill the session when
    *grace_s* have passed.  Returns how many times it had to."""
    deadline = time.monotonic() + grace_s
    kills = 0
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return kills  # no descendant is left, alive or zombie
        if pid:
            continue
        if time.monotonic() > deadline:
            if kills == 3:  # it left the session; nothing more to try
                return kills
            kills += 1
            _kill_session(session)
            deadline = time.monotonic() + grace_s
        time.sleep(0.005)


if __name__ == "__main__":
    if CHILD_FLAG in sys.argv[1:]:
        # Import the benchmark as the package `perf` (its modules are
        # named for what they hold — `trace` — so the script's own
        # directory must not shadow the standard library) and the program
        # from this checkout's source tree.
        sys.path[0:1] = [str(HERE.parent), str(ROOT / "src")]
        sys.exit(main([a for a in sys.argv[1:] if a != CHILD_FLAG]))
    sys.exit(supervise(sys.argv[1:]))
