"""The shared worker loop, channel and service scaffold — failure paths.

One test body per fault, run against both multi-process tiers: every
job answers with one status per request whatever failed, a dead worker
surfaces as an error in bounded time, and ``close()`` leaves nothing
behind — not even after a construction that failed half-way.  The
cleanup tests and one answer test also run with workers started by
``spawn``, the start method of platforms without ``fork``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.exceptions import SnapshotError
from repro.networks import UpdateBatch
from repro.serving import ClusterService, ShardedClusterService
from repro.serving import cluster as cluster_module
from repro.serving import shards as shards_module
from repro.serving import workers
from repro.serving.shm import publish_generation

APA = "author-paper-author"

#: Per tier: how to build a small service, which module-level publisher
#: writes its descriptors, and the public call that republishes.
TIERS = {
    "replicated": SimpleNamespace(
        build=lambda hin, **kw: ClusterService(hin, processes=2, **kw),
        publisher=(cluster_module, "publish_generation"),
        republish=lambda service: service.publish(),
    ),
    "sharded": SimpleNamespace(
        build=lambda hin, **kw: ShardedClusterService(hin, [APA], shards=2, **kw),
        publisher=(shards_module, "publish_shard_generation"),
        republish=lambda service: service.prewarm(),
    ),
}


@pytest.fixture(params=sorted(TIERS))
def tier(request):
    return TIERS[request.param]


@pytest.fixture(params=["fork", "spawn"])
def start_method(request, monkeypatch):
    """Start the tier's workers with this method, where the platform has it."""
    if request.param not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {request.param!r} start method here")
    monkeypatch.setattr(workers, "_default_start_method", lambda: request.param)
    return request.param


def _worker_processes():
    return [
        p for p in multiprocessing.active_children()
        if p.name.startswith("repro-cluster-")
    ]


def _residue():
    """Everything a service may leave behind: shared-memory segments
    (named semaphores, ``sem.mp-*``, among them) and private descriptor
    directories."""
    shm = Path("/dev/shm")
    segments = set(shm.iterdir()) if shm.is_dir() else set()
    return segments | set(Path(tempfile.gettempdir()).glob("repro-*-*"))


def _fail_the_second_worker_start(monkeypatch):
    """The first worker process starts; starting the next raises."""
    real = workers._WorkerChannel
    started = []

    def flaky(*args, **kwargs):
        if started:
            raise OSError("cannot fork")
        started.append(real(*args, **kwargs))
        return started[0]

    monkeypatch.setattr(workers, "_WorkerChannel", flaky)


class TestFailedAttach:
    def test_every_request_gets_the_typed_error_and_the_worker_lives(
        self, small_bib, tier, monkeypatch
    ):
        """A batch sent to a worker that cannot attach its generation
        (unparseable descriptor) answers each request with the
        ``SnapshotError``; the same worker answers the next job."""
        engine = small_bib.engine()
        module, name = tier.publisher
        publish = getattr(module, name)

        def publish_garbage(*args, **kwargs):
            published = publish(*args, **kwargs)
            published.path.write_text("{ not json", encoding="utf-8")
            return published

        with tier.build(small_bib) as service:
            before = [report["generation"] for report in service.worker_memory()]
            monkeypatch.setattr(module, name, publish_garbage)
            tier.republish(service)
            statuses = service.run_group(("pathsim", APA, 2, True), [0, 1, 2])
            assert [status for status, _ in statuses] == ["err"] * 3
            assert all(isinstance(error, SnapshotError) for _, error in statuses)
            with pytest.raises(SnapshotError):
                service.similar(0, APA, 2).result(timeout=60)

            monkeypatch.setattr(module, name, publish)
            tier.republish(service)
            got = service.similar(0, APA, 2).result(timeout=60)
            assert list(got) == list(engine.pathsim_top_k(APA, 0, 2))
            # Same processes, moved on two generations — nobody died.
            after = [report["generation"] for report in service.worker_memory()]
            assert after == [generation + 2 for generation in before]


class TestAnswersOnEveryStartMethod:
    def test_answers_before_and_after_a_commit_equal_the_engine(
        self, small_bib, tier, start_method
    ):
        """Bit-identical answers at two epochs: the second needs the
        workers to see the new generation (through the shared counter on
        the replicated tier) within the future's timeout, which is
        shorter than the worker fence's."""
        engine = small_bib.engine()
        with tier.build(small_bib) as service:
            for _ in range(2):
                for author in range(small_bib.node_count("author")):
                    got = service.similar(author, APA, 2).result(timeout=30)
                    expected = engine.pathsim_top_k(APA, author, 2)
                    assert list(got) == list(expected)
                    assert got.network_version == expected.network_version
                small_bib.apply(UpdateBatch().add_edges("writes", [(0, 4)]))


class TestWorkerDeath:
    def test_killed_worker_fails_the_job_in_bounded_time(self, small_bib, tier):
        """SIGKILL under a posted job: the future resolves with the
        "worker died" error within seconds (not after the job timeout),
        and ``close()`` still returns."""
        service = tier.build(small_bib)
        try:
            [victim] = [p for p in _worker_processes() if p.name.endswith("-0")]
            os.kill(victim.pid, signal.SIGSTOP)  # the job stays posted
            future = service.similar(0, APA, 2)
            time.sleep(0.2)
            assert not future.done()
            os.kill(victim.pid, signal.SIGKILL)
            start = time.monotonic()
            with pytest.raises(RuntimeError, match="died"):
                future.result(timeout=30)
            assert time.monotonic() - start < 10
        finally:
            start = time.monotonic()
            service.close()
            assert time.monotonic() - start < 30
        assert _worker_processes() == []

    def test_a_worker_killed_idle_fails_the_next_job_as_died(self, small_bib, tier):
        """Posting to a worker that died between jobs surfaces as the
        typed "died" error through the future, not as the pipe's
        ``BrokenPipeError``."""
        with tier.build(small_bib) as service:
            for victim in _worker_processes():
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=30)
            with pytest.raises(RuntimeError, match="died"):
                service.similar(0, APA, 2).result(timeout=30)
        assert _worker_processes() == []

    def test_a_dead_last_shard_fails_each_scatter_and_wedges_nothing(
        self, small_bib
    ):
        """Only the last shard died: each scatter still collects the
        live shard's answer, so none is left unread in its pipe.  Left
        unread, they fill the pipe within a few hundred scatters and the
        next post blocks for good under the scatter mutex and the read
        lock — every later scatter and commit with it."""
        with ShardedClusterService(small_bib, [APA], shards=2) as service:
            [victim] = [p for p in _worker_processes() if p.name.endswith("-1")]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=30)
            for scatter in range(600):
                author = scatter % small_bib.node_count("author")
                with pytest.raises(RuntimeError, match="died"):
                    service.similar(author, APA, 3).result(timeout=30)
            small_bib.apply(UpdateBatch().add_edges("writes", [(0, 4)]))
            with pytest.raises(RuntimeError, match="died"):
                service.similar(0, APA, 2).result(timeout=30)
        assert _worker_processes() == []


#: Run in a child interpreter: build the ``argv[2]`` tier with workers
#: started by ``argv[1]``, print their pids, then die the way no
#: ``close()`` can follow.
_KILLED_PARENT = """
import multiprocessing, os, signal, sys
from repro.datasets import make_dblp_four_area
from repro.serving import ClusterService, ShardedClusterService, workers

method, tier, directory = sys.argv[1:]
workers._default_start_method = lambda: method
hin = make_dblp_four_area(seed=0).hin
if tier == "replicated":
    service = ClusterService(hin, processes=2, directory=directory)
else:
    service = ShardedClusterService(hin, ["A-P-A"], shards=2, directory=directory)
service.similar(0, "A-P-A", 3).result(timeout=60)
children = multiprocessing.active_children()
print(*[p.pid for p in children if p.name.startswith("repro-cluster-")], flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid: int) -> bool:
    """Whether *pid* is a live process; a zombie awaiting its reaper is not."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("tier_name", sorted(TIERS))
def test_workers_exit_when_their_parent_is_killed(start_method, tier_name, tmp_path):
    """SIGKILL runs no ``close()``: each worker must notice on its own,
    by reading end-of-file on its pipe, and exit within seconds.  Under
    ``fork`` that needs every copy of the parent's end closed in the
    workers, or they wait in ``recv()`` for good."""
    env = dict(os.environ)
    src = str(Path(workers.__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    with open(tmp_path / "stderr", "w") as stderr:
        parent = subprocess.Popen(
            [sys.executable, "-c", _KILLED_PARENT, start_method, tier_name,
             str(tmp_path / "generations")],
            stdout=subprocess.PIPE, stderr=stderr, text=True, env=env,
        )
    # Only the pid line: a stranded worker holds the pipe open, so
    # reading to end-of-file could wait for good.
    pids = [int(pid) for pid in parent.stdout.readline().split()]
    parent.stdout.close()
    try:
        assert parent.wait(timeout=120) == -signal.SIGKILL
        assert len(pids) == 2, (tmp_path / "stderr").read_text()
        deadline = time.monotonic() + 5.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if _running(pid)] == []
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.usefixtures("start_method")
class TestNothingLeftBehind:
    def test_close_removes_segments_and_private_directory(self, small_bib, tier):
        before = _residue()
        with tier.build(small_bib) as service:
            service.similar(0, APA, 2).result(timeout=60)
            tier.republish(service)
            assert _residue() - before  # it does hold resources while open
        # No gc.collect(), and ``service`` is still referenced: whatever
        # is released only when collected (a ``spawn`` queue's or lock's
        # named semaphore) would still be linked here.
        left = _residue() - before
        assert {path.name for path in left if path.name.startswith("sem.mp-")} == set()
        assert left == set()

    def test_construction_failing_half_way_cleans_up(
        self, small_bib, tier, monkeypatch
    ):
        """First generation published, worker processes half started,
        then the next start fails: everything acquired is released."""
        before = _residue()
        _fail_the_second_worker_start(monkeypatch)
        with pytest.raises(OSError, match="cannot fork"):
            tier.build(small_bib)
        assert _residue() - before == set()
        assert _worker_processes() == []

    def test_unwritable_descriptor_directory_does_not_leak_the_segment(
        self, small_bib, tier, tmp_path
    ):
        blocker = tmp_path / "file"
        blocker.write_text("in the way")
        before = _residue()
        with pytest.raises(OSError):
            tier.build(small_bib, directory=blocker / "generations")
        assert _residue() - before == set()

    # With ``directory=`` the tier writes its generations where the
    # caller says and does not remove the directory itself: each of its
    # descriptors and images has to go.
    def test_close_empties_a_caller_directory(self, small_bib, tier, tmp_path):
        with tier.build(small_bib, directory=tmp_path) as service:
            service.similar(0, APA, 2).result(timeout=60)
            tier.republish(service)
            names = {path.suffix for path in tmp_path.iterdir()}
            assert names == {".json", ".bin"}  # a descriptor beside each image
        assert list(tmp_path.iterdir()) == []

    def test_construction_failing_half_way_empties_a_caller_directory(
        self, small_bib, tier, monkeypatch, tmp_path
    ):
        _fail_the_second_worker_start(monkeypatch)
        with pytest.raises(OSError, match="cannot fork"):
            tier.build(small_bib, directory=tmp_path)
        assert list(tmp_path.iterdir()) == []
        assert _worker_processes() == []

    def test_a_failed_descriptor_write_leaves_no_file_in_a_caller_directory(
        self, small_bib, tier, monkeypatch, tmp_path
    ):
        """The image is written, then renaming the descriptor into place
        fails: the publish removes both, and the service still serves
        and closes clean."""
        real_replace = os.replace

        def replace(src, dst):
            if str(dst).endswith(".json"):
                raise OSError("descriptor not written")
            real_replace(src, dst)

        with tier.build(small_bib, directory=tmp_path) as service:
            held = sorted(path.name for path in tmp_path.iterdir())
            monkeypatch.setattr(os, "replace", replace)
            with pytest.raises(OSError, match="descriptor not written"):
                tier.republish(service)
            monkeypatch.undo()
            assert sorted(path.name for path in tmp_path.iterdir()) == held
            got = service.similar(0, APA, 2).result(timeout=60)
            assert list(got) == list(small_bib.engine().pathsim_top_k(APA, 0, 2))
        assert list(tmp_path.iterdir()) == []


class _RefusesPickling:
    """A result whose pickling raises what no pickling error names."""

    def __reduce__(self):
        raise ValueError("not today")


class TestWorkerLoopInProcess:
    """The loop body itself, driven over a pipe on a thread."""

    def test_info_error_count_and_unpicklable_results(self, small_bib, tmp_path):
        published = publish_generation(
            small_bib, small_bib.engine(), directory=tmp_path, generation=0
        )

        def execute(state, kind, payload):
            if kind == "lambda":
                return [("ok", lambda: None), ("ok", state.epoch)]
            if kind == "refuses":
                return [("ok", _RefusesPickling())]
            raise ValueError(f"unknown kind {kind!r}")

        def ask(job):
            conn.send(job)
            assert conn.poll(30)
            return conn.recv()

        conn, child = multiprocessing.Pipe()
        thread = threading.Thread(
            target=workers._worker_main,
            args=(7, child, SimpleNamespace(value=0), tmp_path, "gen", execute),
        )
        thread.start()
        try:
            job_id, [(status, report)] = ask((1, "info", None, 1, 0, None))
            assert (job_id, status) == (1, "ok")
            assert report["generation"] == 0 and report["payload_bytes"] > 0

            _, statuses = ask((2, "nonsense", None, 3, 0, None))
            assert [status for status, _ in statuses] == ["err"] * 3
            assert isinstance(statuses[0][1], ValueError)

            _, [(bad, error), (good, epoch)] = ask((3, "lambda", None, 2, 0, None))
            assert bad == "err" and "not picklable" in str(error)
            assert (good, epoch) == ("ok", 0)

            # Whatever pickling raises, the loop answers and lives on.
            _, [(status, error)] = ask((4, "refuses", None, 1, 0, None))
            assert status == "err" and "not picklable" in str(error)
            job_id, [(status, _)] = ask((5, "info", None, 1, 0, None))
            assert (job_id, status) == (5, "ok")
        finally:
            conn.send(None)
            thread.join(timeout=30)
            published.dispose()
            conn.close()
            child.close()
        assert not thread.is_alive()
