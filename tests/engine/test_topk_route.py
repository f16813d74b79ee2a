"""The engine's one PathSim top-k route, and the doors in front of it.

A query of one is a batch of one: ``pathsim_top_k`` and
``pathsim_top_k_batch`` (and ``pathsim_row`` / ``pathsim_rows``) reach
the same route, and a one-row block is scored by one CSR mat-vec read
straight off ``W``'s arrays (``engine/kernels.py``).  The doors —
which query objects and which ``k`` a request may name — are one rule
each, on every entry point.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets import make_dblp_four_area
from repro.engine import MetaPathEngine, kernels
from repro.exceptions import MetaPathError, NodeNotFoundError
from repro.serving import QueryService

APA = "author-paper-author"
APVPA = "author-paper-venue-paper-author"


class _UnindexableW(sp.csr_matrix):
    """A half product that fails the test if anything indexes it."""

    def __getitem__(self, key):
        raise AssertionError(f"W was indexed with {key!r}")


@pytest.fixture
def guarded(small_bib, monkeypatch):
    """A materialize engine whose cached ``W`` refuses indexing, and a
    log of the kernel calls it makes."""
    engine = MetaPathEngine(small_bib, mode="materialize").prewarm([APVPA])
    key = ("pathsim", engine.symmetric_path(APVPA).canonical_key())
    w, diag = engine._cache.peek(key)
    engine._cache.replace(key, (_UnindexableW(w), diag))
    calls = []
    for name in ("pathsim_solo", "pathsim_block"):
        real = getattr(kernels, name)

        def spy(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(kernels, name, spy)
    return engine, calls


class TestOneRoute:
    def test_a_query_of_one_is_one_mat_vec_and_never_indexes_w(self, guarded):
        """What keeps ``hot_read``'s p50: one query costs one
        ``pathsim_solo`` over a row read off the CSR arrays — no block
        product, no ``w[idx]`` / ``w[i:i+1]`` slice — whichever entry
        point it comes through."""
        engine, calls = guarded
        requests = [
            lambda: engine.pathsim_top_k(APVPA, "a1", 2),
            lambda: engine.pathsim_top_k_batch(APVPA, ["a1"], 2)[0],
            lambda: engine.pathsim_row(APVPA, "a1"),
        ]
        answers = []
        for request in requests:
            calls.clear()
            answers.append(request())
            assert calls == ["pathsim_solo"]
        assert list(answers[0]) == list(answers[1])

    def test_a_batch_is_one_block_product(self, small_bib, monkeypatch):
        engine = MetaPathEngine(small_bib, mode="materialize")
        calls = []
        real = kernels.pathsim_block
        monkeypatch.setattr(
            kernels, "pathsim_block",
            lambda *a: calls.append(a[2].shape[0]) or real(*a),
        )
        results = engine.pathsim_top_k_batch(APVPA, [0, 1, 2], 2)
        assert calls == [3] and len(results) == 3

    def test_top_k_and_row_delegate_to_the_batch_route(self, small_bib, monkeypatch):
        engine = MetaPathEngine(small_bib)
        seen = []
        real_route = MetaPathEngine._pathsim_top_k
        real_rows = MetaPathEngine.pathsim_rows

        def route(self, path, queries, k, exclude, mode=None):
            seen.append(("route", list(queries), mode))
            return real_route(self, path, queries, k, exclude, mode)

        def rows(self, path, queries):
            seen.append(("rows", list(queries)))
            return real_rows(self, path, queries)

        monkeypatch.setattr(MetaPathEngine, "_pathsim_top_k", route)
        monkeypatch.setattr(MetaPathEngine, "pathsim_rows", rows)
        engine.pathsim_top_k(APA, "a0", 2, mode="materialize")
        engine.pathsim_top_k_batch(APA, ["a0", "a2"], 2)
        engine.pathsim_row(APA, "a3")
        assert seen == [
            ("route", ["a0"], "materialize"),
            ("route", ["a0", "a2"], None),
            ("rows", ["a3"]),
        ]

    def test_a_fused_batch_resolves_its_chains_once(self, small_bib, monkeypatch):
        resolved = []
        real = MetaPathEngine._half_chains

        def spy(engine, key):
            resolved.append(key)
            return real(engine, key)

        monkeypatch.setattr(MetaPathEngine, "_half_chains", spy)
        engine = MetaPathEngine(small_bib, mode="fused")
        batch = engine.pathsim_top_k_batch(APVPA, [0, 2, 3], 2)
        assert resolved == [engine.symmetric_path(APVPA).canonical_key()]
        for q, result in zip([0, 2, 3], batch):
            assert list(result) == list(engine.pathsim_top_k(APVPA, q, 2))
        assert len(resolved) == 4  # one more per single query

    @pytest.mark.parametrize("mode", ["auto", "fused", "materialize"])
    def test_an_empty_batch_runs_no_kernel(self, mode):
        """No query holds no diagonal, builds no ``W`` and counts no
        dispatch, on every mode; a bad ``k`` or an asymmetric path is
        still refused."""
        engine = MetaPathEngine(make_dblp_four_area(seed=0).hin, mode=mode)
        before = (dict(engine._paths), len(engine._cache), dict(engine.kernel_counters))
        assert engine.pathsim_top_k_batch("A-P-A-P-A", [], 5) == []
        assert (engine._paths, len(engine._cache), engine.kernel_counters) == before
        with pytest.raises(ValueError, match="k must be >= 0"):
            engine.pathsim_top_k_batch("A-P-A-P-A", [], -1)
        with pytest.raises(MetaPathError, match="symmetric"):
            engine.pathsim_top_k_batch("A-P-V", [], 5)

    def test_the_block_kernel_scores_one_row_by_its_mat_vec(self, small_bib):
        engine = MetaPathEngine(small_bib, mode="materialize")
        w, diag = engine._pathsim_parts(APVPA)
        q_rows, q_diag = w[[2]], diag[[2]]
        block = kernels.pathsim_block(w, diag, q_rows, q_diag)
        solo = kernels.pathsim_solo(w, diag, kernels.dense_row(w, 2), diag[2])
        assert block.shape == (1, w.shape[0])
        assert np.array_equal(block[0], solo)
        assert np.array_equal(kernels.pathsim_rows(w, diag, [2]), block)


def _doors(small_bib):
    """Every top-k entry point a query object or ``k`` passes through,
    as ``name -> call(obj, k)``."""
    engine = small_bib.engine()
    session = small_bib.query()
    return {
        "engine.pathsim_top_k": lambda o, k: engine.pathsim_top_k(APA, o, k),
        "engine.pathsim_top_k_batch": lambda o, k: engine.pathsim_top_k_batch(
            APA, [o], k
        ),
        "engine.top_k_connectivity": lambda o, k: engine.top_k_connectivity(
            APA, o, k
        ),
        "session.similar": lambda o, k: session.similar(o, APA, k),
        "session.similar(simrank)": lambda o, k: session.similar(
            o, APA, k, measure="simrank"
        ),
    }


class TestQueryAndKDoors:
    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_a_bool_query_is_a_name_that_is_not_found(self, small_bib, flag):
        """``True`` used to serve author index 1 (``isinstance(True,
        int)``); it is looked up as a name, like ``np.True_`` already was."""
        doors = _doors(small_bib)
        for name in (
            "engine.pathsim_top_k",
            "engine.pathsim_top_k_batch",
            "engine.top_k_connectivity",
            "session.similar",
        ):
            with pytest.raises(NodeNotFoundError):
                doors[name](flag, 2)
        with QueryService(small_bib, workers=1) as svc:
            for future in (
                svc.similar(flag, APA, 2),
                svc.connected(flag, APA, 2),
            ):
                with pytest.raises(NodeNotFoundError):
                    future.result(timeout=60)

    @pytest.mark.parametrize("k", [2.0, True, False, np.True_, np.float64(2)])
    def test_a_k_that_is_not_an_integer_is_a_type_error(self, small_bib, k):
        """``k=2.0`` used to escape as numpy's "Partition index must be
        integer" (SimRank: "slice indices must be integers"), and
        ``k=True`` meant ``k=1``."""
        for name, door in _doors(small_bib).items():
            with pytest.raises(TypeError, match="k must be an integer"):
                door("a0", k)
        with QueryService(small_bib, workers=1) as svc:
            for submit in (svc.similar, svc.connected, svc.watch):
                with pytest.raises(TypeError, match="k must be an integer"):
                    submit("a0", APA, k).result(timeout=60)

    def test_a_negative_k_is_a_value_error_on_every_door(self, small_bib):
        for door in _doors(small_bib).values():
            with pytest.raises(ValueError, match="k must be >= 0"):
                door("a0", -1)

    def test_integer_k_of_any_kind_still_answers(self, small_bib):
        expected = small_bib.engine().pathsim_top_k(APA, "a0", 2)
        for k in (2, np.int64(2), np.int32(2)):
            got = _doors(small_bib)["session.similar"]("a0", k)
            assert list(got) == list(expected)

    def test_a_bool_never_coalesces_with_the_index_it_equals(self, small_bib):
        """``True == 1`` and ``hash(True) == hash(1)``: a coalescing key
        without the object's type let ``similar(True)`` join author 1's
        in-flight request and receive its answer."""
        with QueryService(small_bib, workers=1) as svc:
            with small_bib.engine().lock.write():  # hold both in the queue
                one = svc.similar(1, APA, 2)
                flag = svc.similar(True, APA, 2)
            assert one.result(timeout=60).query == "a1"
            with pytest.raises(NodeNotFoundError):
                flag.result(timeout=60)
