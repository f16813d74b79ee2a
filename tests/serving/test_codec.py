"""The state codec and its container: one set of functions under
snapshots, replicated generations and shard generations
(``repro.serving.shm``)."""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_dblp_four_area
from repro.engine import MetaPathEngine
from repro.networks import UpdateBatch
from repro.serving import load_snapshot, network_fingerprint, save_snapshot
from repro.serving.shards import ShardPlan, _ServedPath, publish_shard_generation
from repro.serving.shm import (
    _layout,
    _publish,
    _read_csr,
    _read_file,
    _write_csr,
    _write_document,
    attach_generation,
    publish_generation,
)

APA = "author-paper-author"
PAP = "paper-author-paper"
PVP = "paper-venue-paper"
APVPA = "author-paper-venue-paper-author"

_SECTION = ("epoch", "node_types", "node_counts", "relations", "names")


class TestOneCodec:
    def test_manifest_descriptor_and_shard_descriptor_share_their_sections(
        self, small_bib, tmp_path
    ):
        engine = small_bib.engine()
        # Single-step half products: the cache holds the three PathSim
        # entries and nothing else, so a shard descriptor can be held to
        # the manifest entry for entry.
        engine.prewarm([APA, PAP, PVP])
        small_bib.apply(UpdateBatch().add_edges("writes", [(0, 4)]))

        def written():
            manifest = save_snapshot(small_bib, tmp_path / "snap")
            published = publish_generation(
                small_bib, engine, directory=tmp_path, generation=0
            )
            try:
                return manifest, json.loads(published.path.read_text())
            finally:
                published.dispose()

        manifest, descriptor = written()
        assert manifest["epoch"] == 1 and len(manifest["entries"]) == 3
        for key in (*_SECTION, "entries"):
            assert manifest[key] == descriptor[key], key
        # One image schema: a manifest is a descriptor with extra fields,
        # its one image holding the same arrays at the same offsets.
        assert set(manifest["source"]) == set(descriptor["source"]) == {"file", "arrays"}
        assert manifest["source"]["arrays"] == descriptor["source"]["arrays"]
        assert "files" not in manifest and "arrays" not in manifest
        # A forward one-step half *is* its relation matrix, so both
        # documents name the relation's arrays for it instead of copying
        # them; ``P-A``'s half is a transpose and owns its arrays.
        assert sorted(e["csr"] for e in manifest["entries"] if "csr" in e) == [
            "rel/published_in", "rel/writes"
        ]

        by_token = {
            spath.token: spath
            for spath in (_ServedPath(engine.symmetric_path(p)) for p in (APA, PAP, PVP))
        }
        served = [
            by_token[tuple((name, fwd) for name, fwd in entry["steps"])]
            for entry in manifest["entries"]
        ]
        plan = ShardPlan.compute(small_bib, ["author", "paper"], 2)
        published = publish_shard_generation(
            small_bib, engine, served, plan, 1, directory=tmp_path, generation=0
        )
        try:
            shard = json.loads(published.path.read_text())
        finally:
            published.dispose()
        assert shard["epoch"] == 1 and not set(_SECTION[1:]) & set(shard)
        assert set(shard["source"]) == {"file", "arrays"}
        for spath, whole, sliced in zip(served, manifest["entries"], shard["entries"]):
            lo, hi = plan.range_of(spath.source_type, 1)
            assert hi > lo
            # A slice is a matrix of its own: it never names another's arrays.
            whole = {key: value for key, value in whole.items() if key != "csr"}
            assert sliced == {
                **whole, "lo": lo, "hi": hi, "shape": [hi - lo, whole["shape"][1]]
            }

        # ... and with a cached matrix shared between two keys.
        engine.prewarm([APVPA])
        manifest, descriptor = written()
        assert any(e.get("csr", "").startswith("entry") for e in manifest["entries"])
        assert manifest["entries"] == descriptor["entries"]

    def test_a_relation_half_stays_one_object_through_a_restored_parent(
        self, small_bib, tmp_path
    ):
        """Snapshot, restore, publish, attach: at every step ``APA``'s
        ``W`` is the network's own ``writes`` matrix, written once."""
        small_bib.engine().prewarm([APA])
        save_snapshot(small_bib, tmp_path / "snap")
        parent = load_snapshot(tmp_path / "snap", mmap=True)
        published = publish_generation(
            parent, parent.engine(), directory=tmp_path, generation=0
        )
        try:
            descriptor = json.loads(published.path.read_text())
            assert [e.get("csr") for e in descriptor["entries"]] == ["rel/writes"]
            assert not [n for n in descriptor["source"]["arrays"] if n.endswith("/w/data")]
            attached = attach_generation(published.path)
            try:
                ((_key, (w, _diag)),) = attached.hin.engine().export_state()[1]
                assert w is attached.hin.relation_matrix("writes")
                expected = small_bib.engine().pathsim_top_k(APA, 0, 3)
                assert list(attached.hin.engine().pathsim_top_k(APA, 0, 3)) == list(expected)
            finally:
                attached.close()
        finally:
            published.dispose()


def _widened(matrix, dtype=np.int64):
    """*matrix* with its index arrays at *dtype* (the constructor would
    narrow them straight back, so they are assigned)."""
    out = matrix.copy()
    out.indices = out.indices.astype(dtype)
    out.indptr = out.indptr.astype(dtype)
    return out


@st.composite
def canonical_matrices(draw):
    """Small canonical CSR matrices: possibly empty, possibly with empty
    first/last rows, int32 or int64 indices, writable or read-only."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 5))
    cells = st.sampled_from([0.0, 0.0, 1.0, 2.0, 0.5])
    dense = np.array(
        draw(st.lists(cells, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    ).reshape(n_rows, n_cols)
    if n_rows:
        dense[0] *= draw(st.booleans())
        dense[-1] *= draw(st.booleans())
    matrix = _widened(sp.csr_matrix(dense), draw(st.sampled_from([np.int32, np.int64])))
    if draw(st.booleans()):
        for array in (matrix.data, matrix.indices, matrix.indptr):
            array.flags.writeable = False
    return matrix


def _parts(matrix):
    return matrix.data, matrix.indices, matrix.indptr


def _through_every_backing(arrays):
    """*arrays* written by the one document writer as an image file
    beside its document and read back by each of the image's readers —
    eagerly, and mapped (what a generation's attach and an mmap snapshot
    load use) — as ``(loaded, trusted)`` pairs."""
    with tempfile.TemporaryDirectory() as tmp:
        image, document = Path(tmp) / "m.bin", {}
        _write_document(Path(tmp) / "m.json", image, document, arrays)
        assert json.loads((Path(tmp) / "m.json").read_text()) == document
        assert document["source"] == {"file": "m.bin", "arrays": _layout(arrays)[0]}
        for trusted in (False, True):
            loaded, size = _read_file(image, document["source"]["arrays"], mmap=trusted)
            assert size == image.stat().st_size == _layout(arrays)[1]
            yield loaded, trusted


# The shapes every backing must agree on: nothing at all (a cold
# engine's cache payload), zero-length arrays first, last and alone, a
# 2-D array, and each dtype the codec writes.
_EDGE_PAYLOADS = [
    {},
    {"empty": np.array([], dtype=np.float64)},
    {
        "lead": np.array([], dtype=np.int32),
        "grid": np.arange(12, dtype=np.float64).reshape(3, 4),
        "i32": np.arange(5, dtype=np.int32),
        "i64": np.arange(3, dtype=np.int64) + 2**40,
        "f64": np.linspace(0.0, 1.0, 7),
        "trail": np.zeros((0, 4), dtype=np.int64),
    },
]


class TestCsrRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(canonical_matrices())
    def test_every_container_returns_the_arrays_it_was_given(self, matrix):
        before = [(part.copy(), part.dtype) for part in _parts(matrix)]
        arrays: dict = {}
        _write_csr("m", matrix, arrays)
        assert arrays["m/indices"].dtype == arrays["m/indptr"].dtype == np.int32

        def check(loaded, trusted):
            out = _read_csr("m", loaded, matrix.shape, trusted)
            assert out.shape == matrix.shape
            for got, (want, _) in zip(_parts(out), before):
                assert np.array_equal(got, want)
            assert out.indices.dtype == out.indptr.dtype == np.int32
            # adopted, not copied
            assert all(
                np.shares_memory(part, loaded[f"m/{name}"])
                for part, name in zip(_parts(out), ("data", "indices", "indptr"))
                if part.size
            )
            assert out.has_canonical_format

        check(arrays, trusted=False)
        for loaded, trusted in _through_every_backing(arrays):
            assert set(loaded) == set(arrays)
            check(loaded, trusted)

        # nothing was written to the input, whatever its width
        for part, (want, dtype) in zip(_parts(matrix), before):
            assert part.dtype == dtype and np.array_equal(part, want)

    @pytest.mark.parametrize("arrays", _EDGE_PAYLOADS, ids=["nothing", "empty", "mixed"])
    def test_every_backing_agrees_on_the_edge_shapes(self, arrays):
        for loaded, trusted in _through_every_backing(arrays):
            assert list(loaded) == list(arrays)
            for name, value in arrays.items():
                assert loaded[name].dtype == value.dtype
                assert loaded[name].shape == value.shape
                assert np.array_equal(loaded[name], value)
                if value.size:  # mapped and attached bytes cannot be written
                    assert loaded[name].flags.writeable == (not trusted)

    def test_the_canonical_flag_is_asserted_only_when_trusted(self):
        unsorted = {
            "m/data": np.array([1.0, 2.0]),
            "m/indices": np.array([1, 0], dtype=np.int32),
            "m/indptr": np.array([0, 2], dtype=np.int32),
        }
        assert _read_csr("m", unsorted, (1, 2), trusted=True).has_canonical_format
        assert not _read_csr("m", unsorted, (1, 2), trusted=False).has_canonical_format

    def test_indices_stay_wide_when_they_do_not_fit(self):
        wide = sp.csr_matrix(
            (np.array([1.0]), np.array([2**31 + 1]), np.array([0, 1])),
            shape=(1, 2**31 + 5),
        )
        arrays: dict = {}
        _write_csr("m", wide, arrays)
        assert arrays["m/indices"].dtype == arrays["m/indptr"].dtype == np.int64
        out = _read_csr("m", arrays, wide.shape, trusted=True)
        assert out.indices.dtype == np.int64 and out.indices[0] == 2**31 + 1


def _stream(hin, n_batches=32, seed=5):
    """A deterministic update stream over *hin*: edge adds, deletes of
    edges that exist, and one node-growth batch in the middle."""
    rng = np.random.default_rng(seed)
    n_authors, n_papers = hin.node_count("author"), hin.node_count("paper")
    existing = list(zip(*hin.relation_matrix("writes").nonzero()))
    rng.shuffle(existing)
    batches = []
    for i in range(n_batches):
        if i == n_batches // 2:
            batches.append(
                UpdateBatch()
                .add_nodes("author", ["grown-author"])
                .add_nodes("paper", ["grown-paper"])
                .add_edges("writes", [(n_authors, n_papers), (0, n_papers)])
                .add_edges("published_in", [(n_papers, 0)])
            )
        elif i % 3 == 2:
            batches.append(
                UpdateBatch().remove_edges("writes", [existing.pop(), existing.pop()])
            )
        else:
            pairs = zip(rng.integers(0, n_authors, 3), rng.integers(0, n_papers, 3))
            batches.append(UpdateBatch().add_edges("writes", list(pairs)))
    return batches


def _network():
    return make_dblp_four_area(
        authors_per_area=12, papers_per_area=30, terms_per_area=8, shared_terms=4, seed=3
    ).hin


def _top5(engine):
    return [list(engine.pathsim_top_k(APVPA, author, 5)) for author in range(0, 48, 6)]


class TestCaptureBesideAWriter:
    def test_every_snapshot_and_generation_describes_one_committed_epoch(
        self, tmp_path
    ):
        """``save_snapshot`` and ``publish_generation`` race ``apply()``:
        whatever epoch a capture lands on, the network and the cache it
        wrote are that epoch's — checked against a cold replay."""
        hin = _network()
        hin.engine().prewarm([APVPA, APA])
        batches = _stream(hin)

        # Cold replay: per epoch, the fingerprint and the reference
        # engine's answers.
        replay = _network()
        cold = MetaPathEngine(replay, mode="materialize")
        expected = [(network_fingerprint(replay), _top5(cold))]
        for batch in batches:
            replay.apply(batch)
            expected.append((network_fingerprint(replay), _top5(cold)))

        shm = Path("/dev/shm")
        before = set(shm.iterdir()) if shm.is_dir() else set()
        observed: dict[str, list] = {"snapshot": [], "generation": []}
        errors: list = []
        ready = [threading.Event(), threading.Event()]
        done = threading.Event()

        def observe(kind, stamped, loaded_hin):
            observed[kind].append(
                (
                    stamped,
                    loaded_hin.version,
                    network_fingerprint(loaded_hin),
                    _top5(loaded_hin.engine()),
                    loaded_hin.engine().cache_info().misses,
                )
            )

        def snapshots():
            last = False
            while not last:
                last = done.is_set()  # one more pass after the writer
                ready[0].set()
                manifest = save_snapshot(hin, tmp_path / "snap")
                observe("snapshot", manifest["epoch"], load_snapshot(tmp_path / "snap"))

        def generations():
            generation, last = 0, False
            while not last:
                last = done.is_set()
                ready[1].set()
                published = publish_generation(
                    hin, hin.engine(), directory=tmp_path / "gens", generation=generation
                )
                try:
                    stamped = json.loads(published.path.read_text())["epoch"]
                    attached = attach_generation(published.path)
                    try:
                        assert attached.epoch == published.epoch == stamped
                        observe("generation", stamped, attached.hin)
                    finally:
                        attached.close()
                finally:
                    published.dispose()
                generation += 1

        def writer():
            for event in ready:
                event.wait(timeout=60)
            for batch in batches:
                hin.apply(batch)
                time.sleep(0.003)

        def guarded(body):
            def run():
                try:
                    body()
                except BaseException as exc:  # re-raised on the main thread
                    errors.append(exc)
                    done.set()

            return threading.Thread(target=run)

        observers = [guarded(snapshots), guarded(generations)]
        writing = guarded(writer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in (*observers, writing):
                thread.start()
            writing.join(timeout=120)
            done.set()
            for thread in observers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        if errors:
            raise errors[0]
        assert not any(thread.is_alive() for thread in (*observers, writing))
        assert hin.version == len(batches) >= 30

        for kind, records in observed.items():
            assert len({stamped for stamped, *_ in records}) > 1, kind
            assert records[-1][0] == len(batches), kind
            for stamped, version, fingerprint, answers, misses in records:
                assert 0 <= stamped <= len(batches)
                assert version == stamped
                assert (fingerprint, answers) == expected[stamped], (kind, stamped)
                assert misses == 0  # answered from the captured cache
        after = set(shm.iterdir()) if shm.is_dir() else set()
        assert after - before == set()


class TestShardSliceViews:
    """A shard packs rows ``[lo, hi)`` of each served ``W`` as views of
    ``W``'s own arrays: the image it writes is the one the row slice
    ``w[lo:hi]`` packs, byte for byte, with nothing copied on the way."""

    @pytest.fixture(params=["small", "dblp"])
    def committed(self, request):
        """A network one commit past its prewarm, and a plan over it:
        six shards of ``small_bib`` leave trailing ranges empty."""
        if request.param == "small":
            hin, shards = request.getfixturevalue("small_bib"), 6
        else:
            hin, shards = _network(), 3
        engine = hin.engine()
        engine.prewarm([APA, PAP, APVPA])
        hin.apply(UpdateBatch().add_edges("writes", [(0, 4), (1, 3)]))
        served = [_ServedPath(engine.symmetric_path(p)) for p in (APA, PAP, APVPA)]
        return hin, engine, served, ShardPlan.compute(hin, ["author", "paper"], shards)

    def test_the_image_is_the_row_slice_byte_for_byte(self, committed, tmp_path):
        hin, engine, served, plan = committed
        empty = 0
        for shard in range(plan.shards):
            published = publish_shard_generation(
                hin, engine, served, plan, shard, directory=tmp_path, generation=shard
            )
            entries, ranges = [], []
            for spath in served:
                w, diag = engine._pathsim_parts(spath.mp)
                lo, hi = plan.ranges[spath.source_type][shard]
                empty += lo == hi
                entries.append((("pathsim", spath.token), (w[lo:hi], diag[lo:hi])))
                ranges.append({"lo": lo, "hi": hi})
            reference = _publish(
                tmp_path, "sliced", shard, {"epoch": hin.version}, [], entries, ranges
            )
            try:
                assert published.image.read_bytes() == reference.image.read_bytes()
                ours, theirs = (json.loads(p.path.read_text()) for p in (published, reference))
                assert ours["entries"] == theirs["entries"]
                assert ours["source"]["arrays"] == theirs["source"]["arrays"]
                a, b = (attach_generation(p.path) for p in (published, reference))
                try:
                    assert a.slices.keys() == b.slices.keys()
                    for token, (w_a, diag_a, lo_a) in a.slices.items():
                        w_b, diag_b, lo_b = b.slices[token]
                        assert lo_a == lo_b and w_a.shape == w_b.shape
                        for name in ("data", "indices", "indptr"):
                            assert np.array_equal(getattr(w_a, name), getattr(w_b, name))
                        assert np.array_equal(diag_a, diag_b)
                finally:
                    a.close()
                    b.close()
            finally:
                published.dispose()
                reference.dispose()
        # Six shards of small_bib's four authors and five papers leave
        # trailing ranges empty; three of the dblp network's leave none.
        assert (empty > 0) == (plan.shards == 6)

    def test_the_arrays_written_are_views_of_w(self, committed, tmp_path, monkeypatch):
        hin, engine, served, plan = committed
        handed = []

        def write_document(path, image, document, arrays):
            handed.append(arrays)
            return _write_document(path, image, document, arrays)

        monkeypatch.setattr("repro.serving.shm._write_document", write_document)
        for shard in range(plan.shards):
            publish_shard_generation(
                hin, engine, served, plan, shard, directory=tmp_path, generation=shard
            ).dispose()
            arrays = handed[shard]
            for i, spath in enumerate(served):
                w, _diag = engine._pathsim_parts(spath.mp)
                lo, hi = plan.ranges[spath.source_type][shard]
                data, indices = arrays[f"entry{i}/w/data"], arrays[f"entry{i}/w/indices"]
                assert data.size == indices.size == w.indptr[hi] - w.indptr[lo]
                if data.size:
                    assert np.shares_memory(data, w.data)
                    assert np.shares_memory(indices, w.indices)
