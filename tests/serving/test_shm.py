"""Generations: zero-copy export/attach round trips over image files."""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest

from repro.exceptions import SnapshotError
from repro.networks import UpdateBatch
from repro.serving import load_snapshot, save_snapshot
from repro.serving.shm import (
    _read_file,
    _write_document,
    attach_generation,
    publish_generation,
)
from tests.serving.test_snapshot import _tiny

APA = "author-paper-author"
APVPA = "author-paper-venue-paper-author"


def _written(path, arrays):
    """*arrays* as an image file at *path*, beside its document; the
    specs the document's ``source`` carries."""
    document = {}
    _write_document(path.with_suffix(".json"), path, document, arrays)
    return document["source"]["arrays"]


class TestMmapNpz:
    """The file backing of the container, by both of its readers."""

    def test_matches_eager_load(self, tmp_path):
        path = tmp_path / "payload.bin"
        arrays = {
            "rel/w/data": np.linspace(0, 1, 9),
            "rel/w/indices": np.arange(9, dtype=np.int32),
            "grid": np.arange(12.0).reshape(3, 4),
        }
        specs = _written(path, arrays)
        mapped, size = _read_file(path, specs, mmap=True)
        eager, _ = _read_file(path, specs, mmap=False)
        assert size == path.stat().st_size
        assert set(mapped) == set(eager) == set(arrays)
        for name, value in arrays.items():
            assert mapped[name].dtype == eager[name].dtype == value.dtype
            np.testing.assert_array_equal(mapped[name], value)
            np.testing.assert_array_equal(eager[name], value)

    def test_views_are_read_only(self, tmp_path):
        path = tmp_path / "payload.bin"
        specs = _written(path, {"a": np.arange(5.0)})
        mapped, _ = _read_file(path, specs, mmap=True)
        with pytest.raises(ValueError):
            mapped["a"][0] = 1.0
        owned, _ = _read_file(path, specs, mmap=False)
        owned["a"][0] = 1.0  # the eager reader hands out its own memory
        assert mapped["a"][0] == 0.0

    def test_missing_file_is_snapshot_error(self, small_bib, tmp_path):
        # The snapshot reader names a missing image; the container
        # itself leaves it a FileNotFoundError (the generation fence's).
        manifest = save_snapshot(small_bib, tmp_path)
        (tmp_path / manifest["source"]["file"]).unlink()
        for mmap in (False, True):
            with pytest.raises(SnapshotError, match="missing"):
                load_snapshot(tmp_path, mmap=mmap)
            with pytest.raises(FileNotFoundError):
                _read_file(tmp_path / "nope.bin", {}, mmap=mmap)

    def test_object_members_refused_as_snapshot_error(self, tmp_path):
        # An object array's bytes are pointers: a spec naming one is
        # refused before anything is built over the file.
        path = tmp_path / "obj.bin"
        specs = _written(path, {"a": np.arange(3.0), "b": np.arange(3.0)})
        specs["a"]["dtype"] = np.dtype(object).str
        for mmap in (False, True):
            with pytest.raises(SnapshotError, match="corrupted"):
                _read_file(path, specs, mmap=mmap)

    def test_truncated_file_is_snapshot_error(self, tmp_path):
        path = tmp_path / "trunc.bin"
        specs = _written(path, {"a": np.arange(64.0)})
        data = path.read_bytes()
        for keep in (len(data) // 2, 0):
            path.write_bytes(data[:keep])
            for mmap in (False, True):
                with pytest.raises(SnapshotError, match="truncated|corrupted"):
                    _read_file(path, specs, mmap=mmap)

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize(
        "edit", [{"offset": -8}, {"shape": [-1]}, {"shape": [2, -4]}, {"shape": [10**6]}]
    )
    def test_a_spec_outside_the_file_is_snapshot_error(self, tmp_path, mmap, edit):
        path = tmp_path / "payload.bin"
        specs = _written(path, {"a": np.arange(8.0), "b": np.arange(8.0)})
        specs["b"].update(edit)
        with pytest.raises(SnapshotError, match="truncated|corrupted"):
            _read_file(path, specs, mmap=mmap)


class TestGenerations:
    def _publish(self, hin, tmp_path, generation=1):
        engine = hin.engine()
        engine.prewarm([APA, APVPA])
        return engine, publish_generation(
            hin, engine, directory=tmp_path, generation=generation
        )

    def test_attached_answers_match_publisher(self, small_bib, tmp_path):
        engine, published = self._publish(small_bib, tmp_path)
        attached = attach_generation(published.path)
        try:
            for author in range(small_bib.node_count("author")):
                assert list(attached.engine.pathsim_top_k(APVPA, author, 3)) == list(
                    engine.pathsim_top_k(APVPA, author, 3)
                )
        finally:
            attached.close()
            published.dispose()

    def test_attachment_is_warm_and_at_the_published_epoch(self, small_bib, tmp_path):
        small_bib.apply(UpdateBatch().add_edges("writes", [(0, 4)]))
        engine, published = self._publish(small_bib, tmp_path)
        attached = attach_generation(published.path)
        try:
            assert attached.epoch == small_bib.version == 1
            assert attached.hin.version == 1
            misses = attached.engine.cache_info().misses
            attached.engine.pathsim_top_k(APVPA, 0, 3)
            assert attached.engine.cache_info().misses == misses
        finally:
            attached.close()
            published.dispose()

    def test_attached_matrices_share_memory_read_only(self, small_bib, tmp_path):
        _, published = self._publish(small_bib, tmp_path)
        attached = attach_generation(published.path)
        try:
            matrix = attached.hin.relation_matrix("writes")
            assert not matrix.data.flags.writeable
            expected = small_bib.relation_matrix("writes")
            assert (matrix != expected).nnz == 0
        finally:
            attached.close()
            published.dispose()

    def test_dispose_then_attach_raises_file_not_found(self, small_bib, tmp_path):
        _, published = self._publish(small_bib, tmp_path)
        path = published.path
        published.dispose()
        with pytest.raises(FileNotFoundError):
            attach_generation(path)

    @pytest.mark.parametrize("name", [("x", 1), object()], ids=["tuple", "object"])
    def test_a_name_json_cannot_carry_publishes_nothing(self, name, tmp_path):
        # JSON would write a tuple back as an unhashable list, and cannot
        # write an object() at all: refused before any file exists.
        hin = _tiny([name, "y"])
        with pytest.raises(SnapshotError, match="JSON"):
            publish_generation(hin, hin.engine(), directory=tmp_path / "gens", generation=1)
        assert not (tmp_path / "gens").exists()

    def test_dispose_is_idempotent(self, small_bib, tmp_path):
        _, published = self._publish(small_bib, tmp_path)
        published.dispose()
        published.dispose()

    def test_descriptor_rejects_foreign_format(self, small_bib, tmp_path):
        _, published = self._publish(small_bib, tmp_path)
        try:
            descriptor = json.loads(published.path.read_text())
            descriptor["format"] = "something-else"
            bad = tmp_path / "gen-bad.json"
            bad.write_text(json.dumps(descriptor))
            with pytest.raises(SnapshotError, match="format"):
                attach_generation(bad)
        finally:
            published.dispose()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: [d],
            lambda d: {k: v for k, v in d.items() if k != "source"},
            lambda d: {k: v for k, v in d.items() if k != "entries"},
            lambda d: {**d, "source": {**d["source"], "arrays": {"x": {"offset": 0}}}},
            lambda d: {**d, "source": {**d["source"], "arrays": []}},
            lambda d: {**d, "relations": [{**r, "shape": [1, 1]} for r in d["relations"]]},
            # The source of a generation written when images were
            # shared-memory segments.
            lambda d: {**d, "source": {"segment": "psm_0", "arrays": d["source"]["arrays"]}},
        ],
        ids=[
            "a list",
            "no source",
            "no entries",
            "half a spec",
            "specs a list",
            "relation shape",
            "a segment source",
        ],
    )
    def test_a_malformed_descriptor_is_a_snapshot_error(self, small_bib, tmp_path, edit):
        _, published = self._publish(small_bib, tmp_path)
        try:
            bad = tmp_path / "gen-bad.json"
            bad.write_text(json.dumps(edit(json.loads(published.path.read_text()))))
            with pytest.raises(SnapshotError, match="descriptor"):
                attach_generation(bad)
        finally:
            published.dispose()

    def test_a_descriptor_over_an_unlinked_image_is_file_not_found(
        self, small_bib, tmp_path
    ):
        """Retirement racing an attach — the descriptor read, then the
        image gone — is the FileNotFoundError the worker fence retries
        on, not a SnapshotError."""
        _, published = self._publish(small_bib, tmp_path)
        try:
            assert published.image.parent == published.path.parent
            published.image.unlink()
            assert published.path.exists()
            with pytest.raises(FileNotFoundError):
                attach_generation(published.path)
        finally:
            published.dispose()

    def test_an_attachment_answers_identically_after_dispose(self, small_bib, tmp_path):
        """Retiring a generation removes its files, not its attachments:
        a worker keeps serving the one it holds until it swaps."""
        engine, published = self._publish(small_bib, tmp_path)
        attached = attach_generation(published.path)
        try:
            authors = range(small_bib.node_count("author"))
            before = [list(attached.engine.pathsim_top_k(APVPA, a, 3)) for a in authors]
            size = attached.payload_bytes
            assert size == published.image.stat().st_size
            published.dispose()
            assert not published.path.exists() and not published.image.exists()
            gc.collect()
            after = [list(attached.engine.pathsim_top_k(APVPA, a, 3)) for a in authors]
            assert after == before
            assert after == [list(engine.pathsim_top_k(APVPA, a, 3)) for a in authors]
            assert attached.payload_bytes == size > 0
        finally:
            attached.close()
