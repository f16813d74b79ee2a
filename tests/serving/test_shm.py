"""Shared-memory generations: zero-copy export/attach round trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import SnapshotError
from repro.networks import UpdateBatch
from repro.serving.shm import (
    attach_arrays,
    attach_generation,
    export_arrays,
    mmap_npz,
    publish_generation,
)

APA = "author-paper-author"
APVPA = "author-paper-venue-paper-author"


class TestArrayPacking:
    def test_round_trip_preserves_values_and_dtypes(self):
        arrays = {
            "a": np.arange(7, dtype=np.float64),
            "b": np.arange(6, dtype=np.int32).reshape(2, 3),
            "c": np.array([], dtype=np.int64),
        }
        segment, descriptor = export_arrays(arrays)
        try:
            resource, attached = attach_arrays(descriptor)
            try:
                for name, value in arrays.items():
                    assert attached[name].dtype == value.dtype
                    np.testing.assert_array_equal(attached[name], value)
            finally:
                attached = None
                resource.close()
        finally:
            segment.close()
            segment.unlink()

    def test_attached_views_are_read_only_and_zero_copy(self):
        segment, descriptor = export_arrays({"x": np.arange(4, dtype=np.float64)})
        try:
            resource, attached = attach_arrays(descriptor)
            try:
                view = attached["x"]
                assert not view.flags.writeable
                with pytest.raises(ValueError):
                    view[0] = 99.0
                # A second attachment observes the same buffer, not a copy.
                resource2, attached2 = attach_arrays(descriptor)
                try:
                    np.testing.assert_array_equal(attached2["x"], view)
                finally:
                    attached2 = None
                    resource2.close()
            finally:
                attached = None
                view = None
                resource.close()
        finally:
            segment.close()
            segment.unlink()

    def test_attach_after_unlink_raises(self):
        segment, descriptor = export_arrays({"x": np.zeros(2)})
        segment.close()
        segment.unlink()
        with pytest.raises(FileNotFoundError):
            attach_arrays(descriptor)


class TestMmapNpz:
    def test_matches_eager_load(self, tmp_path):
        path = tmp_path / "payload.npz"
        arrays = {
            "rel/w/data": np.linspace(0, 1, 9),
            "rel/w/indices": np.arange(9, dtype=np.int32),
            "grid": np.arange(12.0).reshape(3, 4),
        }
        np.savez(path, **arrays)
        mapped = mmap_npz(path)
        with np.load(path) as eager:
            assert set(mapped) == set(eager.files)
            for name in eager.files:
                np.testing.assert_array_equal(mapped[name], eager[name])

    def test_views_are_read_only(self, tmp_path):
        path = tmp_path / "payload.npz"
        np.savez(path, a=np.arange(5.0))
        mapped = mmap_npz(path)
        with pytest.raises(ValueError):
            mapped["a"][0] = 1.0

    def test_missing_file_is_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError, match="missing"):
            mmap_npz(tmp_path / "nope.npz")

    def test_compressed_members_fall_back_to_eager(self, tmp_path):
        path = tmp_path / "compressed.npz"
        np.savez_compressed(path, a=np.arange(8.0))
        mapped = mmap_npz(path)
        np.testing.assert_array_equal(mapped["a"], np.arange(8.0))

    def test_object_members_refused_as_snapshot_error(self, tmp_path):
        # Never unpickle payload bytes; the refusal uses the loader's
        # uniform error contract.
        path = tmp_path / "obj.npz"
        np.savez(path, a=np.array([{"x": 1}], dtype=object), b=np.arange(3.0))
        with pytest.raises(SnapshotError, match="safely"):
            mmap_npz(path)

    def test_truncated_file_is_snapshot_error(self, tmp_path):
        path = tmp_path / "trunc.npz"
        np.savez(path, a=np.arange(64.0))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotError, match="truncated|corrupted"):
            mmap_npz(path)


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
