"""Warm-cache snapshots: round trips, mmap loads, verification."""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import SnapshotError
from repro.networks import HIN, NetworkSchema
from repro.serving import load_snapshot, network_fingerprint, save_snapshot
from tests.serving.test_codec import _widened

APA = "author-paper-author"
APVPA = "author-paper-venue-paper-author"


def _tiny(author_names):
    """A two-author network whose author names are *author_names*."""
    schema = NetworkSchema(["a", "p"], [("w", "a", "p")])
    return HIN.from_edges(
        schema, nodes={"a": author_names, "p": 2}, edges={"w": [(0, 0), (1, 1)]}
    )


def _warm(hin):
    engine = hin.engine()
    engine.prewarm([APA, APVPA])
    engine.commuting_matrix("author-paper-venue")
    return engine


class TestRoundTrip:
    def test_network_round_trips_exactly(self, small_bib, tmp_path):
        save_snapshot(small_bib, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap")
        assert loaded.schema.node_types == small_bib.schema.node_types
        for t in small_bib.schema.node_types:
            assert loaded.node_count(t) == small_bib.node_count(t)
            assert loaded.names(t) == small_bib.names(t)
        for rel in small_bib.schema.relations:
            a = small_bib.relation_matrix(rel.name)
            b = loaded.relation_matrix(rel.name)
            assert (a != b).nnz == 0
        assert network_fingerprint(loaded) == network_fingerprint(small_bib)

    def test_served_answers_identical_after_reload(self, small_bib, tmp_path):
        engine = _warm(small_bib)
        expected = [engine.pathsim_top_k(APVPA, a, 3) for a in range(4)]
        save_snapshot(small_bib, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap")
        got = [loaded.engine().pathsim_top_k(APVPA, a, 3) for a in range(4)]
        for e, g in zip(expected, got):
            assert list(e) == list(g)

    def test_loaded_engine_starts_warm(self, small_bib, tmp_path):
        _warm(small_bib)
        save_snapshot(small_bib, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap")
        engine = loaded.engine()
        before = engine.cache_info()
        assert before.currsize >= 3  # pathsim pairs + product entries
        engine.pathsim_top_k(APVPA, 0, 3)
        after = engine.cache_info()
        assert after.misses == before.misses  # first query hits the cache
        assert after.hits > before.hits

    def test_epoch_recorded_and_restored(self, small_bib, tmp_path):
        with small_bib.mutate() as m:
            m.add_edges("writes", [(0, 3)])
        _warm(small_bib)
        manifest = save_snapshot(small_bib, tmp_path / "snap")
        assert manifest["epoch"] == 1
        loaded = load_snapshot(tmp_path / "snap")
        assert loaded.version == 1
        assert loaded.engine().epoch == 1
        result = loaded.query().similar("a0", APA, k=2)
        assert result.network_version == 1

    def test_snapshot_of_cold_engine_has_no_entries(self, small_bib, tmp_path):
        manifest = save_snapshot(small_bib, tmp_path / "snap")
        assert manifest["entries"] == []
        loaded = load_snapshot(tmp_path / "snap")
        assert loaded.engine().cache_info().currsize == 0
        # still serves correct answers, just cold
        expected = small_bib.engine().pathsim_top_k(APA, "a0", 2)
        assert list(loaded.engine().pathsim_top_k(APA, "a0", 2)) == list(expected)

    def test_anonymous_types_round_trip(self, bib_schema, tmp_path):
        hin = HIN.from_edges(
            bib_schema,
            nodes={"author": 2, "paper": 2, "venue": 1, "term": 1},
            edges={
                "writes": [(0, 0), (1, 1)],
                "published_in": [(0, 0), (1, 0)],
                "mentions": [(0, 0)],
            },
        )
        _warm(hin)
        save_snapshot(hin, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap")
        assert loaded.names("author") is None
        assert list(loaded.engine().pathsim_top_k(APA, 0, 1)) == list(
            hin.engine().pathsim_top_k(APA, 0, 1)
        )

    def test_planner_subchain_entries_round_trip(self, small_bib, tmp_path):
        # The planner caches every interval of its plan tree under the
        # same ("product", steps) keys as the classic prefix cache, so
        # plan-created entries must survive a snapshot like any other.
        engine = small_bib.engine()
        long_path = "author-paper-venue-paper-author-paper-term"
        expected = engine.commuting_matrix(long_path)
        entries = engine.export_state()[1]
        assert len(entries) >= 2  # root product + at least one subchain
        save_snapshot(small_bib, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap")
        warm = loaded.engine()
        assert warm.cache_info().currsize == len(entries)
        misses = warm.cache_info().misses
        got = warm.commuting_matrix(long_path)
        assert warm.cache_info().misses == misses  # answered fully warm
        assert (got != expected).nnz == 0

    def test_loaded_entries_seed_reversed_paths(self, small_bib, tmp_path):
        # Inverse-key reuse must work on entries that came from disk: a
        # snapshot warmed with A-P-V serves V-P-A by transpose.
        engine = small_bib.engine()
        apv = engine.commuting_matrix("author-paper-venue")
        save_snapshot(small_bib, tmp_path / "snap")
        warm = load_snapshot(tmp_path / "snap").engine()
        vpa = warm.commuting_matrix("venue-paper-author")
        assert (vpa != apv.T.tocsr()).nnz == 0
        assert warm.planner_info()["inverse_seeds"] == 1

    def test_save_takes_a_hin_only(self, small_bib, tmp_path):
        # One way to disk: an engine is not a second target — its
        # network is.
        for target in (object(), small_bib.engine()):
            with pytest.raises(TypeError, match=r"save_snapshot\(engine\.hin, path\)"):
                save_snapshot(target, tmp_path / "snap")
        assert not (tmp_path / "snap").exists()


class TestMmapLoad:
    def test_mmap_load_serves_identical_answers(self, small_bib, tmp_path):
        engine = _warm(small_bib)
        save_snapshot(small_bib, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap", mmap=True)
        for author in range(small_bib.node_count("author")):
            assert list(loaded.engine().pathsim_top_k(APVPA, author, 3)) == list(
                engine.pathsim_top_k(APVPA, author, 3)
            )

    def test_mmap_load_is_warm_and_at_the_recorded_epoch(self, small_bib, tmp_path):
        _warm(small_bib)
        with small_bib.mutate() as m:
            m.add_edges("writes", [(0, 3)])
        save_snapshot(small_bib, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap", mmap=True)
        assert loaded.version == 1
        engine = loaded.engine()
        misses = engine.cache_info().misses
        engine.pathsim_top_k(APA, 0, 2)
        assert engine.cache_info().misses == misses

    def test_mmap_loaded_network_accepts_updates(self, small_bib, tmp_path):
        # Updates REPLACE matrices, so read-only mmap views are fine as
        # the starting state of a live network.
        _warm(small_bib)
        save_snapshot(small_bib, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap", mmap=True)
        with loaded.mutate() as m:
            m.add_edges("writes", [(0, 3)])
        assert loaded.version == 1
        assert len(loaded.engine().pathsim_top_k(APA, 0, 2)) > 0


def _matrix(key, value):
    return value[0] if key[0] == "pathsim" else value


def _csr_bytes(m):
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


def _payload(path, manifest, kind):
    """The *kind* arrays of the snapshot's image — ``"network"``: the
    relation matrices' ``rel/*``; ``"cache"``: the rest — read straight
    off the file at the offsets the manifest's ``source`` gives."""
    source = manifest["source"]
    return {
        name: np.fromfile(
            path / source["file"],
            spec["dtype"],
            math.prod(spec["shape"]),
            offset=spec["offset"],
        ).reshape(spec["shape"])
        for name, spec in source["arrays"].items()
        if name.startswith("rel/") == (kind == "network")
    }


def _overwrite(path, manifest, name, array):
    """Put *array*'s bytes where the image holds array *name*."""
    spec = manifest["source"]["arrays"][name]
    assert array.nbytes == math.prod(spec["shape"]) * np.dtype(spec["dtype"]).itemsize
    with open(path / manifest["source"]["file"], "r+b") as f:
        f.seek(spec["offset"])
        f.write(array.tobytes())


def _truncate(path, manifest, kind):
    """Cut the image off inside its *kind* arrays (see :func:`_payload`)."""
    image = path / manifest["source"]["file"]
    data = image.read_bytes()
    rel_end = max(
        spec["offset"] + math.prod(spec["shape"]) * np.dtype(spec["dtype"]).itemsize
        for name, spec in manifest["source"]["arrays"].items()
        if name.startswith("rel/")
    )
    assert 0 < rel_end < len(data)  # the cached arrays follow the relations
    image.write_bytes(data[: rel_end // 2 if kind == "network" else (rel_end + len(data)) // 2])


def _payload_bytes(path, manifest):
    return sum(array.nbytes for array in _payload(path, manifest, "cache").values())


def _edit_manifest(path, edit):
    """Rewrite the snapshot's manifest as *edit* returns it."""
    manifest = json.loads((path / "manifest.json").read_text())
    (path / "manifest.json").write_text(json.dumps(edit(manifest)))


class TestSharedMatrices:
    """A PathSim entry's ``W`` *is* the cached half product — one object
    under two keys — and a snapshot holds it once; a forward one-step
    half (``APA``'s) *is* the relation matrix, which the network payload
    already holds."""

    @staticmethod
    def _keys(engine):
        """``APVPA``'s PathSim key and the key of its half product."""
        return (
            ("pathsim", engine.path(APVPA).canonical_key()),
            ("product", engine.path("author-paper-venue").canonical_key()),
        )

    def test_a_matrix_under_two_keys_is_written_once(self, small_bib, tmp_path):
        engine = _warm(small_bib)
        entries = engine.export_state()[1]
        distinct = {id(_matrix(k, v)): _matrix(k, v) for k, v in entries}
        assert len(distinct) < len(entries)
        writes = small_bib.relation_matrix("writes")
        assert id(writes) in distinct  # APA's W
        expected = [list(engine.pathsim_top_k(APVPA, a, 3)) for a in range(4)]

        manifest = save_snapshot(small_bib, tmp_path / "snap")
        assert manifest["format_version"] == 3
        diag_bytes = sum(8 * len(v[1]) for k, v in entries if k[0] == "pathsim")
        assert _payload_bytes(tmp_path / "snap", manifest) == diag_bytes + sum(
            _csr_bytes(m) for m in distinct.values() if m is not writes
        )

        for mmap in (False, True):
            loaded = load_snapshot(tmp_path / "snap", mmap=mmap)
            warm = loaded.engine()
            restored = dict(warm.export_state()[1])
            assert len(restored) == len(entries)
            pathsim, half = self._keys(warm)
            assert restored[pathsim][0] is restored[half]
            apa = ("pathsim", warm.path(APA).canonical_key())
            assert restored[apa][0] is loaded.relation_matrix("writes")
            misses = warm.cache_info().misses
            assert [list(warm.pathsim_top_k(APVPA, a, 3)) for a in range(4)] == expected
            assert warm.cache_info().misses == misses

    def test_a_snapshot_with_duplicate_arrays_still_loads(
        self, small_bib, tmp_path, monkeypatch
    ):
        """The layout written before matrices were shared: every entry
        owns its arrays and no descriptor names another's."""
        engine = _warm(small_bib)
        expected = [list(engine.pathsim_top_k(APVPA, a, 3)) for a in range(4)]
        shared = save_snapshot(small_bib, tmp_path / "shared")
        entries = engine.export_state()[1]
        unshared = [
            (k, (v[0].copy(), v[1]) if k[0] == "pathsim" else v) for k, v in entries
        ]
        with monkeypatch.context() as patch:
            patch.setattr(engine, "export_state", lambda: (engine.epoch, unshared))
            old = save_snapshot(small_bib, tmp_path / "old")
        assert not any("csr" in desc for desc in old["entries"])
        assert any("csr" in desc for desc in shared["entries"])
        half = dict(entries)[self._keys(engine)[1]]
        writes = small_bib.relation_matrix("writes")  # APA's W
        assert _payload_bytes(tmp_path / "old", old) == _payload_bytes(
            tmp_path / "shared", shared
        ) + _csr_bytes(half) + _csr_bytes(writes)

        for mmap in (False, True):
            warm = load_snapshot(tmp_path / "old", mmap=mmap).engine()
            assert warm.cache_info().currsize == len(entries)
            misses = warm.cache_info().misses
            assert [list(warm.pathsim_top_k(APVPA, a, 3)) for a in range(4)] == expected
            assert warm.cache_info().misses == misses


def _without(key):
    return lambda m: {k: v for k, v in m.items() if k != key}


def _every_spec(**changed):
    return lambda m: {
        **m,
        "source": {
            **m["source"],
            "arrays": {
                name: {**spec, **changed} for name, spec in m["source"]["arrays"].items()
            },
        },
    }


def _source(**changed):
    return lambda m: {**m, "source": {**m["source"], **changed}}


# Hand edits that leave manifest.json parseable but no longer the
# document save_snapshot writes.
_MALFORMED = {
    "a list": lambda m: [m],
    "no source": _without("source"),
    "no source arrays": lambda m: {**m, "source": {"file": m["source"]["file"]}},
    "source arrays a list": _source(arrays=[]),
    "no image name": lambda m: {**m, "source": {"arrays": m["source"]["arrays"]}},
    "image name a path": _source(file="../elsewhere/state.bin"),
    "no epoch": _without("epoch"),
    "no network": _without("relations"),
    "entries a number": lambda m: {**m, "entries": 7},
    "spec dtype": _every_spec(dtype="no-such-dtype"),
    "spec shape": _every_spec(shape="wide"),
    "spec offset": _every_spec(offset=None),
    "network: counts null": lambda m: {**m, "node_counts": None},
    "network: relation shape": lambda m: {
        **m,
        "relations": [{**r, "shape": [r["shape"][0] + 1, 3]} for r in m["relations"]],
    },
}


class TestVerification:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SnapshotError, match="manifest"):
            load_snapshot(tmp_path / "nowhere")

    def test_wrong_format_marker(self, small_bib, tmp_path):
        save_snapshot(small_bib, tmp_path / "snap")
        _edit_manifest(tmp_path / "snap", lambda m: {**m, "format": "something-else"})
        for mmap in (False, True):
            with pytest.raises(SnapshotError, match="format"):
                load_snapshot(tmp_path / "snap", mmap=mmap)

    def test_unsupported_format_version(self, small_bib, tmp_path):
        save_snapshot(small_bib, tmp_path / "snap")
        # 2: two payload files; 1: npz payloads.  Re-save, not convert.
        for version in (999, 2, 1):
            _edit_manifest(tmp_path / "snap", lambda m: {**m, "format_version": version})
            for mmap in (False, True):
                with pytest.raises(SnapshotError, match="format version .* not supported"):
                    load_snapshot(tmp_path / "snap", mmap=mmap)

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("edit", _MALFORMED, ids=list(_MALFORMED))
    def test_a_malformed_manifest_is_a_snapshot_error(self, small_bib, tmp_path, edit, mmap):
        # Parseable JSON that is not the document save_snapshot writes:
        # the typed error, not whatever the reader tripped over.
        _warm(small_bib)
        save_snapshot(small_bib, tmp_path / "snap")
        _edit_manifest(tmp_path / "snap", _MALFORMED[edit])
        with pytest.raises(SnapshotError, match="manifest"):
            load_snapshot(tmp_path / "snap", mmap=mmap)

    def test_corrupted_network_payload_detected(self, small_bib, tmp_path):
        manifest = save_snapshot(small_bib, tmp_path / "snap")
        key = "rel/writes/data"
        weights = _payload(tmp_path / "snap", manifest, "network")[key]
        # silently different weights
        _overwrite(tmp_path / "snap", manifest, key, weights + 1.0)
        with pytest.raises(SnapshotError, match="content"):
            load_snapshot(tmp_path / "snap")

    def test_corrupted_cache_payload_detected(self, small_bib, tmp_path):
        _warm(small_bib)
        manifest = save_snapshot(small_bib, tmp_path / "snap")
        arrays = _payload(tmp_path / "snap", manifest, "cache")
        name = next(n for n in arrays if n.endswith("/data"))
        _overwrite(tmp_path / "snap", manifest, name, arrays[name] * 2.0)
        with pytest.raises(SnapshotError, match="cache"):
            load_snapshot(tmp_path / "snap")

    def test_truncated_network_payload_detected(self, small_bib, tmp_path):
        # A payload cut off mid-write (partial copy, full disk) must
        # fail loudly on load, never silently serve a partial network.
        _warm(small_bib)
        manifest = save_snapshot(small_bib, tmp_path / "snap")
        _truncate(tmp_path / "snap", manifest, "network")
        for mmap in (False, True):
            with pytest.raises(SnapshotError, match="truncated|corrupted"):
                load_snapshot(tmp_path / "snap", mmap=mmap)

    def test_truncated_cache_payload_detected(self, small_bib, tmp_path):
        _warm(small_bib)
        manifest = save_snapshot(small_bib, tmp_path / "snap")
        _truncate(tmp_path / "snap", manifest, "cache")
        for mmap in (False, True):
            with pytest.raises(SnapshotError, match="truncated|corrupted"):
                load_snapshot(tmp_path / "snap", mmap=mmap)

    def test_image_deleted_between_save_and_load(self, small_bib, tmp_path):
        _warm(small_bib)
        manifest = save_snapshot(small_bib, tmp_path / "snap")
        (tmp_path / "snap" / manifest["source"]["file"]).unlink()
        for mmap in (False, True):
            with pytest.raises(SnapshotError, match="missing"):
                load_snapshot(tmp_path / "snap", mmap=mmap)

    def test_an_empty_directory_is_a_snapshot_error(self, tmp_path):
        # A directory that exists but was never written to — the classic
        # cold-start misconfiguration — must be a clean SnapshotError,
        # not a stack trace from a missing key.
        (tmp_path / "empty").mkdir()
        for mmap in (False, True):
            with pytest.raises(SnapshotError, match="manifest"):
                load_snapshot(tmp_path / "empty", mmap=mmap)

    def test_resave_in_place_is_cleaned_and_loadable(self, small_bib, tmp_path):
        # Overwriting a snapshot after updates leaves exactly one
        # loadable snapshot and no orphaned images — while unrelated
        # user files in the directory survive untouched.  A directory
        # of the two-payload format (version 2) is refused, and saving
        # over it removes its payloads.
        snap = tmp_path / "snap"
        snap.mkdir()
        bystander = snap / "my_dataset.bin"
        bystander.write_bytes(b"not a snapshot payload")
        for old in ("network-0-0123456789ab.bin", "cache-0-0123456789ab.bin"):
            (snap / old).write_bytes(b"a version 2 payload")
        (snap / "manifest.json").write_text(
            json.dumps({"format": "repro-hin-snapshot", "format_version": 2})
        )
        with pytest.raises(SnapshotError, match="format version 2 not supported"):
            load_snapshot(snap)
        _warm(small_bib)
        first = save_snapshot(small_bib, snap)
        assert {p.name for p in snap.iterdir()} == {
            "manifest.json", first["source"]["file"], bystander.name
        }
        with small_bib.mutate() as m:
            m.add_edges("writes", [(0, 3)])
        second = save_snapshot(small_bib, snap)
        assert second["source"]["file"] != first["source"]["file"]
        assert "files" not in second
        assert {p.name for p in snap.iterdir()} == {
            "manifest.json", second["source"]["file"], bystander.name
        }
        assert bystander.read_bytes() == b"not a snapshot payload"
        assert load_snapshot(snap).version == 1

    def test_a_save_that_dies_before_the_manifest_swap_changes_nothing(
        self, small_bib, tmp_path, monkeypatch
    ):
        # Payloads land under new names first and the manifest is
        # renamed in last: a save that dies anywhere before that leaves
        # the previous snapshot as it was — and the next save cleans up.
        _warm(small_bib)
        first = save_snapshot(small_bib, tmp_path / "snap")
        expected = list(small_bib.engine().pathsim_top_k(APVPA, 0, 3))
        with small_bib.mutate() as m:
            m.add_edges("writes", [(0, 3)])

        real_replace = os.replace

        def dying_replace(src, dst):
            if str(dst).endswith("manifest.json"):
                raise OSError("no space left on device")
            real_replace(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", dying_replace)
            with pytest.raises(OSError, match="no space"):
                save_snapshot(small_bib, tmp_path / "snap")
        for mmap in (False, True):
            loaded = load_snapshot(tmp_path / "snap", mmap=mmap)
            assert loaded.version == first["epoch"] == 0
            assert list(loaded.engine().pathsim_top_k(APVPA, 0, 3)) == expected

        second = save_snapshot(small_bib, tmp_path / "snap")
        assert {p.name for p in (tmp_path / "snap").iterdir()} == {
            "manifest.json", second["source"]["file"]
        }
        assert load_snapshot(tmp_path / "snap").version == 1

    @pytest.mark.parametrize("name", [("x", 1), object()], ids=["tuple", "object"])
    def test_a_name_json_cannot_carry_is_refused_before_any_write(self, name, tmp_path):
        # JSON cannot write an object(), and writes a tuple back as a
        # list — a name no network can index by.  Either is refused
        # before a file is written, and the snapshot already there
        # still loads.
        snap = tmp_path / "snap"
        save_snapshot(_tiny(["x", "y"]), snap)
        before = {p.name: p.read_bytes() for p in snap.iterdir()}
        for target in (snap, tmp_path / "fresh"):
            with pytest.raises(SnapshotError, match="JSON"):
                save_snapshot(_tiny([name, "y"]), target)
        assert not (tmp_path / "fresh").exists()
        assert {p.name: p.read_bytes() for p in snap.iterdir()} == before
        for mmap in (False, True):
            assert load_snapshot(snap, mmap=mmap).names("a") == ["x", "y"]

    def test_attach_state_grows_a_smaller_cache(self, small_bib):
        # A snapshot from a larger-cached engine must not be silently
        # half-evicted when installed into a smaller-bounded cache.
        donor = small_bib.engine(max_cached_matrices=16)
        donor.prewarm([APA, APVPA])
        donor.commuting_matrix("author-paper-venue")
        epoch, entries = donor.export_state()
        assert len(entries) >= 3
        small = small_bib.engine(max_cached_matrices=2)
        assert small.attach_state(epoch, entries) == len(entries)
        assert small.cache_info().currsize == len(entries)

    def test_fingerprints_are_deterministic(self, small_bib):
        assert network_fingerprint(small_bib) == network_fingerprint(small_bib)

    def test_fingerprint_does_not_mutate_the_network(self, bib_schema):
        # A matrix with duplicate (uncanonical) entries must hash like
        # its canonical form WITHOUT being compacted in place.
        dup = sp.csr_matrix(
            (np.array([1.0, 1.0]), np.array([0, 0]), np.array([0, 2, 2])),
            shape=(2, 2),
        )
        counts = {"author": 2, "paper": 2, "venue": 1, "term": 1}
        # validate=False: the default door would sum the duplicates itself.
        hin = HIN(bib_schema, counts, {"writes": dup}, validate=False)
        nnz_before = hin.relation_matrix("writes").nnz
        assert nnz_before == 2
        fp = network_fingerprint(hin)
        assert hin.relation_matrix("writes").nnz == nnz_before  # untouched
        merged = sp.csr_matrix(
            (np.array([2.0]), np.array([0]), np.array([0, 1, 1])), shape=(2, 2)
        )
        canonical = HIN(bib_schema, counts, {"writes": merged})
        assert fp == network_fingerprint(canonical)


class TestIndexWidth:
    """The content hash is taken at the width the codec writes (int32
    when it fits), not at whatever width the live matrix happens to
    carry — scipy narrows the arrays on the way back in."""

    @staticmethod
    def _round_trips(hin, path):
        assert hin.relation_matrix("writes").indices.dtype == np.int64
        hin.engine().prewarm([APA])
        expected = list(hin.engine().pathsim_top_k(APA, 0, 2))
        save_snapshot(hin, path)
        for loaded in (
            load_snapshot(path),  # verifies both hashes
            load_snapshot(path, mmap=True),
        ):
            assert loaded.relation_matrix("writes").indices.dtype == np.int32
            assert network_fingerprint(loaded) == network_fingerprint(hin)
            assert list(loaded.engine().pathsim_top_k(APA, 0, 2)) == expected

    def test_a_csr_array_network_round_trips_eagerly(self, bib_schema, tmp_path):
        rows, cols = np.array([0, 0, 1, 2, 2]), np.array([0, 1, 0, 0, 1])
        writes = sp.csr_array((np.ones(5), (rows, cols)), shape=(3, 2))
        counts = {"author": 3, "paper": 2, "venue": 1, "term": 1}
        self._round_trips(HIN(bib_schema, counts, {"writes": writes}), tmp_path / "snap")

    def test_a_hand_widened_network_round_trips_eagerly(self, small_bib, tmp_path):
        types = small_bib.schema.node_types
        wide = HIN(
            small_bib.schema,
            {t: small_bib.node_count(t) for t in types},
            {
                rel.name: _widened(small_bib.relation_matrix(rel.name))
                for rel in small_bib.schema.relations
            },
            node_names={t: small_bib.names(t) for t in types},
        )
        self._round_trips(wide, tmp_path / "snap")
        # one matrix, two index widths, one fingerprint
        assert small_bib.relation_matrix("writes").indices.dtype == np.int32
        assert network_fingerprint(wide) == network_fingerprint(small_bib)
