"""StreamIngestor: chunk invariance, skip policy, atomicity, resume."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.datasets import dblp_schema, empty_dblp_hin, make_dblp_four_area
from repro.exceptions import (
    IngestError,
    MalformedRecordError,
    TruncatedXmlError,
)
from repro.ingest import (
    PubRecord,
    StreamIngestor,
    dataset_records,
    state_digest,
    tokenize_title,
    write_dblp_xml,
)
from repro.networks import HIN, NetworkSchema
from repro.serving import load_snapshot, save_snapshot


def _assert_bitwise_equal(a: HIN, b: HIN) -> None:
    """Literal (non-canonicalized) equality of two networks."""
    for t in a.schema.node_types:
        assert a.node_count(t) == b.node_count(t)
        assert a.names(t) == b.names(t)
    for rel in a.schema.relations:
        ma = a.relation_matrix(rel.name)
        mb = b.relation_matrix(rel.name)
        assert ma.shape == mb.shape
        assert (ma != mb).nnz == 0, f"relation {rel.name} differs"


class TestChunkInvariance:
    def test_one_chunk_vs_many_bit_identical(self, dataset, fixture_xml):
        n_records = dataset.hin.node_count("paper")
        one = StreamIngestor(chunk_size=10**6)
        one.ingest(fixture_xml)
        for chunk_size in (17, 64, 1):
            many = StreamIngestor(chunk_size=chunk_size)
            report = many.ingest(fixture_xml)
            _assert_bitwise_equal(one.hin, many.hin)
            assert report.epochs == math.ceil(n_records / chunk_size)
            assert many.hin.version == report.epochs
        assert one.hin.version == 1

    def test_shuffled_order_same_canonical_digest(self, dataset, tmp_path):
        plain = tmp_path / "plain.xml"
        shuffled = tmp_path / "shuffled.xml"
        write_dblp_xml(dataset, plain)
        write_dblp_xml(dataset, shuffled, shuffle_seed=7)
        a = StreamIngestor(chunk_size=23)
        a.ingest(plain)
        b = StreamIngestor(chunk_size=23)
        b.ingest(shuffled)
        assert state_digest(a.hin) == state_digest(b.hin)
        # The literal index assignment *does* differ — canonicalization
        # is doing real work here.
        assert a.hin.names("paper") != b.hin.names("paper")

    def test_epoch_count_equals_chunk_count(self, fixture_xml):
        ing = StreamIngestor(chunk_size=50)
        report = ing.ingest(fixture_xml)
        assert ing.hin.version == report.epochs == math.ceil(report.ingested / 50)


class TestScreening:
    def _ingest(self, records, **kwargs):
        ing = StreamIngestor(**kwargs)
        report = ing.ingest(records)
        return ing, report

    def test_missing_fields_skipped_with_counters(self):
        records = [
            PubRecord("", "article", "valid title", 2001, "V", ("A",)),
            PubRecord("k1", "article", "", 2001, "V", ("A",)),
            PubRecord("k2", "article", "valid title", 2001, None, ("A",)),
            PubRecord("k3", "article", "valid title", 2001, "V", ()),
            PubRecord("k4", "article", "good paper", 2001, "V", ("A",)),
        ]
        ing, report = self._ingest(records)
        assert report.ingested == 1
        assert report.skipped == {
            "no_key": 1,
            "no_title": 1,
            "no_venue": 1,
            "no_author": 1,
        }
        assert ing.hin.names("paper") == ["k4"]

    def test_duplicate_key_across_and_within_chunks(self):
        rec = PubRecord("dup", "article", "some title", 2001, "V", ("A",))
        fresh = PubRecord("new", "article", "other title", 2002, "V", ("B",))
        # Within one chunk and across chunks both count.
        ing, report = self._ingest([rec, rec, fresh, rec], chunk_size=2)
        assert report.ingested == 2
        assert report.skipped == {"duplicate_key": 2}
        assert sorted(ing.hin.names("paper")) == ["dup", "new"]

    def test_duplicate_authors_deduped_and_counted(self):
        rec = PubRecord("k", "article", "some title", 2001, "V", ("A", "A", "B"))
        ing, report = self._ingest([rec])
        assert report.ingested == 1
        assert report.deduped_authors == 1
        assert ing.hin.names("author") == ["A", "B"]
        writes = ing.hin.relation_matrix("writes")
        assert writes.sum() == 2  # one edge per distinct author

    def test_strict_mode_raises_typed_error(self):
        bad = PubRecord("k", "article", "", 2001, "V", ("A",))
        with pytest.raises(MalformedRecordError, match="no_title"):
            self._ingest([bad], on_error="raise")
        dup_author = PubRecord("k", "article", "twin study", 2001, "V", ("A", "A"))
        with pytest.raises(MalformedRecordError, match="twice"):
            self._ingest([dup_author], on_error="raise")

    def test_strict_failure_keeps_committed_epochs(self):
        good = PubRecord("g", "article", "fine title", 2001, "V", ("A",))
        bad = PubRecord("", "article", "no key here", 2001, "V", ("A",))
        ing = StreamIngestor(chunk_size=1, on_error="raise")
        with pytest.raises(MalformedRecordError):
            ing.ingest([good, bad])
        assert ing.hin.version == 1
        assert ing.hin.names("paper") == ["g"]

    def test_short_tokens_dropped_from_terms(self):
        rec = PubRecord("k", "article", "A Graph", 2001, "V", ("X",))
        ing, _ = self._ingest([rec])
        assert ing.hin.names("term") == ["graph"]

    def test_title_with_only_short_tokens_is_no_title(self):
        rec = PubRecord("k", "article", "a b c", 2001, "V", ("X",))
        _, report = self._ingest([rec])
        assert report.skipped == {"no_title": 1}


class TestAtomicity:
    def test_truncated_stream_keeps_committed_chunks(self, dataset, tmp_path):
        full = tmp_path / "full.xml"
        write_dblp_xml(dataset, full)
        data = full.read_bytes()
        cut = tmp_path / "cut.xml"
        cut.write_bytes(data[: int(len(data) * 0.6)])
        ing = StreamIngestor(chunk_size=20)
        with pytest.raises(TruncatedXmlError):
            ing.ingest(cut)
        # Whole chunks committed before the truncation survive; the
        # pending partial chunk was discarded entirely.
        assert ing.hin.version >= 1
        assert ing.hin.node_count("paper") == ing.hin.version * 20
        stats = ing.ingest_stats()
        assert stats["ingested"] == ing.hin.node_count("paper")
        # Internal name index matches the committed network exactly.
        for t in ing.hin.schema.node_types:
            assert ing.hin.names(t) is not None
            assert len(ing.hin.names(t)) == ing.hin.node_count(t)

    def test_failed_commit_leaves_no_phantom_ids(self, monkeypatch):
        ing = StreamIngestor(chunk_size=2)
        good = [
            PubRecord("a", "article", "first title", 2001, "V", ("A",)),
            PubRecord("b", "article", "second title", 2002, "V", ("B",)),
        ]
        ing.ingest(good)
        boom = RuntimeError("apply failed")

        def exploding_apply(batch):
            raise boom

        monkeypatch.setattr(ing.hin, "apply", exploding_apply)
        with pytest.raises(RuntimeError):
            ing.ingest([PubRecord("c", "article", "third title", 2003, "V", ("C",))])
        monkeypatch.undo()
        # The failed chunk adopted nothing: re-ingesting the same record
        # succeeds (no duplicate_key ghost) and ids continue densely.
        report = ing.ingest(
            [PubRecord("c", "article", "third title", 2003, "V", ("C",))]
        )
        assert report.ingested == 1
        assert report.skipped == {}
        assert ing.hin.names("paper") == ["a", "b", "c"]


class TestResume:
    def test_resume_into_half_loaded_network(self, dataset):
        records = dataset_records(dataset)
        half = len(records) // 2
        whole = StreamIngestor(chunk_size=30)
        whole.ingest(records)
        first = StreamIngestor(chunk_size=30)
        first.ingest(records[:half])
        resumed = StreamIngestor(first.hin, chunk_size=30)
        resumed.ingest(records[half:])
        _assert_bitwise_equal(whole.hin, resumed.hin)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_resume_from_a_snapshot_taken_mid_ingest(self, dataset, tmp_path, mmap):
        """Ingest stops part-way, the network goes through a snapshot,
        and a fresh ingestor finishes the stream on what was loaded —
        on the mapped route that is node-growth commits landing on
        read-only matrices — ending where an uninterrupted ingest does."""
        path = "author-paper-venue-paper-author"
        records = dataset_records(dataset)
        stop = 3 * 30  # three whole chunks in, the rest to come
        whole = StreamIngestor(chunk_size=30)
        whole.ingest(records)

        first = StreamIngestor(chunk_size=30)
        first.ingest(records[:stop])
        first.hin.engine().prewarm([path])
        save_snapshot(first.hin, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap", mmap=mmap)
        assert loaded.version == 3
        assert loaded.relation_matrix("writes").data.flags.writeable != mmap

        resumed = StreamIngestor(loaded, chunk_size=30)
        report = resumed.ingest(records[stop:])
        assert report.ingested == len(records) - stop and not report.skipped
        assert resumed.hin is loaded
        assert loaded.version == whole.hin.version
        assert state_digest(loaded) == state_digest(whole.hin)
        _assert_bitwise_equal(whole.hin, loaded)
        for author in whole.hin.names("author")[::7]:
            assert list(loaded.engine().pathsim_top_k(path, author, 5)) == list(
                whole.hin.engine().pathsim_top_k(path, author, 5)
            )

    def test_nodes_added_by_another_writer_are_found_not_re_added(self):
        """Regression: the ingestor resolved names against its own copy
        of the network's name maps, taken at construction, so an
        outside ``add_nodes`` made the next chunk re-add an existing
        name (``UpdateError``, chunk lost) and shifted ``paper_years``
        onto the outside paper's index."""
        ing = StreamIngestor(chunk_size=10)
        ing.ingest([PubRecord("p0", "article", "first title", 2001, "V", ("Ann",))])
        ing.hin.mutate().add_nodes("author", ["Bob"]).add_nodes("paper", ["x"]).commit()
        report = ing.ingest(
            [PubRecord("p1", "article", "second title", 2002, "V", ("Bob", "Ann"))]
        )
        assert report.ingested == 1 and not report.skipped
        assert ing.hin.names("author") == ["Ann", "Bob"]
        assert ing.hin.names("paper") == ["p0", "x", "p1"]
        assert ing.paper_years == [2001, None, 2002]
        writes = ing.hin.relation_matrix("writes").toarray()
        assert writes.tolist() == [[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]]

    def test_resume_skips_already_loaded_keys(self, dataset):
        records = dataset_records(dataset)
        ing = StreamIngestor(chunk_size=30)
        ing.ingest(records)
        again = StreamIngestor(ing.hin, chunk_size=30)
        report = again.ingest(records)
        assert report.ingested == 0
        assert report.skipped == {"duplicate_key": len(records)}


class TestConstruction:
    def test_rejects_unknown_policy_and_bad_chunk_size(self):
        with pytest.raises(IngestError, match="on_error"):
            StreamIngestor(on_error="explode")
        with pytest.raises(IngestError, match="chunk_size"):
            StreamIngestor(chunk_size=0)

    def test_rejects_non_dblp_schema(self):
        other = HIN(
            NetworkSchema(["a", "b"], [("r", "a", "b")]),
            {"a": 1, "b": 1},
            {},
            node_names={"a": ["x"], "b": ["y"]},
        )
        with pytest.raises(IngestError, match="schema"):
            StreamIngestor(other)

    def test_rejects_anonymous_node_types(self):
        schema = dblp_schema()
        anon = HIN(schema, {t: 0 for t in schema.node_types}, {})
        with pytest.raises(IngestError, match="anonymous"):
            StreamIngestor(anon)

    def test_empty_hin_default(self):
        ing = StreamIngestor()
        assert ing.hin.schema == dblp_schema()
        assert all(ing.hin.node_count(t) == 0 for t in ing.hin.schema.node_types)

    def test_empty_record_stream_commits_nothing(self):
        ing = StreamIngestor()
        report = ing.ingest([])
        assert (report.records, report.ingested, report.epochs) == (0, 0, 0)
        assert ing.hin.version == 0


class TestIntrospection:
    def test_ingest_stats_shape(self, fixture_xml):
        ing = StreamIngestor(chunk_size=40)
        ing.ingest(fixture_xml)
        stats = ing.ingest_stats()
        assert set(stats) == {
            "records",
            "ingested",
            "epochs",
            "skipped",
            "deduped_authors",
            "parse",
            "nodes",
            "links",
        }
        assert stats["records"] == stats["ingested"] + sum(
            stats["skipped"].values()
        )
        assert stats["nodes"]["paper"] == stats["ingested"]
        assert stats["parse"]["records"] == stats["records"]
        assert stats["parse"]["bytes_fed"] > 0
        assert stats["links"] == ing.hin.total_links

    def test_report_fields_and_rate(self, fixture_xml):
        ing = StreamIngestor(chunk_size=1000)
        report = ing.ingest(fixture_xml)
        assert report.records == report.ingested > 0
        assert report.seconds > 0
        assert "epochs=1" in repr(ing)

    def test_ingest_iter_yields_per_chunk(self, dataset, fixture_xml):
        n_records = dataset.hin.node_count("paper")
        ing = StreamIngestor(chunk_size=25)
        reports = list(ing.ingest_iter(fixture_xml))
        assert len(reports) == math.ceil(n_records / 25)
        assert [r.epochs for r in reports] == list(range(1, len(reports) + 1))
        assert reports[-1].ingested == n_records

    def test_ingest_years_tracked(self, dataset):
        records = dataset_records(dataset)
        ing = StreamIngestor(chunk_size=30)
        ing.ingest(records)
        assert ing.paper_years == [r.year for r in records]


class TestTokenizer:
    def test_tokenize_lowercases_and_dedupes_in_order(self):
        assert tokenize_title("Graph Mining: GRAPH mining, again!") == [
            "graph",
            "mining",
            "again",
        ]

    def test_min_len_filter(self):
        assert tokenize_title("A DB of X11 IO") == ["db", "of", "x11", "io"]
        assert tokenize_title("A DB of X11 IO", min_len=3) == ["x11"]


class TestDifferentialOracle:
    def test_generator_xml_ingest_roundtrip(self, dataset, fixture_xml):
        """The strongest oracle: generator -> XML -> chunked ingest must
        reproduce the generator's network edge-for-edge by name."""
        ing = StreamIngestor(chunk_size=33)
        ing.ingest(fixture_xml)
        gen = dataset.hin

        def edge_set(hin, rel):
            r = next(x for x in hin.schema.relations if x.name == rel)
            src = hin.names(r.source)
            dst = hin.names(r.target)
            m = hin.relation_matrix(rel).tocoo()
            return {(src[i], dst[j]) for i, j in zip(m.row, m.col)}

        for rel in ("writes", "published_in", "mentions"):
            assert edge_set(ing.hin, rel) == edge_set(gen, rel)
        # Every ingested node is a generator node (no inventions); the
        # only generator nodes missing are isolated (degree-0) ones.
        for t in ing.hin.schema.node_types:
            assert set(ing.hin.names(t)) <= set(gen.names(t))

    def test_second_dataset_same_seed_is_reproducible(self, tmp_path):
        xml_a = tmp_path / "a.xml"
        xml_b = tmp_path / "b.xml"
        write_dblp_xml(make_dblp_four_area(papers_per_area=20, seed=5), xml_a)
        write_dblp_xml(make_dblp_four_area(papers_per_area=20, seed=5), xml_b)
        assert xml_a.read_bytes() == xml_b.read_bytes()

    def test_mutate_hook_applies(self, dataset, tmp_path):
        path = tmp_path / "one.xml"
        n = write_dblp_xml(dataset, path, mutate=lambda rs: list(rs)[:3])
        assert n == 3
        ing = StreamIngestor()
        assert ing.ingest(path).ingested == 3

    def test_prefixed_writer_slice_is_disjoint(self, writer_xml, fixture_xml):
        base = StreamIngestor(chunk_size=1000)
        base.ingest(fixture_xml)
        before = base.hin.node_count("paper")
        more = StreamIngestor(base.hin, chunk_size=1000)
        report = more.ingest(writer_xml)
        assert report.skipped.get("duplicate_key", 0) == 0
        assert base.hin.node_count("paper") == before + report.ingested


class TestDataclassHygiene:
    def test_records_are_frozen_and_replaceable(self):
        rec = PubRecord("k", "article", "title words", 2001, "V", ("A",))
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.key = "other"
        assert dataclasses.replace(rec, key="w_k").key == "w_k"
