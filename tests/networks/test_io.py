"""Unit tests for plain-text network IO."""

from __future__ import annotations

import io

import pytest

from repro.exceptions import GraphError, SchemaError
from repro.networks import (
    Graph,
    read_edge_list,
    read_hin,
    write_edge_list,
    write_hin,
)


class TestEdgeListIO:
    def test_round_trip_undirected(self, triangle, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(triangle, path)
        assert read_edge_list(path) == triangle

    def test_round_trip_directed_weighted(self, tmp_path):
        g = Graph.from_edges(3, [(0, 1, 2.5), (2, 0)], directed=True)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_stringio(self, triangle):
        buf = io.StringIO()
        write_edge_list(triangle, buf)
        buf.seek(0)
        assert read_edge_list(buf) == triangle

    def test_headerless_infers_nodes(self):
        buf = io.StringIO("0 1\n1 2\n")
        g = read_edge_list(buf)
        assert g.n_nodes == 3 and not g.directed

    def test_explicit_overrides(self):
        buf = io.StringIO("0 1\n")
        g = read_edge_list(buf, n_nodes=5, directed=True)
        assert g.n_nodes == 5 and g.directed

    def test_isolated_trailing_nodes_preserved(self, tmp_path):
        g = Graph.from_edges(6, [(0, 1)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path).n_nodes == 6

    def test_malformed_line(self):
        with pytest.raises(GraphError, match="line 1"):
            read_edge_list(io.StringIO("0 1 2 3\n"))

    def test_bad_token_names_the_line(self):
        """A fractional index or a non-numeric weight is the reader's
        typed error naming the line, not a bare ``int()`` ValueError."""
        for text in ("0 1\n0 1.5\n", "0 1\n0 1 x\n"):
            with pytest.raises(GraphError, match="line 2"):
                read_edge_list(io.StringIO(text))

    def test_comments_and_blanks_skipped(self):
        g = read_edge_list(io.StringIO("\n# comment\n0 1\n\n"))
        assert g.n_edges == 1


class TestHinIO:
    def test_round_trip(self, small_bib, tmp_path):
        path = tmp_path / "hin.txt"
        write_hin(small_bib, path)
        back = read_hin(path)
        assert back.schema == small_bib.schema
        for t in small_bib.schema.node_types:
            assert back.node_count(t) == small_bib.node_count(t)
            assert back.names(t) == small_bib.names(t)
        for rel in small_bib.schema.relations:
            diff = back.relation_matrix(rel.name) != small_bib.relation_matrix(rel.name)
            assert diff.nnz == 0

    def test_round_trip_weighted(self, bib_schema, tmp_path):
        from repro.networks import HIN

        hin = HIN.from_edges(
            bib_schema,
            nodes={"author": 2, "paper": 2, "venue": 1, "term": 1},
            edges={"writes": [(0, 0, 2.5), (1, 1)]},
        )
        path = tmp_path / "hin.txt"
        write_hin(hin, path)
        back = read_hin(path)
        assert back.relation_matrix("writes")[0, 0] == 2.5

    def test_anonymous_types_round_trip(self, bib_schema):
        from repro.networks import HIN

        hin = HIN.from_edges(
            bib_schema,
            nodes={"author": 3, "paper": 2, "venue": 1, "term": 1},
            edges={"writes": [(2, 1)]},
        )
        buf = io.StringIO()
        write_hin(hin, buf)
        buf.seek(0)
        back = read_hin(buf)
        assert back.node_count("author") == 3
        assert back.names("author") is None

    def test_malformed_section(self):
        with pytest.raises(SchemaError):
            read_hin(io.StringIO("*nodes author\n"))

    def test_bad_token_names_the_line(self):
        head = "*schema\nw a p\n*nodes a 2\n*nodes p 2\n*relation w\n"
        for link in ("0.5 1\n", "0 1 x\n"):
            with pytest.raises(SchemaError, match="line 6"):
                read_hin(io.StringIO(head + link))

    def test_content_before_header(self):
        with pytest.raises(SchemaError, match="before any section"):
            read_hin(io.StringIO("0 1\n"))

    def test_name_count_mismatch(self):
        text = "*schema\n*nodes a 3\nonly_one_name\n"
        with pytest.raises(SchemaError, match="names"):
            read_hin(io.StringIO(text))
