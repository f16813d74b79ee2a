"""Named entities in DBLP XML: ``dblp.xml`` declares its Latin-1 names
(``&uuml;``) in the external ``dblp.dtd``, which the reader never loads."""

from __future__ import annotations

import io

import pytest

from repro.exceptions import XmlSyntaxError
from repro.ingest import iter_dblp_records

DOCTYPE = '<!DOCTYPE dblp SYSTEM "dblp.dtd">\n'


def _doc(body: str, doctype: str = DOCTYPE) -> io.BytesIO:
    xml = f'<?xml version="1.0" encoding="UTF-8"?>\n{doctype}<dblp>\n{body}\n</dblp>\n'
    return io.BytesIO(xml.encode("utf-8"))


def _record(key: str, author: str) -> str:
    return (
        f'<article key="{key}"><author>{author}</author>'
        f"<title>T.</title><journal>J</journal></article>"
    )


def test_dtd_named_entities_resolve_from_html_table():
    (rec,) = iter_dblp_records(_doc(_record("k", "J&uuml;rgen M&ouml;ller &amp; Co")))
    assert rec.authors == ("Jürgen Möller & Co",)


def test_unknown_entity_is_syntax_error_after_the_records_ahead():
    body = _record("ok", "J&uuml;rgen") + _record("bad", "&nosuchname;")
    got = []
    with pytest.raises(XmlSyntaxError, match="nosuchname"):
        for rec in iter_dblp_records(_doc(body)):
            got.append((rec.key, rec.authors))
    assert got == [("ok", ("Jürgen",))]


def test_named_entity_without_doctype_stays_an_error():
    with pytest.raises(XmlSyntaxError, match="undefined entity"):
        list(iter_dblp_records(_doc(_record("k", "J&uuml;rgen"), doctype="")))
