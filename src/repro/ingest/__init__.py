"""Streaming real-data ingest.

The bridge from raw DBLP-shaped XML to a served, updatable HIN:

* :func:`~repro.ingest.dblp_xml.iter_dblp_records` — constant-memory
  streaming of arbitrarily large DBLP XML (an expat field reader fed
  bounded slices, no element tree; typed
  :class:`~repro.exceptions.IngestError` taxonomy);
* :class:`~repro.ingest.stream.StreamIngestor` — folds the record
  stream into bounded :class:`~repro.networks.UpdateBatch` chunks
  committed through the normal ``hin.apply()`` path, so ingest *is* an
  update-stream scenario (engine maintenance, planner stats, watches
  and cluster republication all run underneath a bulk load);
* :func:`~repro.ingest.fixture.write_dblp_xml` — deterministic
  DBLP-shaped fixtures from the synthetic four-area generator, closing
  the generator → XML → ingest differential loop.

See ``docs/GUIDE.md`` → "Real data" for the walkthrough; ``tests/ingest/``
pins the identity guarantees and the benchmark's ``bulk_ingest``
workload (``benchmarks/perf/README.md``) measures the throughput.
"""

from repro.ingest.dblp_xml import (
    KNOWN_RECORD_TAGS,
    PUBLICATION_TAGS,
    ParseStats,
    PubRecord,
    iter_dblp_records,
)
from repro.ingest.fixture import (
    dataset_records,
    make_fixture_xml,
    record_xml,
    write_dblp_xml,
)
from repro.ingest.stream import (
    IngestReport,
    StreamIngestor,
    canonical_state,
    state_digest,
    tokenize_title,
)

__all__ = [
    "iter_dblp_records",
    "PubRecord",
    "ParseStats",
    "PUBLICATION_TAGS",
    "KNOWN_RECORD_TAGS",
    "StreamIngestor",
    "IngestReport",
    "canonical_state",
    "state_digest",
    "tokenize_title",
    "write_dblp_xml",
    "make_fixture_xml",
    "record_xml",
    "dataset_records",
]
