"""The cold oracle: every workload checks what it timed.

Each answer the program gave carries the epoch it was computed at
(``network_version``).  The oracle replays the run's commit list onto a
fresh copy of the dataset and, at the epochs it visits, asks a cold
``MetaPathEngine(mode="materialize")`` — which shares no cache, no
service and no incremental maintenance with the run — for the same
answer.  Answers must be equal with ``==``: same names, same order, the
same float64 scores.
"""

from __future__ import annotations

from repro.datasets import dblp_schema
from repro.engine import MetaPathEngine
from repro.ingest import StreamIngestor, state_digest
from repro.networks import HIN
from repro.query import QuerySession
from repro.serving import network_fingerprint


def answer(session, op):
    """Execute one generated *op* through a :class:`QuerySession`."""
    verb, obj, path, k = op
    if verb == "similar":
        return session.similar(obj, path, k)
    if verb == "connected":
        return session.connected(obj, path, k)
    return session.rank(path)


def cold_session(hin) -> QuerySession:
    return QuerySession(hin, engine=MetaPathEngine(hin, mode="materialize"))


def _choose(reads, sample, rng, include=()) -> dict[int, list]:
    """``{epoch: [(op, answer)]}`` for ≥ *sample* answered reads, drawn epoch
    by epoch so that few epochs need a cold engine; indices in *include*
    are always among them."""
    by_epoch: dict[int, list[int]] = {}
    for i, (_op, got) in enumerate(reads):
        if got is not None:
            by_epoch.setdefault(got.network_version, []).append(i)
    epochs = sorted(by_epoch)
    chosen: list[int] = []
    for pick in rng.permutation(len(epochs)):
        chosen.extend(by_epoch[epochs[pick]])
        if len(chosen) >= sample:
            break
    if len(chosen) > sample:
        chosen = [chosen[i] for i in rng.permutation(len(chosen))[:sample]]
    to_check: dict[int, list] = {}
    for i in sorted(set(chosen) | set(include)):
        op, got = reads[i]
        to_check.setdefault(got.network_version, []).append((op, got))
    return to_check


def _compare(session, epoch, items, memo) -> int:
    """How many of *items* ``(op, got)`` differ from the cold answer."""
    wrong = 0
    for op, got in items:
        if op not in memo:
            memo[op] = list(answer(session, op))
        wrong += list(got) != memo[op] or got.network_version != epoch
    return wrong


def check_reads(
    ctx, batches, reads, sample, rng, *, pushes=(), include=()
) -> tuple[int, int]:
    """Check a seeded sample of *reads* and every watch push in *pushes*.

    *reads* is ``[(op, answer)]``; *pushes* is ``[((obj, path),
    [(epoch, result), ...])]``.  Returns ``(checked, wrong)``.
    """
    to_check = _choose(reads, sample, rng, include)
    for (obj, path), delivered in pushes:
        for epoch, result in delivered:
            to_check.setdefault(epoch, []).append(
                (("similar", obj, path, 10), result)
            )
    checked = sum(len(v) for v in to_check.values())
    wrong = sum(len(v) for e, v in to_check.items() if e > len(batches))
    replay = ctx.fresh()
    for epoch in range(min(max(to_check, default=0), len(batches)) + 1):
        if epoch:
            replay.apply(batches[epoch - 1])
        if epoch in to_check:
            wrong += _compare(cold_session(replay), epoch, to_check[epoch], {})
    return checked, wrong


def check_network(ctx, batches, hin) -> int:
    """1 unless *hin* equals the dataset with *batches* replayed onto it
    with nothing attached (no engine, no watches, no service)."""
    replay = ctx.fresh()
    for batch in batches:
        replay.apply(batch)
    same = (
        network_fingerprint(replay) == network_fingerprint(hin)
        and replay.version == hin.version
    )
    return 0 if same else 1


def check_ingest_reads(
    xml, chunk, reads, sample, rng, *, include=()
) -> tuple[int, int]:
    """Like :func:`check_reads`, for reads served *during* an ingest: the
    replay is a second, bare ingest of the same file."""
    to_check = _choose(reads, sample, rng, include)
    checked = sum(len(v) for v in to_check.values())
    wrong = 0
    seen = set()
    ingestor = StreamIngestor(chunk_size=chunk)
    for _report in ingestor.ingest_iter(xml):
        epoch = ingestor.hin.version
        if epoch in to_check:
            seen.add(epoch)
            wrong += _compare(
                cold_session(ingestor.hin), epoch, to_check[epoch], {}
            )
        if epoch >= max(to_check, default=0):
            break
    wrong += sum(len(v) for e, v in to_check.items() if e not in seen)
    return checked, wrong


def check_ingested(records, hin) -> int:
    """1 unless the ingested network holds exactly what *records* say.

    The reference is built here from the record list — names, authorship,
    venue and title words — through ``HIN.from_edges``, never through the
    ingest path, and compared by name-canonical digest.
    """
    index: dict[str, dict] = {t: {} for t in ("author", "paper", "venue", "term")}
    edges: dict[str, list] = {"writes": [], "published_in": [], "mentions": []}

    def node(node_type, name):
        return index[node_type].setdefault(name, len(index[node_type]))

    for record in records:
        paper = node("paper", record.key)
        for author in record.authors:
            edges["writes"].append((node("author", author), paper))
        edges["published_in"].append((paper, node("venue", record.venue)))
        for term in dict.fromkeys(record.title.split()):
            edges["mentions"].append((paper, node("term", term)))
    reference = HIN.from_edges(
        dblp_schema(), nodes={t: list(names) for t, names in index.items()},
        edges=edges,
    )
    return 0 if state_digest(reference) == state_digest(hin) else 1
