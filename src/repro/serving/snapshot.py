"""Warm-cache snapshots: persist a HIN plus its materialized products.

A fresh serving process pays twice before its first fast answer: once to
load the network and once to re-materialize every commuting matrix the
workload needs.  A snapshot removes both costs.
:func:`save_snapshot` serializes the network (schema, node names,
relation matrices) *and* its shared engine's cached materializations —
prefix products and PathSim ``(W, diag)`` pairs — as flat arrays next
to a JSON manifest; :func:`load_snapshot` rebuilds the HIN and installs
the cache entries, so the first query is a cache hit.

Those two are the only way state goes to disk and the only way it comes
back.  A snapshot is one network and its cache at one update epoch
(``hin.version``, recorded in the manifest), and it always comes back
*as that network*: the cache is never attached to a network built some
other way, so it cannot be stale against the matrices beside it.  What
is left to check is the files.  The manifest records a **content hash**
over every relation matrix's bytes and a **cache hash** over the cached
arrays; the eager :func:`load_snapshot` re-verifies both, so a truncated
or hand-edited snapshot fails loudly instead of serving garbage.
``mmap=True`` skips that byte-reading check (trusted snapshots only).

The manifest also carries the network's standing-query registry
(:mod:`repro.watch`) as declarative specs: :func:`load_snapshot`
re-registers every persisted watch at the restored epoch, so
subscriptions resume maintenance across a restart.

On-disk layout (``path`` is a directory)::

    manifest.json             format, epoch, hashes, network section,
                              entry index, watch specs, and the
                              ``source``: the image's name and specs
    state-<epoch>-<h>.bin     the image: relation matrices (CSR arrays
                              under ``rel/``) and cached products /
                              PathSim parts

The manifest is a generation descriptor with extra fields, and the
image is the same file a generation publishes — the arrays flat at
64-byte-aligned offsets, their ``{offset, dtype, shape}`` specs in the
manifest's ``source`` — written and read back by the functions in
:mod:`repro.serving.shm` (``_write_document``, ``_open_state``), which
also own the state codec and the format version.  This module adds what
makes a *file* safe to trust: the hashes, the save ordering and the
checks on the way back in.

The image carries a content-addressed name and the manifest is
replaced atomically, last, so overwriting a snapshot in place is
crash-safe: a save that dies mid-way leaves the previous snapshot
loadable.  Snapshots are portable across processes and machines (plain
numpy arrays, no pickling) but tied to one library format version: a
directory written at another version (the two payload files of version
2 and the npz payloads of version 1 included) is refused and must be
saved again; saving over it removes the old payloads.
"""

from __future__ import annotations

import hashlib
import re
import threading
from pathlib import Path

import numpy as np

from repro.exceptions import SnapshotError
from repro.networks.hin import HIN
from repro.serving.shm import (
    _FORMAT_VERSION,
    _capture_state,
    _index_dtype,
    _open_state,
    _pack,
    _restoring,
    _write_document,
)

__all__ = ["save_snapshot", "load_snapshot", "network_fingerprint"]

_FORMAT = "repro-hin-snapshot"
# The names a save owns in its directory — its image and those of
# earlier saves, version 2's two payloads included, and temp files —
# removed unless the new manifest names them.  Only these: the directory
# may hold unrelated user files.
_STRAY = re.compile(r"(state|network|cache)-.*\.bin(\.tmp)?|manifest\.json\.tmp")

# One save at a time per target directory (within this process):
# concurrent saves only hold the engine's shared READ lock, so without
# this they could interleave and cross-delete each other's images.
_save_locks: dict[str, threading.Lock] = {}
_save_locks_mutex = threading.Lock()


def _save_lock_for(path: Path) -> threading.Lock:
    key = str(path.resolve())
    with _save_locks_mutex:
        lock = _save_locks.get(key)
        if lock is None:
            lock = _save_locks[key] = threading.Lock()
        return lock


def network_fingerprint(hin: HIN) -> str:
    """SHA-256 over node counts and every relation matrix's exact content.

    Two networks fingerprint equal iff they have the same counts and
    bit-identical CSR arrays — what the eager :func:`load_snapshot`
    checks the restored network against.
    """
    return _content_fingerprint(
        [(t, hin.node_count(t)) for t in hin.schema.node_types],
        [(rel.name, hin.relation_matrix(rel.name)) for rel in hin.schema.relations],
    )


def _content_fingerprint(counts: list, matrices: list) -> str:
    """The :func:`network_fingerprint` hash from captured ``(name, value)``
    lists — lets a caller capture references under a lock and pay for the
    hashing after releasing it (matrices are replaced, never mutated).
    Index arrays hash at the width :func:`_write_csr` writes, so one
    matrix fingerprints the same however wide its live indices are."""
    digest = hashlib.sha256()
    for t, count in counts:
        digest.update(f"{t}={count};".encode())
    for name, m in matrices:
        m = m.tocsr()
        if not m.has_canonical_format:
            # Canonicalize a COPY: fingerprinting must never mutate the
            # live network (sum_duplicates rewrites the CSR arrays in
            # place, racing concurrent readers of the same matrix).
            m = m.copy()
            m.sum_duplicates()
        idx = _index_dtype(m)
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(m.indptr, dtype=idx).tobytes())
        digest.update(np.ascontiguousarray(m.indices, dtype=idx).tobytes())
        digest.update(np.ascontiguousarray(m.data, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _cache_fingerprint(arrays) -> str:
    """SHA-256 over an image's cached arrays (sorted names, raw bytes):
    every array but the relation matrices' ``rel/*``, which the content
    hash covers."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        if not name.startswith("rel/"):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    return digest.hexdigest()


def save_snapshot(hin: HIN, path) -> dict:
    """Write a warm-cache snapshot of *hin* to *path*.

    Parameters
    ----------
    hin:
        The :class:`~repro.networks.hin.HIN` to persist; its shared
        engine's (``hin.engine()``) cache is captured with it.
    path:
        Directory to create/overwrite.  Files written: ``manifest.json``
        plus the uniquely-named image file it references.

    The network and cache are captured under the engine's read lock
    (:func:`_capture_state`), so the snapshot describes exactly one
    update epoch even while writers are active.

    Overwriting an existing snapshot is crash-safe: the image carries a
    content-addressed name and the manifest is swapped in atomically
    (write-then-rename) only after it is fully written, so a save that
    dies mid-way leaves the previous snapshot loadable; files the new
    manifest no longer references are removed last.  Returns the
    manifest dict.

    Raises
    ------
    TypeError
        When *hin* is not a HIN — an engine included: call
        ``save_snapshot(engine.hin, path)``.
    repro.exceptions.SnapshotError
        When a node name or a watch query would not read back from JSON
        as itself (an ``object()``, a tuple); nothing is written.
    """
    if not isinstance(hin, HIN):
        raise TypeError(
            f"save_snapshot() takes a HIN, got {type(hin).__name__}; "
            f"for an engine call save_snapshot(engine.hin, path)"
        )
    out = Path(path)
    section, matrices, entries = _capture_state(hin, hin.engine())
    arrays, index = _pack(matrices, entries)

    # The standing-query registry is captured OUTSIDE the read-lock
    # window: spec_dicts() takes the registry mutex, and the canonical
    # lock order is registry mutex -> engine lock (the maintainer's
    # commit hook holds the mutex while computing).  Taking them in the
    # other order here could deadlock against a queued writer.  Specs
    # are declarative — a registration racing the save lands in this
    # snapshot or the next, both valid.
    manager = hin._watch_manager
    watch_specs = manager.spec_dicts() if manager is not None else []

    # Hashing happens AFTER the locks release: the captured matrix and
    # array references stay valid (updates replace matrices, never
    # mutate them), and the O(total-bytes) SHA-256 work must not extend
    # the window during which a queued writer stalls new queries.
    content_hash = _content_fingerprint(list(section["node_counts"].items()), matrices)
    cache_hash = _cache_fingerprint(arrays)
    digest = hashlib.sha256(f"{content_hash}:{cache_hash}".encode()).hexdigest()
    manifest = {
        "format": _FORMAT,
        "format_version": _FORMAT_VERSION,
        "content_hash": content_hash,
        "cache_hash": cache_hash,
        **section,
        "entries": index,
        "watches": watch_specs,
    }
    # Crash-safe ordering: the image first (tmp + atomic rename, so a
    # re-save at the same epoch never rewrites a referenced file in
    # place), manifest swapped in atomically last, then strays from
    # previous or crashed saves removed.  Serialized per directory so
    # concurrent saves cannot delete each other's images.
    with _save_lock_for(out):
        image = out / f"state-{section['epoch']}-{digest[:12]}.bin"
        _write_document(out / "manifest.json", image, manifest, arrays)
        for stray in out.iterdir():
            if _STRAY.fullmatch(stray.name) and stray.name != image.name:
                stray.unlink(missing_ok=True)
    return manifest


def load_snapshot(path, *, mmap: bool = False) -> HIN:
    """Rebuild the snapshotted network with a pre-warmed engine.

    Parameters
    ----------
    path:
        A snapshot directory written by :func:`save_snapshot`.
    mmap:
        ``False`` (default) deserializes the image into process memory
        and re-verifies the manifest's content and cache hashes — a
        corrupted snapshot raises
        :class:`~repro.exceptions.SnapshotError`.  ``True`` returns a
        network whose matrices are zero-copy, read-only views mapped
        straight over the image file: nothing is deserialized, the OS
        page cache shares one copy across every process mapping the
        same snapshot, and startup is O(1) in the image size.  The
        hashes are **not** re-verified on this path (verification
        reads every byte, which is exactly the cost being skipped);
        mmap-load only snapshots you trust, e.g. ones this process
        wrote.

    Returns
    -------
    A new :class:`~repro.networks.hin.HIN` whose
    :attr:`~repro.networks.hin.HIN.version` is the snapshot's recorded
    epoch and whose shared engine already holds every materialization
    the snapshot captured — the first query is a cache hit.

    Raises
    ------
    repro.exceptions.SnapshotError
        On a missing/corrupt manifest (an existing but empty directory
        included), a missing image, or (eager path) image bytes that
        fail hash verification.
    """
    manifest_path = Path(path) / "manifest.json"
    try:
        # Snapshots hold canonical CSR; the mmap views are read-only and
        # must not be re-normalized in place (the trusted route).
        manifest, arrays, _, hin, _ = _open_state(manifest_path, _FORMAT, "snapshot manifest", mmap)
    except FileNotFoundError as exc:
        raise SnapshotError(
            f"snapshot file missing: {exc.filename} (no snapshot, a partial "
            f"copy or an interrupted save)"
        ) from None
    # A manifest that parses but is not the document save_snapshot wrote
    # fails inside this block as SnapshotError (repro.serving.shm).
    with _restoring(manifest_path, "snapshot manifest"):
        if hin is None:
            raise SnapshotError(f"malformed snapshot manifest at {manifest_path}: no network")
        # Hash verification reads every byte — the exact cost the mmap
        # path exists to skip (its contract is "trusted snapshot").
        if not mmap and network_fingerprint(hin) != manifest["content_hash"]:
            raise SnapshotError(
                f"snapshot at {path} failed content verification "
                f"(relation matrices do not match the manifest hash)"
            )
        if not mmap and _cache_fingerprint(arrays) != manifest["cache_hash"]:
            raise SnapshotError(
                f"snapshot at {path} failed cache verification "
                f"(cached products do not match the manifest hash)"
            )
        # Resume persisted standing queries at the restored epoch: each
        # spec re-registers (initial result from the warmed cache) and its
        # subscription stays reachable via hin.watches().subscriptions().
        watch_specs = manifest.get("watches") or []
        if watch_specs:
            hin.watches().restore(watch_specs)
    return hin
