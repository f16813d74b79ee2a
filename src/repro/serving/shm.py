"""Generations: one immutable image of network state, in a file.

One Python process caps the dense-product hot paths at roughly one core
— the GIL serializes scipy's CSR kernels no matter how many threads the
:class:`~repro.serving.QueryService` pool runs.  Scaling past that means
*processes*, and processes must not each own a private copy of the
relation matrices and warm commuting-matrix cache: on a production
network those are the dominant memory cost, and N deserializations are
the dominant startup cost.

This module is the sharing substrate.  A **generation** is one
published, immutable snapshot of a network's serveable state — schema,
node counts and names, canonical-CSR relation matrices, the engine's
warm cache entries, and the update epoch they all describe — whose
array payloads live in one image file any process can map
(:func:`publish_generation`): the parent writes every array into the
file once; workers map it and wrap the mapping in numpy views without
copying a byte.  Every process mapping the file shares one copy of its
pages through the OS page cache.

**The container.**  A ``{name: array}`` dict is stored as one *image*:
the arrays laid end to end, flat and C-contiguous, each at a
64-byte-aligned offset, described by ``{name: {offset, dtype, shape}}``
*specs* kept in the JSON document beside it (:func:`_layout` one way,
:func:`_unpack` the other).  A document and its image are written by
one function, :func:`_write_document`: the image to a temporary name
and renamed, then the document the same way, its ``source`` block
naming the image and holding the specs.  A generation's descriptor and
a warm-cache snapshot's manifest (:mod:`repro.serving.snapshot`) are
both such documents, and one function reads either back with its state
(:func:`_open_state`).  The image is read one of two ways
(:func:`_read_file`):

* a mapping — what a worker attaches and what
  ``load_snapshot(path, mmap=True)`` returns: read-only views over one
  ``np.memmap``, nothing deserialized;
* an eager read into arrays the caller owns (``mmap=False``).

Both kinds of document carry ``_FORMAT_VERSION``, which changes with
the layout; documents of another version are refused.

**The state codec.**  What goes into an image is decided here too: how
a network and its engine cache at one epoch become a JSON network
section, an entry index and flat arrays, and back (``_capture_state`` /
``_pack`` one way, ``_restore_network`` / ``_restore_entries`` the
other, under :func:`_restoring`).  Snapshots, replicated generations
and shard generations all go through these functions.

A generation is described by a JSON **descriptor** naming the image
file beside it and the structure over it — a snapshot's manifest is
such a descriptor with extra fields; :func:`attach_generation`
turns a descriptor back into a live :class:`~repro.networks.hin.HIN`
plus a warm :class:`~repro.engine.MetaPathEngine`, still zero-copy:
matrices are constructed directly over the mapped buffers
(``HIN(..., validate=False)`` skips the normalizations that would write
them).  Generations are immutable once published — a new epoch means a
*new* generation, never an edit — so a worker can never observe a torn
matrix: it either still serves the old generation or has atomically
swapped to the complete new one.  A *shard* generation
(:func:`repro.serving.shards.publish_shard_generation`) is the same
descriptor without the network section, whose PathSim entries carry the
``lo``/``hi`` row range they were sliced to; it goes through the same
publish tail and :func:`attach_generation`.

The service classes drive the lifecycle (:mod:`repro.serving.workers`):
publish on start, re-publish from the ``hin.apply()`` commit hook,
retire old generations once workers have moved on.  Retiring a
generation removes its two files; nothing else holds it.  So a parent
killed before it retires them (SIGKILL, say) leaves its descriptors and
images on disk, in the directory it published into.
"""

from __future__ import annotations

import gc
import json
import math
import os
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.exceptions import SnapshotError
from repro.networks.hin import HIN
from repro.networks.schema import NetworkSchema

__all__ = [
    "publish_generation",
    "attach_generation",
    "PublishedGeneration",
    "AttachedGeneration",
]

_FORMAT = "repro-shm-generation"
_FORMAT_VERSION = 3  # of the document + image layout; manifests and descriptors both carry it
_ALIGN = 64  # cache-line align every array inside an image


# ----------------------------------------------------------------------
# The container: one image of flat arrays in a file
# ----------------------------------------------------------------------
def _layout(arrays: dict) -> tuple[dict, int]:
    """Where each of *arrays* goes in one image: ``(specs, size)``.

    Arrays follow one another in dict order, flat and C-contiguous, each
    at a 64-byte-aligned offset; *specs* records every array's
    ``{offset, dtype, shape}`` and *size* is the image's length in bytes.
    """
    specs: dict[str, dict] = {}
    size = 0
    for key, value in arrays.items():
        offset = (size + _ALIGN - 1) // _ALIGN * _ALIGN
        specs[key] = {
            "offset": offset,
            "dtype": value.dtype.str,
            "shape": list(value.shape),
        }
        size = offset + value.nbytes
    return specs, size


def _unpack(specs: dict, size: int, source, read) -> dict:
    """The arrays *specs* describe in the *size*-byte image *source*,
    each one fetched by ``read(shape, dtype, offset)``.

    The specs come from a manifest or a descriptor — outside input — so
    all of them are checked before anything is built over the image:
    an array must lie inside it (which is what catches a truncated
    payload, in O(1)) and may not have an object dtype (those hold
    pointers, not data).
    """
    checked = []
    for key, spec in specs.items():
        shape, dtype = tuple(spec["shape"]), np.dtype(spec["dtype"])
        offset, nbytes = spec["offset"], math.prod(shape) * dtype.itemsize
        if dtype.hasobject or min((offset, *shape)) < 0 or offset + nbytes > size:
            raise SnapshotError(
                f"snapshot payload unreadable: {source} (truncated or corrupted: "
                f"{dtype} array {key!r} at bytes {offset}..{offset + nbytes} of {size})"
            )
        checked.append((key, shape, dtype, offset))
    return {key: read(*where) for key, *where in checked}


def _read_file(path: Path, specs: dict, *, mmap: bool) -> tuple[dict, int]:
    """The arrays of the image file at *path*, and its size in bytes.

    ``mmap=True`` returns read-only views over one mapping of the file
    — nothing is deserialized, and every process mapping the same file
    shares one copy through the OS page cache.  ``mmap=False`` reads
    each array into memory the caller owns.

    Raises
    ------
    FileNotFoundError
        When *path* is missing — a retired generation's image, or a
        snapshot image that was never written (the caller names it).
    repro.exceptions.SnapshotError
        When the file is shorter than *specs* say.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if mmap and size:  # an empty file cannot be mapped, and holds nothing
            mapped = np.memmap(f, np.uint8, "r")

            def read(shape, dtype, offset):  # a view of a read-only map is read-only
                return np.ndarray(shape, dtype, mapped, offset)

        else:

            def read(shape, dtype, offset):
                f.seek(offset)
                return np.fromfile(f, dtype, math.prod(shape)).reshape(shape)

        return _unpack(specs, size, path, read), size


def _write_document(path: Path, image: Path, document: dict, arrays: dict) -> None:
    """Write *arrays* as the image file *image*, then *document* as the
    JSON file *path*, each through a temporary name and a rename.

    *document* gains the ``source`` block — the image's file name and
    the arrays' specs (:func:`_layout`).  The document's rename is the
    publication point: whoever reads it finds the complete image it
    names.  Each array goes from its own memory to the file; no whole
    image is assembled first.  The document is compact JSON: with an
    ``indent``, ``json`` would use its pure-Python encoder.

    The document must read back as itself, so what JSON cannot carry
    (an ``object()`` node name) or would change (a tuple name comes
    back a list, which a network cannot index by) is a
    :class:`~repro.exceptions.SnapshotError` before any file is
    written.  A failed write removes its temporary files; the image, if
    already renamed into place, is the caller's to remove or keep.
    """
    specs, size = _layout(arrays)
    document["source"] = {"file": image.name, "arrays": specs}
    try:
        text = json.dumps(document)
        if json.loads(text) != document:
            raise TypeError("it reads back changed: a tuple comes back a list")
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"cannot write {path}: its content is not JSON ({exc})") from None
    temps = [image.with_name(image.name + ".tmp"), path.with_name(path.name + ".tmp")]
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(temps[0], "wb") as f:
            for key, value in arrays.items():
                f.seek(specs[key]["offset"])
                value.tofile(f)
            f.truncate(size)
        os.replace(temps[0], image)
        temps[1].write_text(text, encoding="utf-8")
        os.replace(temps[1], path)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


# ----------------------------------------------------------------------
# The state codec: network + engine cache at one epoch <-> a JSON
# section, an entry index and flat arrays
# ----------------------------------------------------------------------
def _index_dtype(m: sp.csr_matrix):
    """The index width the codec writes *m* at — int32 when it fits, the
    width scipy's constructor narrows to on the way back in."""
    return np.int32 if m.nnz < 2**31 and max(m.shape) < 2**31 else np.int64


def _write_csr(prefix: str, matrix: sp.csr_matrix, arrays: dict) -> None:
    """Record *matrix*'s CSR arrays under *prefix*.

    Index arrays are written at :func:`_index_dtype`, the width scipy
    would pick for them, so :func:`_read_csr` adopts the buffers instead
    of silently casting — a cast is a per-process copy of a shared
    image, and a width the content hash would not survive.
    """
    matrix = matrix.tocsr()
    idx = _index_dtype(matrix)
    arrays[f"{prefix}/data"] = np.asarray(matrix.data, dtype=np.float64)
    arrays[f"{prefix}/indices"] = matrix.indices.astype(idx, copy=False)
    arrays[f"{prefix}/indptr"] = matrix.indptr.astype(idx, copy=False)


def _read_csr(prefix: str, arrays, shape, trusted: bool) -> sp.csr_matrix:
    """A CSR matrix adopting the (possibly read-only) arrays at *prefix*.

    On the *trusted* zero-copy route (a mapped image: an attached
    generation, an mmap-loaded snapshot) the matrices were canonical
    when written, so the flag is
    asserted rather than recomputed — attaching stays O(1) in the
    matrix size.  The eager route leaves it for scipy to find out.
    """
    matrix = sp.csr_matrix(
        (
            arrays[f"{prefix}/data"],
            arrays[f"{prefix}/indices"],
            arrays[f"{prefix}/indptr"],
        ),
        shape=tuple(shape),
        copy=False,
    )
    if trusted:
        matrix.has_canonical_format = True
    return matrix


def _capture_state(hin, engine) -> tuple[dict, list, list]:
    """One epoch of *hin* + *engine*, by reference: ``(section, matrices,
    entries)``.

    *section* is the JSON network section (epoch, types, counts,
    relations with shapes, names), *matrices* the ``(relation name,
    matrix)`` list it describes and *entries* the engine's cache.  All
    three are read under one engine read-lock hold, so they describe
    exactly one update epoch even while writers are active; for a
    *detached* engine (constructed with kwargs) the network's shared
    engine's lock is held as well — that is the lock ``hin.apply()``
    commits under.  Nothing is copied or hashed here: matrices are
    replaced, never mutated, so the O(bytes) work happens after release.
    """
    with ExitStack() as stack:
        stack.enter_context(engine.lock.read())
        shared = hin.engine() if isinstance(hin, HIN) else None
        if shared is not None and shared is not engine:
            stack.enter_context(shared.lock.read())
        epoch, entries = engine.export_state()
        matrices = [
            (rel.name, hin.relation_matrix(rel.name)) for rel in hin.schema.relations
        ]
        section = {
            "epoch": int(epoch),
            "node_types": list(hin.schema.node_types),
            "node_counts": {t: hin.node_count(t) for t in hin.schema.node_types},
            "relations": [
                {
                    "name": rel.name,
                    "source": rel.source,
                    "target": rel.target,
                    "shape": list(matrix.shape),
                }
                for rel, (_, matrix) in zip(hin.schema.relations, matrices)
            ],
            "names": {
                t: names
                for t in hin.schema.node_types
                if (names := hin.names(t)) is not None
            },
        }
    return section, matrices, entries


def _restore_network(section: dict, arrays, trusted: bool) -> HIN:
    """The HIN a network *section* describes over *arrays*, at its epoch.

    *trusted* (a mapped image) adopts the read-only
    buffers as they are; otherwise ``HIN(validate=True)`` normalises
    what it is given.
    """
    schema = NetworkSchema(
        section["node_types"],
        [(r["name"], r["source"], r["target"]) for r in section["relations"]],
    )
    matrices = {
        r["name"]: _read_csr(f"rel/{r['name']}", arrays, r["shape"], trusted)
        for r in section["relations"]
    }
    hin = HIN(
        schema,
        section["node_counts"],
        matrices,
        node_names=section["names"] or None,
        validate=not trusted,
    )
    hin._version = int(section["epoch"])
    return hin


def _build_entry_index(entries, arrays: dict, matrices=()) -> list[dict]:
    """Flatten engine cache *entries* into *arrays*; return their index.

    The single definition of the entry schema (``kind`` / ``steps`` /
    ``prefix`` / ``shape``) in a manifest or a descriptor.

    Each distinct matrix is written once: a PathSim entry's ``W`` *is*
    the cached half product, so the second key to reach an object names
    the arrays the first one wrote (``"csr"``) instead of copying them.
    The relation *matrices* (``(name, matrix)``, already written under
    ``rel/<name>``) count as written: a one-step half such as
    ``A-P-A``'s ``W`` *is* a relation matrix.
    """
    index = []
    # id(matrix) -> csr prefix
    written = {id(matrix): f"rel/{name}" for name, matrix in matrices}
    for i, (key, value) in enumerate(entries):
        kind, steps = key
        prefix = f"entry{i}"
        if kind == "pathsim":
            matrix, diag = value
            own = f"{prefix}/w"
            arrays[f"{prefix}/diag"] = np.asarray(diag, dtype=np.float64)
        else:
            matrix, own = value, prefix
        if id(matrix) not in written:
            written[id(matrix)] = own
            _write_csr(own, matrix, arrays)
        csr = written[id(matrix)]
        index.append(
            {
                "kind": kind,
                "steps": [[name, bool(fwd)] for name, fwd in steps],
                "prefix": prefix,
                "shape": list(matrix.shape),
                **({"csr": csr} if csr != own else {}),
            }
        )
    return index


def _pack(matrices, entries, ranges=()) -> tuple[dict, list[dict]]:
    """One epoch's captured state as flat arrays: ``(arrays, index)``.

    The relation *matrices* (``(name, matrix)``) go under ``rel/<name>``
    and the cache *entries* behind the entry index
    (:func:`_build_entry_index`); a shard's entries add their
    ``lo``/``hi`` row *ranges* to it.  What every generation and every
    snapshot writes.
    """
    arrays: dict[str, np.ndarray] = {}
    for name, matrix in matrices:
        _write_csr(f"rel/{name}", matrix, arrays)
    index = _build_entry_index(entries, arrays, matrices)
    for desc, rows in zip(index, ranges):
        desc.update(rows)
    return arrays, index


def _restore_entries(entry_index, arrays, trusted: bool, hin=None) -> list[tuple]:
    """The inverse of :func:`_build_entry_index`: engine ``(key, value)``
    pairs from a serialized entry index over *arrays*.  Entries naming
    the same ``"csr"`` arrays get the same matrix object back, and one
    naming ``rel/<name>`` gets the restored network *hin*'s own relation
    matrix; an index without the field (written before matrices were
    shared) reads every entry from its own arrays."""
    entries: list[tuple] = []
    matrices: dict[str, sp.csr_matrix] = {}
    if hin is not None:
        for rel in hin.schema.relations:
            matrices[f"rel/{rel.name}"] = hin.relation_matrix(rel.name)
    for desc in entry_index:
        key = (
            desc["kind"],
            tuple((name, bool(fwd)) for name, fwd in desc["steps"]),
        )
        pathsim = desc["kind"] == "pathsim"
        csr = desc.get("csr", f"{desc['prefix']}/w" if pathsim else desc["prefix"])
        if csr not in matrices:
            matrices[csr] = _read_csr(csr, arrays, desc["shape"], trusted)
        if pathsim:
            diag = np.asarray(arrays[f"{desc['prefix']}/diag"])
            entries.append((key, (matrices[csr], diag)))
        else:
            entries.append((key, matrices[csr]))
    return entries


@contextmanager
def _restoring(path, what: str):
    """The one place a document becomes state: the body reads a *what*
    (from *path*) and builds what it describes.  What a hand-edited
    document makes that raise — a missing key, a value of the wrong
    type (a list where specs belong, say), a shape its arrays do not
    have — leaves as the
    :class:`~repro.exceptions.SnapshotError` naming it.  A retired
    image's ``FileNotFoundError`` passes through: the worker fence
    depends on it."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(
            f"malformed {what} at {path}: {type(exc).__name__}: {exc}"
        ) from exc


def _open_state(path: Path, fmt: str, what: str, mmap: bool) -> tuple:
    """The one way a document comes back as state: ``(document, arrays,
    size, hin, entries)``.

    Reads the *fmt* document at *path* (a *what*, in errors), checked to
    be of the supported version, then reads or maps (*mmap*, the
    trusted route) the image its ``source`` names, of *size* bytes,
    into *arrays*; restores the network section, when the document has
    one, as *hin* — whose engine gets the restored cache *entries* and
    the document's epoch — and otherwise just the entries (a shard
    generation's).  A missing document or image is the caller's
    ``FileNotFoundError``.
    """
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SnapshotError(f"unreadable {what}: {exc}") from None
    if not isinstance(document, dict):
        raise SnapshotError(f"not a {fmt} {what}: not a JSON object")
    if document.get("format") != fmt:
        raise SnapshotError(f"not a {fmt} {what}: format={document.get('format')!r}")
    if document.get("format_version") != _FORMAT_VERSION:
        raise SnapshotError(
            f"{what} format version {document.get('format_version')!r} "
            f"not supported (expected {_FORMAT_VERSION})"
        )
    with _restoring(path, what):
        source = document["source"]
        arrays, size = _read_file(path.with_name(source["file"]), source["arrays"], mmap=mmap)
        hin = None
        if "relations" in document:
            hin = _restore_network(document, arrays, trusted=mmap)
        entries = _restore_entries(document["entries"], arrays, trusted=mmap, hin=hin)
        if hin is not None:
            hin.engine().attach_state(document["epoch"], entries)
    return document, arrays, size, hin, entries


# ----------------------------------------------------------------------
# Generations
# ----------------------------------------------------------------------
class PublishedGeneration:
    """The publisher's handle on one generation it exported.

    Holds the descriptor path and the image path beside it
    (``<stem>-<n>.json`` and ``<stem>-<n>.bin``), so the generation can
    be retired — both files removed — once every worker has moved to a
    newer one (see ``docs/ARCHITECTURE.md`` → "Generations, the worker
    loop and fences").
    """

    def __init__(self, generation: int, epoch: int, path: Path):
        self.generation = int(generation)
        self.epoch = int(epoch)
        self.path = Path(path)
        self.image = self.path.with_suffix(".bin")

    def dispose(self) -> None:
        """Remove the descriptor, then the image (idempotent).

        Workers still *attached* keep their mappings — an unlinked file
        lives until its last mapping goes — but no new attach can find
        it, which is exactly the retirement contract.
        """
        self.path.unlink(missing_ok=True)
        self.image.unlink(missing_ok=True)

    def __repr__(self) -> str:
        return (
            f"PublishedGeneration(generation={self.generation}, "
            f"epoch={self.epoch}, path={str(self.path)!r})"
        )


class AttachedGeneration:
    """A process's live, zero-copy view of one published generation.

    Attributes
    ----------
    generation / epoch:
        The generation counter and update epoch this state serves.
    hin / engine:
        For a *network* generation: the attached
        :class:`~repro.networks.hin.HIN`, built over the generation's
        buffers at the published epoch, and its ``hin.engine()`` with
        the published warm cache installed.  ``None`` for a shard
        generation, which carries no network section.
    slices:
        For a *shard* generation: ``{canonical path key: (w, diag,
        lo)}`` — the shard's CSR row slice of each served half product,
        the matching diagonal slice, and the global index of the
        slice's first row.  Empty for a network generation.
    payload_bytes:
        Size of the attached image file.  These bytes are *shared*
        — mapped, not copied, by every attaching process — so they are
        the term the benchmark's ``cluster.payload_mb`` /
        ``shards.payload_mb`` compare across serving topologies;
        per-process private memory is the RSS side of the report.
    """

    def __init__(self, generation: int, epoch: int, payload_bytes: int, *, hin=None, slices=None):
        self.generation = int(generation)
        self.epoch = int(epoch)
        self.hin = hin
        self.engine = hin.engine() if hin is not None else None
        self.slices = slices or {}
        self.payload_bytes = int(payload_bytes)

    def close(self) -> None:
        """Release the attachment (idempotent).

        Drops every reference holding numpy views over the mapping —
        collecting the ``hin`` <-> ``engine`` reference cycle right
        away — and the mapping goes with the last view.  Views the
        caller still holds (in an answer, say) keep it alive until they
        go too.
        """
        had_network = self.hin is not None
        self.hin = self.engine = None
        self.slices = {}
        if had_network:
            gc.collect()

    def __repr__(self) -> str:
        return (
            f"AttachedGeneration(generation={self.generation}, "
            f"epoch={self.epoch}, hin={self.hin!r}, slices={len(self.slices)})"
        )


def descriptor_path(directory, stem: str, generation: int) -> Path:
    """Where generation *generation* of the *stem* series is described:
    ``<directory>/<stem>-<generation>.json``."""
    return Path(directory) / f"{stem}-{int(generation)}.json"


def _publish(
    directory, stem, generation, section, matrices, entries, ranges=()
) -> PublishedGeneration:
    """The publish tail of every generation: pack the captured state
    (:func:`_pack`) and write it as a descriptor beside one image
    (:func:`_write_document`).

    The single descriptor format: a header (``generation``), the
    *section* — ``epoch`` plus, for a network generation, the network
    section (:func:`_capture_state`) — the ``entries`` index over the
    arrays and the ``source``.  Workers must never read a torn
    descriptor: the image is complete before the descriptor's rename,
    which is the publication point.  A failed write removes whatever it
    already wrote instead of leaking it.
    """
    arrays, index = _pack(matrices, entries, ranges)
    published = PublishedGeneration(
        generation, section["epoch"], descriptor_path(directory, stem, generation)
    )
    descriptor = {
        "format": _FORMAT,
        "format_version": _FORMAT_VERSION,
        "generation": published.generation,
        **section,
        "entries": index,
    }
    try:
        _write_document(published.path, published.image, descriptor, arrays)
    except BaseException:
        published.dispose()
        raise
    return published


def publish_generation(hin, engine, *, directory, generation: int) -> PublishedGeneration:
    """Export *hin* + *engine* state as generation *generation*.

    Captures the epoch, the cache entries and the relation matrices
    under one engine read-lock hold (immutable values — the O(bytes)
    write of the image happens after release), writes every array into
    the image ``gen-<generation>.bin`` and then atomically writes the
    descriptor ``gen-<generation>.json`` beside it, in *directory*.
    Workers polling the generation counter attach the complete state or
    nothing.

    Parameters
    ----------
    hin / engine:
        The network and its shared engine (the pair
        ``hin.apply()`` maintains).
    directory:
        Where the descriptor and image files live; one directory per
        cluster.
    generation:
        Monotonic counter chosen by the publisher (distinct from the
        update epoch: a cluster may also republish at an unchanged
        epoch, e.g. after a prewarm).

    Returns
    -------
    A :class:`PublishedGeneration` owning the two files.
    """
    return _publish(directory, "gen", generation, *_capture_state(hin, engine))


def attach_generation(path) -> AttachedGeneration:
    """Attach one published generation, zero-copy.

    Parameters
    ----------
    path:
        A descriptor path (:func:`descriptor_path`).

    Returns
    -------
    An :class:`AttachedGeneration`.  A network generation's
    ``hin``/``engine`` serve the published epoch; a shard generation's
    ``slices`` hold its row ranges.  Matrices and cache entries are
    views over the generation's buffers — nothing was copied, and
    nothing here may write them (``HIN(validate=False)`` guarantees the
    construction path doesn't; the engine's maintenance paths *replace*
    matrices rather than mutate, so even a worker that applied its own
    updates would not corrupt peers).

    Raises
    ------
    FileNotFoundError
        When the descriptor or its image is already retired; the caller
        should re-read the latest generation counter and attach that
        one instead.
    repro.exceptions.SnapshotError
        When the descriptor is unreadable or of an unsupported format.
    """
    path = Path(path)
    descriptor, _, size, hin, entries = _open_state(path, _FORMAT, "generation descriptor", True)
    with _restoring(path, "generation descriptor"):
        slices = {
            key[1]: (*value, int(desc["lo"]))
            for desc, (key, value) in zip(descriptor["entries"], entries)
            if "lo" in desc
        }
        return AttachedGeneration(
            descriptor["generation"], descriptor["epoch"], size, hin=hin, slices=slices
        )
