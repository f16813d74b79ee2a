"""Shared-memory generations: zero-copy network state across processes.

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
array payloads live in a ``multiprocessing.shared_memory`` segment any
process can map (:func:`publish_generation`): the parent packs every
array into one segment; workers attach by name and wrap the buffer in
numpy views without copying a byte.

The same zero-copy idea serves restarts: the npz files a warm-cache
snapshot wrote are uncompressed zip members, so :func:`mmap_npz` can
``np.memmap`` each array in place — ``load_snapshot(path, mmap=True)``
costs one page-in of the file instead of a full deserialization, and
the network it returns is what a restarted tier publishes from.

A generation is described by a JSON-able **descriptor** naming the
buffers and the structure over them; :func:`attach_generation` turns a
descriptor back into a live :class:`~repro.networks.hin.HIN` plus a
warm :class:`~repro.engine.MetaPathEngine`, still zero-copy: matrices
are constructed directly over the mapped buffers
(``HIN(..., validate=False)`` skips the normalizations that would write
them).  Generations are immutable once published — a new epoch means a
*new* generation, never an edit — so a worker can never observe a torn
matrix: it either still serves the old generation or has atomically
swapped to the complete new one.

There is one container.  A *shard* generation
(:func:`repro.serving.shards.publish_shard_generation`) is the same
descriptor without the network section, whose PathSim entries carry the
``lo``/``hi`` row range they were sliced to; it goes through the same
writer, reader and :func:`attach_generation`.

The service classes drive the lifecycle (:mod:`repro.serving.workers`):
publish on start, re-publish from the ``hin.apply()`` commit hook,
retire old generations once workers have moved on.
"""

from __future__ import annotations

import gc
import json
import os
import zipfile
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.exceptions import SnapshotError
from repro.networks.hin import HIN
from repro.networks.schema import NetworkSchema
from repro.serving.snapshot import _build_entry_index, _restore_entries

__all__ = [
    "mmap_npz",
    "export_arrays",
    "attach_arrays",
    "publish_generation",
    "attach_generation",
    "PublishedGeneration",
    "AttachedGeneration",
]

_FORMAT = "repro-shm-generation"
_FORMAT_VERSION = 1
_ALIGN = 64  # cache-line align every array inside a segment


# ----------------------------------------------------------------------
# mmap-backed npz loading
# ----------------------------------------------------------------------
def _read_member_header(f, info):
    """Data offset of one zip member, from its local file header."""
    f.seek(info.header_offset)
    header = f.read(30)
    if len(header) != 30 or header[:4] != b"PK\x03\x04":
        return None
    name_len = int.from_bytes(header[26:28], "little")
    extra_len = int.from_bytes(header[28:30], "little")
    return info.header_offset + 30 + name_len + extra_len


def mmap_npz(path) -> dict[str, np.ndarray]:
    """Read-only, zero-copy views of an uncompressed npz's arrays.

    ``np.savez`` stores members uncompressed (``ZIP_STORED``), so each
    ``.npy`` member sits contiguously in the file: this walks the zip
    directory, parses each member's npy header in place, and returns
    ``np.memmap`` views at the member's data offset — no bytes are
    deserialized, and every process mapping the same file shares one
    copy through the OS page cache.

    Parameters
    ----------
    path:
        An npz file written by ``np.savez`` (the snapshot payload
        format).  Members that cannot be mapped — compressed entries,
        unusual npy versions — fall back to a normal in-memory load of
        that member, so the result is complete for every numeric
        payload.  Object-dtype (pickled) members are refused: snapshot
        payloads never contain them, and unpickling would execute
        arbitrary bytes.

    Raises
    ------
    repro.exceptions.SnapshotError
        When *path* is missing, truncated, not a zip at all, or holds
        members only loadable via pickle (matching the eager loader's
        contract).
    """
    path = Path(path)
    try:
        f = open(path, "rb")
    except FileNotFoundError:
        raise SnapshotError(
            f"snapshot payload missing: {path} (partial copy or "
            f"interrupted save)"
        ) from None
    out: dict[str, np.ndarray] = {}
    fallback: list[str] = []
    try:
        return _mmap_members(path, f, out, fallback)
    except (zipfile.BadZipFile, EOFError) as exc:
        raise SnapshotError(
            f"snapshot payload unreadable: {path} (truncated or "
            f"corrupted: {exc})"
        ) from None
    finally:
        f.close()


def _mmap_members(path, f, out, fallback):
    """Map every member of the open npz *f* into *out* (helper of
    :func:`mmap_npz`; members that cannot be mapped collect in
    *fallback* and load eagerly)."""
    with zipfile.ZipFile(f) as zf:
        for info in zf.infolist():
            name = info.filename.removesuffix(".npy")
            offset = (
                _read_member_header(f, info)
                if info.compress_type == zipfile.ZIP_STORED
                else None
            )
            if offset is None:
                fallback.append(name)
                continue
            f.seek(offset)
            try:
                version = np.lib.format.read_magic(f)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(f)
                else:
                    fallback.append(name)
                    continue
            except ValueError:
                fallback.append(name)
                continue
            if dtype.hasobject:
                fallback.append(name)
                continue
            out[name] = np.memmap(
                path,
                dtype=dtype,
                mode="r",
                offset=f.tell(),
                shape=shape,
                order="F" if fortran else "C",
            )
    if fallback:
        try:
            with np.load(path, allow_pickle=False) as npz:
                for name in fallback:
                    out[name] = npz[name]
        except ValueError as exc:
            # Object-dtype members need allow_pickle — refuse rather
            # than execute pickle bytes from a payload file.
            raise SnapshotError(
                f"snapshot payload {path} has members that cannot be "
                f"loaded safely: {exc}"
            ) from None
    return out


# ----------------------------------------------------------------------
# Shared-memory array packing
# ----------------------------------------------------------------------
def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def export_arrays(arrays: dict) -> tuple[shared_memory.SharedMemory, dict]:
    """Pack *arrays* into one new shared-memory segment.

    Every array is copied once into the segment at a 64-byte-aligned
    offset; the returned descriptor records the segment name plus each
    array's ``(offset, dtype, shape)`` so :func:`attach_arrays` in any
    process can rebuild zero-copy views.

    Parameters
    ----------
    arrays:
        ``{key: ndarray}``; arrays are flattened C-contiguous.

    Returns
    -------
    ``(segment, descriptor)`` — the caller owns the segment and must
    eventually ``close()`` and ``unlink()`` it (see
    :class:`PublishedGeneration`).
    """
    packed = {key: np.ascontiguousarray(value) for key, value in arrays.items()}
    specs: dict[str, dict] = {}
    offset = 0
    for key, value in packed.items():
        offset = _aligned(offset)
        specs[key] = {
            "offset": offset,
            "dtype": value.dtype.str,
            "shape": list(value.shape),
        }
        offset += value.nbytes
    segment = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for key, value in packed.items():
        view = np.ndarray(
            value.shape,
            dtype=value.dtype,
            buffer=segment.buf,
            offset=specs[key]["offset"],
        )
        view[...] = value
        del view  # drop the buffer export before anyone can close()
    descriptor = {"kind": "shm", "segment": segment.name, "arrays": specs}
    return segment, descriptor


def attach_arrays(descriptor: dict):
    """Open one source descriptor's arrays without copying.

    Attaches the named segment and wraps each array spec in a read-only
    ``np.ndarray`` view over the shared buffer.

    Python <= 3.12 registers a segment with the ``multiprocessing``
    resource tracker on EVERY open, not just on create (bpo-39959).
    That is harmless here because attachers share the publisher's
    tracker — ``multiprocessing`` hands its children the tracker fd
    under ``fork`` and ``spawn`` alike — so the publisher's create-time
    registration stays the single authoritative one.  On Python >= 3.13
    the attach is simply untracked.

    Parameters
    ----------
    descriptor:
        One entry of a generation descriptor's ``sources`` list.

    Returns
    -------
    ``(resource, arrays)`` — *resource* is the ``SharedMemory`` handle
    keeping the mapping alive, *arrays* the ``{key: view}`` dict.

    Raises
    ------
    FileNotFoundError
        When a shared-memory segment has already been unlinked — the
        publisher retired this generation; attach the newer one.
    """
    try:
        # Python >= 3.13: attaching never registers with the resource
        # tracker — only the creator owns the segment's lifetime.
        segment = shared_memory.SharedMemory(name=descriptor["segment"], track=False)
    except TypeError:
        segment = shared_memory.SharedMemory(name=descriptor["segment"])
    arrays = {}
    for key, spec in descriptor["arrays"].items():
        view = np.ndarray(
            tuple(spec["shape"]),
            dtype=np.dtype(spec["dtype"]),
            buffer=segment.buf,
            offset=spec["offset"],
        )
        view.flags.writeable = False
        arrays[key] = view
    return segment, arrays


# ----------------------------------------------------------------------
# CSR <-> flat arrays
# ----------------------------------------------------------------------
def _csr_to_arrays(prefix: str, matrix: sp.csr_matrix, arrays: dict) -> dict:
    """Record *matrix*'s CSR arrays under *prefix*; return its descriptor.

    Index arrays are normalized to the smallest dtype scipy would pick
    for them (int32 when the matrix fits), so the attach-side
    constructor adopts the shared buffers instead of silently casting —
    a cast is a per-process copy, exactly what this module exists to
    avoid.
    """
    matrix = matrix.tocsr()
    idx_dtype = (
        np.int32
        if matrix.nnz < 2**31 and max(matrix.shape) < 2**31
        else np.int64
    )
    arrays[f"{prefix}/data"] = np.asarray(matrix.data, dtype=np.float64)
    arrays[f"{prefix}/indices"] = matrix.indices.astype(idx_dtype, copy=False)
    arrays[f"{prefix}/indptr"] = matrix.indptr.astype(idx_dtype, copy=False)
    return {"shape": list(matrix.shape)}


def _csr_from_arrays(prefix: str, arrays: dict, shape) -> sp.csr_matrix:
    """A CSR matrix adopting the (possibly read-only) arrays at *prefix*.

    The matrices were canonical when exported, so the canonical-format
    flag is asserted rather than recomputed — attaching must stay O(1)
    in the matrix size.
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
    matrix.has_canonical_format = True
    return matrix


# ----------------------------------------------------------------------
# Generations
# ----------------------------------------------------------------------
def _release(resources) -> None:
    """Close attached mappings.  One whose buffers are still exported —
    numpy views alive somewhere, e.g. in an answer the caller holds —
    is left to die with their last reference instead of being
    invalidated out from under them."""
    for resource in resources:
        try:
            resource.close()
        except BufferError:
            pass


class PublishedGeneration:
    """The publisher's handle on one generation it exported.

    Holds the shared-memory segment and the descriptor-file path, so
    the generation can be retired —
    segment unlinked, descriptor removed — once every worker has moved
    to a newer one (see ``docs/ARCHITECTURE.md`` → "Generations, the
    worker loop and fences").
    """

    def __init__(self, generation: int, epoch: int, path: Path, segment):
        self.generation = int(generation)
        self.epoch = int(epoch)
        self.path = Path(path)
        self._segment = segment

    def dispose(self) -> None:
        """Unlink the segment and remove the descriptor file (idempotent).

        Workers still *attached* keep their mappings — POSIX shared
        memory lives until the last close — but no new attach can find
        the name, which is exactly the retirement contract.
        """
        segment, self._segment = self._segment, None
        if segment is not None:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        self.path.unlink(missing_ok=True)

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
        Total size of the attached segments.  These bytes are *shared*
        — mapped, not copied, by every attaching process — so they are
        the term the benchmark's ``cluster.payload_mb`` /
        ``shards.payload_mb`` compare across serving topologies;
        per-process private memory is the RSS side of the report.
    """

    def __init__(
        self, generation: int, epoch: int, resources, payload_bytes: int = 0,
        *, hin=None, slices=None,
    ):
        self.generation = int(generation)
        self.epoch = int(epoch)
        self.hin = hin
        self.engine = hin.engine() if hin is not None else None
        self.slices = slices or {}
        self.payload_bytes = int(payload_bytes)
        self._resources = resources

    def close(self) -> None:
        """Release the attachment (idempotent).

        Drops every reference holding numpy views over the buffers —
        collecting the ``hin`` <-> ``engine`` reference cycle right
        away, so the mappings can actually unmap — then closes them
        (:func:`_release`).
        """
        had_network = self.hin is not None
        self.hin = self.engine = None
        self.slices = {}
        if had_network:
            gc.collect()
        resources, self._resources = self._resources, []
        _release(resources)

    def __repr__(self) -> str:
        return (
            f"AttachedGeneration(generation={self.generation}, "
            f"epoch={self.epoch}, hin={self.hin!r}, slices={len(self.slices)})"
        )


def _network_structure(hin) -> dict:
    """The JSON-able network section of a generation descriptor."""
    return {
        "node_types": list(hin.schema.node_types),
        "node_counts": {t: hin.node_count(t) for t in hin.schema.node_types},
        "relations": [
            {"name": r.name, "source": r.source, "target": r.target}
            for r in hin.schema.relations
        ],
        "names": {
            t: hin.names(t)
            for t in hin.schema.node_types
            if hin.names(t) is not None
        },
    }


def descriptor_path(directory, stem: str, generation: int) -> Path:
    """Where generation *generation* of the *stem* series is described:
    ``<directory>/<stem>-<generation>.json``."""
    return Path(directory) / f"{stem}-{int(generation)}.json"


def _write_descriptor(
    directory, stem, generation, epoch, entries, sources, *, segment, network=None
) -> PublishedGeneration:
    """Atomically write one generation's descriptor; return its handle.

    The single descriptor format: a header (``generation``, ``epoch``),
    the optional *network* section (:func:`_network_structure` — absent
    from shard generations), the ``entries`` index over the arrays
    (the snapshot entry schema; shard entries add their ``lo``/``hi``
    row range) and the ``sources`` holding those arrays.  Workers must
    never read a torn descriptor: the rename is the publication point.
    A failed write retires *segment* instead of leaking it.
    """
    published = PublishedGeneration(
        generation, epoch, descriptor_path(directory, stem, generation), segment
    )
    descriptor = {
        "format": _FORMAT,
        "format_version": _FORMAT_VERSION,
        "generation": published.generation,
        "epoch": published.epoch,
        **(network or {}),
        "entries": entries,
        "sources": sources,
    }
    try:
        published.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = published.path.with_name(published.path.name + ".tmp")
        tmp.write_text(json.dumps(descriptor, indent=2), encoding="utf-8")
        os.replace(tmp, published.path)
    except BaseException:
        published.dispose()
        raise
    return published


def publish_generation(hin, engine, *, directory, generation: int) -> PublishedGeneration:
    """Export *hin* + *engine* state as shared-memory generation *generation*.

    Captures ``(epoch, entries)`` and the relation matrices under one
    engine read-lock hold (immutable values — the O(bytes) copy into
    the segment happens after release), packs every array into one
    segment, and atomically writes ``gen-<generation>.json`` into
    *directory*.  Workers polling the generation counter attach the
    complete state or nothing.

    Parameters
    ----------
    hin / engine:
        The network and its shared engine (the pair
        ``hin.apply()`` maintains).
    directory:
        Where descriptor files live; one directory per cluster.
    generation:
        Monotonic counter chosen by the publisher (distinct from the
        update epoch: a cluster may also republish at an unchanged
        epoch, e.g. after a prewarm).

    Returns
    -------
    A :class:`PublishedGeneration` owning the segment.
    """
    with engine.lock.read():
        epoch, entries = engine.export_state()
        structure = _network_structure(hin)
        captured = {
            rel["name"]: hin.relation_matrix(rel["name"])
            for rel in structure["relations"]
        }
    arrays: dict[str, np.ndarray] = {}
    for rel in structure["relations"]:
        name = rel["name"]
        rel.update(_csr_to_arrays(f"rel/{name}", captured[name], arrays))
    # One shared entry schema with snapshots (snapshot.py defines it).
    entry_index = _build_entry_index(entries, arrays, _csr_to_arrays)
    segment, source = export_arrays(arrays)
    return _write_descriptor(
        directory, "gen", generation, epoch, entry_index, [source],
        network=structure, segment=segment,
    )


def _read_generation(path_or_descriptor) -> dict:
    """The validated descriptor dict behind a path (or passed as is)."""
    if isinstance(path_or_descriptor, dict):
        descriptor = path_or_descriptor
    else:
        try:
            descriptor = json.loads(
                Path(path_or_descriptor).read_text(encoding="utf-8")
            )
        except ValueError as exc:
            raise SnapshotError(
                f"unreadable generation descriptor: {exc}"
            ) from None
    if descriptor.get("format") != _FORMAT:
        raise SnapshotError(
            f"not a {_FORMAT} descriptor: format={descriptor.get('format')!r}"
        )
    if descriptor.get("format_version") != _FORMAT_VERSION:
        raise SnapshotError(
            f"generation format version {descriptor.get('format_version')!r} "
            f"not supported (expected {_FORMAT_VERSION})"
        )
    return descriptor


def _attach_network(descriptor: dict, arrays: dict, entries) -> HIN:
    """The descriptor's network section as a live HIN over *arrays*,
    its shared engine warmed with *entries*."""
    schema = NetworkSchema(
        descriptor["node_types"],
        [(r["name"], r["source"], r["target"]) for r in descriptor["relations"]],
    )
    matrices = {
        r["name"]: _csr_from_arrays(f"rel/{r['name']}", arrays, r["shape"])
        for r in descriptor["relations"]
    }
    hin = HIN(
        schema,
        descriptor["node_counts"],
        matrices,
        node_names=descriptor["names"] or None,
        validate=False,
    )
    hin._version = int(descriptor["epoch"])
    hin.engine().attach_state(int(descriptor["epoch"]), entries)
    return hin


def attach_generation(path_or_descriptor) -> AttachedGeneration:
    """Attach one published generation, zero-copy.

    Parameters
    ----------
    path_or_descriptor:
        A descriptor path (:func:`descriptor_path`) or an
        already-parsed descriptor dict.

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
        When the descriptor or its shared-memory segment is already
        retired; the caller should re-read the latest generation
        counter and attach that one instead.
    repro.exceptions.SnapshotError
        When the descriptor is unreadable or of an unsupported format.
    """
    descriptor = _read_generation(path_or_descriptor)
    resources = []
    arrays: dict[str, np.ndarray] = {}
    payload_bytes = 0
    try:
        for source in descriptor["sources"]:
            resource, chunk = attach_arrays(source)
            resources.append(resource)
            arrays.update(chunk)
            payload_bytes += int(resource.size)
        entries = _restore_entries(descriptor["entries"], arrays, _csr_from_arrays)
        hin = None
        if "relations" in descriptor:
            hin = _attach_network(descriptor, arrays, entries)
        slices = {
            key[1]: (*value, int(desc["lo"]))
            for desc, (key, value) in zip(descriptor["entries"], entries)
            if "lo" in desc
        }
    except BaseException:
        _release(resources)
        raise
    return AttachedGeneration(
        descriptor["generation"],
        descriptor["epoch"],
        resources,
        payload_bytes,
        hin=hin,
        slices=slices,
    )
