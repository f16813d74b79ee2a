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

A generation is described by a JSON **descriptor** naming the segment
and the structure over it; :func:`attach_generation` turns a descriptor
back into a live :class:`~repro.networks.hin.HIN` plus a warm
:class:`~repro.engine.MetaPathEngine`, still zero-copy: matrices are
constructed directly over the mapped buffers
(``HIN(..., validate=False)`` skips the normalizations that would write
them).  Generations are immutable once published — a new epoch means a
*new* generation, never an edit — so a worker can never observe a torn
matrix: it either still serves the old generation or has atomically
swapped to the complete new one.

This module owns the **container** — segment packing, the descriptor
file, publication and retirement.  What goes *into* it is the state
codec of :mod:`repro.serving.snapshot` (network section, entry index,
CSR arrays), the same functions a snapshot is written and read with.
There is one container: a *shard* generation
(:func:`repro.serving.shards.publish_shard_generation`) is the same
descriptor without the network section, whose PathSim entries carry the
``lo``/``hi`` row range they were sliced to; it goes through the same
publish tail and :func:`attach_generation`.

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

from repro.exceptions import SnapshotError
from repro.serving.snapshot import (
    _FORMAT_VERSION,
    _build_entry_index,
    _capture_state,
    _read_envelope,
    _restore_entries,
    _restore_network,
    _write_csr,
)

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
    return segment, {"segment": segment.name, "arrays": specs}


def attach_arrays(descriptor: dict):
    """Open one segment descriptor's arrays without copying.

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
        What :func:`export_arrays` returned — a generation
        descriptor's ``source``.

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
# Generations
# ----------------------------------------------------------------------
def _release(resource) -> None:
    """Close an attached mapping.  One whose buffers are still exported
    — numpy views alive somewhere, e.g. in an answer the caller holds —
    is left to die with their last reference instead of being
    invalidated out from under them."""
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
        Size of the attached segment.  These bytes are *shared*
        — mapped, not copied, by every attaching process — so they are
        the term the benchmark's ``cluster.payload_mb`` /
        ``shards.payload_mb`` compare across serving topologies;
        per-process private memory is the RSS side of the report.
    """

    def __init__(self, generation: int, epoch: int, resource, *, hin=None, slices=None):
        self.generation = int(generation)
        self.epoch = int(epoch)
        self.hin = hin
        self.engine = hin.engine() if hin is not None else None
        self.slices = slices or {}
        self.payload_bytes = int(resource.size)
        self._resource = resource

    def close(self) -> None:
        """Release the attachment (idempotent).

        Drops every reference holding numpy views over the buffers —
        collecting the ``hin`` <-> ``engine`` reference cycle right
        away, so the mapping can actually unmap — then closes it
        (:func:`_release`).
        """
        had_network = self.hin is not None
        self.hin = self.engine = None
        self.slices = {}
        if had_network:
            gc.collect()
        _release(self._resource)

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
    into one segment and atomically write its descriptor.

    The single descriptor format: a header (``generation``), the
    *section* — ``epoch`` plus, for a network generation, the network
    section whose relation *matrices* are packed here
    (:func:`repro.serving.snapshot._capture_state`) — the ``entries``
    index over the arrays (the snapshot entry schema; shard entries add
    their ``lo``/``hi`` row *ranges*) and the ``source`` segment holding
    those arrays.  Workers must never read a torn descriptor: the
    rename is the publication point.  A failed write retires the
    segment instead of leaking it.
    """
    arrays: dict[str, np.ndarray] = {}
    for name, matrix in matrices:
        _write_csr(f"rel/{name}", matrix, arrays)
    index = _build_entry_index(entries, arrays)
    for desc, rows in zip(index, ranges):
        desc.update(rows)
    segment, source = export_arrays(arrays)
    published = PublishedGeneration(
        generation,
        section["epoch"],
        descriptor_path(directory, stem, generation),
        segment,
    )
    descriptor = {
        "format": _FORMAT,
        "format_version": _FORMAT_VERSION,
        "generation": published.generation,
        **section,
        "entries": index,
        "source": source,
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

    Captures the epoch, the cache entries and the relation matrices
    under one engine read-lock hold (immutable values — the O(bytes)
    copy into the segment happens after release), packs every array
    into one segment, and atomically writes ``gen-<generation>.json``
    into *directory*.  Workers polling the generation counter attach
    the complete state or nothing.

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
        When the descriptor or its shared-memory segment is already
        retired; the caller should re-read the latest generation
        counter and attach that one instead.
    repro.exceptions.SnapshotError
        When the descriptor is unreadable or of an unsupported format.
    """
    descriptor = _read_envelope(Path(path), _FORMAT, "generation descriptor")
    resource, arrays = attach_arrays(descriptor["source"])
    try:
        entries = _restore_entries(descriptor["entries"], arrays, trusted=True)
        hin = None
        if "relations" in descriptor:
            hin = _restore_network(descriptor, arrays, trusted=True)
            hin.engine().attach_state(descriptor["epoch"], entries)
        slices = {
            key[1]: (*value, int(desc["lo"]))
            for desc, (key, value) in zip(descriptor["entries"], entries)
            if "lo" in desc
        }
    except BaseException:
        _release(resource)
        raise
    return AttachedGeneration(
        descriptor["generation"],
        descriptor["epoch"],
        resource,
        hin=hin,
        slices=slices,
    )
