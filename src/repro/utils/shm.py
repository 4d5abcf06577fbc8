"""Zero-copy object publishing over ``multiprocessing.shared_memory``.

Serializes an arbitrary picklable object graph while *hoisting* every large
:class:`numpy.ndarray` out of the pickle stream into one shared-memory
segment.  A worker process attaches the segment and unpickles the small
skeleton; the hoisted arrays come back as read-only views over the shared
pages — no per-worker copy of the weights, no pickling of megabytes through
a pipe.

The segment carries a sha256 checksum of its whole payload region, computed
at publish time and verified on every attach, so a corrupted or torn
segment raises :class:`~repro.errors.SharedMemoryError` instead of serving
garbage weights (the chaos suite's
:class:`~repro.testing.faults.SharedMemoryCorruptionFault` relies on this).

Used by :mod:`repro.serve.cluster.shm_store` to publish per-model plan
generations to the supervised worker pool.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import SharedMemoryError

__all__ = ["ShmHandle", "publish_object", "load_object", "attach_segment"]

#: Arrays at or above this many bytes are hoisted into the segment; smaller
#: ones stay inline in the pickle skeleton (hoisting tiny arrays would cost
#: more in alignment padding and table entries than it saves).
DEFAULT_MIN_BYTES = 1024

_ALIGN = 64  # cache-line alignment for every hoisted array


@dataclass(frozen=True)
class ShmHandle:
    """Pipe-sized description of one published object.

    The handle is plain picklable data: the segment name, the pickle
    skeleton (with hoisted arrays replaced by persistent ids), the array
    table ``(offset, shape, dtype-str)`` per hoisted array, and the sha256
    of the segment's payload region.  Shipping a handle to a worker costs
    kilobytes regardless of how many megabytes of weights it references.
    """

    name: str
    total_bytes: int
    skeleton: bytes
    arrays: tuple
    sha256: str


class _HoistingPickler(pickle.Pickler):
    """Pickler that diverts large ndarrays into an out-of-band list."""

    def __init__(self, file, min_bytes: int) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.min_bytes = min_bytes
        self.hoisted: "list[np.ndarray]" = []

    def persistent_id(self, obj):
        if (
            isinstance(obj, np.ndarray)
            and obj.dtype != object
            and obj.nbytes >= self.min_bytes
        ):
            self.hoisted.append(np.ascontiguousarray(obj))
            return ("repro-shm-ndarray", len(self.hoisted) - 1)
        return None


class _AttachingUnpickler(pickle.Unpickler):
    """Unpickler resolving persistent ids to views over the shm buffer."""

    def __init__(self, file, views: "list[np.ndarray]") -> None:
        super().__init__(file)
        self.views = views

    def persistent_load(self, pid):
        tag, index = pid
        if tag != "repro-shm-ndarray":
            raise SharedMemoryError(f"unknown persistent id tag {tag!r}")
        return self.views[index]


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def publish_object(
    obj,
    min_bytes: int = DEFAULT_MIN_BYTES,
    name_prefix: str = "repro",
) -> "tuple[ShmHandle, shared_memory.SharedMemory]":
    """Publish ``obj`` into a fresh shared-memory segment.

    Returns ``(handle, segment)``.  The caller owns the segment's lifetime:
    keep the :class:`~multiprocessing.shared_memory.SharedMemory` object
    alive while workers may attach, then ``segment.unlink(); segment.close()``
    when the generation is retired.  The handle is what travels to workers.
    """
    sink = io.BytesIO()
    pickler = _HoistingPickler(sink, min_bytes)
    pickler.dump(obj)
    skeleton = sink.getvalue()

    table = []
    offset = 0
    for arr in pickler.hoisted:
        offset = _aligned(offset)
        table.append((offset, arr.shape, str(arr.dtype)))
        offset += arr.nbytes
    total = max(1, offset)  # SharedMemory refuses zero-byte segments

    name = f"{name_prefix}-{secrets.token_hex(6)}"
    try:
        segment = shared_memory.SharedMemory(name=name, create=True, size=total)
    except OSError as exc:  # pragma: no cover - host without /dev/shm
        raise SharedMemoryError(f"could not create shared memory segment: {exc}") from exc
    buf = segment.buf
    for (off, _, _), arr in zip(table, pickler.hoisted):
        dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=buf, offset=off)
        dst[...] = arr
    digest = hashlib.sha256(buf[:total]).hexdigest()
    return (
        ShmHandle(
            name=segment.name,
            total_bytes=total,
            skeleton=skeleton,
            arrays=tuple(table),
            sha256=digest,
        ),
        segment,
    )


def attach_segment(handle: ShmHandle, verify: bool = True) -> shared_memory.SharedMemory:
    """Attach the handle's segment (read side), verifying its checksum.

    Python registers attachments and creations alike with the
    ``resource_tracker`` (bpo-39959); because every attacher here is a
    :mod:`multiprocessing` child sharing the publisher's tracker process,
    the duplicate registration is idempotent and cleanup stays with the
    publisher's ``unlink()`` — attachers must only ``close()``.
    """
    try:
        segment = shared_memory.SharedMemory(name=handle.name, create=False)
    except (FileNotFoundError, OSError) as exc:
        raise SharedMemoryError(f"shared memory segment {handle.name!r} missing: {exc}") from exc
    if verify:
        digest = hashlib.sha256(segment.buf[: handle.total_bytes]).hexdigest()
        if digest != handle.sha256:
            try:
                segment.close()
            except BufferError:  # pragma: no cover
                pass
            raise SharedMemoryError(
                f"shared memory segment {handle.name!r} failed checksum verification "
                "(corrupted or torn payload)"
            )
    return segment


def load_object(
    handle: ShmHandle, verify: bool = True
) -> "tuple[object, shared_memory.SharedMemory]":
    """Rebuild the published object from ``handle``.

    Hoisted arrays come back as **read-only views** over the shared pages —
    zero-copy.  Returns ``(obj, segment)``; the caller must keep ``segment``
    referenced for as long as the views are used.

    Raises:
        SharedMemoryError: The segment is missing or fails its checksum.
    """
    segment = attach_segment(handle, verify=verify)
    views = []
    for off, shape, dtype in handle.arrays:
        view = np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=segment.buf, offset=off)
        view.flags.writeable = False
        views.append(view)
    obj = _AttachingUnpickler(io.BytesIO(handle.skeleton), views).load()
    return obj, segment
