"""Shared warm state: the exact-enumeration tables as one read-only blob.

Every spawned worker used to pay the bounded exhaustive enumeration
(:func:`~repro.rewriting.library._enumerate_exact`) during warm-up and
hold its own private copy of the resulting tables -- warm-up latency
and RSS both scaling with the pool size.  This module lets the parent
pay once: it serializes the tables of every arity into one flat binary
blob, publishes the blob through ``multiprocessing.shared_memory``
(falling back to a plain temp file the workers ``mmap``), and hands a
tiny picklable :class:`SharedLibraryDescriptor` to the pool initializer.
Workers *attach* -- :class:`SharedExactTable` is a ``Mapping``-shaped
bisect view straight over the shared buffer, so lookups never copy the
tables into worker-private memory.

Blob layout (native byte order -- producer and consumers always share a
machine): a stream of fixed 7-word ``uint32`` records, sorted by
function bits within each arity section::

    word 0   function bits
    word 1   kind (0 = leaf, 1 = AND)
    word 2   enumeration cost (AND count)
    word 3   leaf: variable literal / AND: fanin-a bits
    word 4   AND: fanin-a phase
    word 5   AND: fanin-b bits
    word 6   AND: fanin-b phase

which is exactly the ``("leaf", 0, literal)`` /
``("and", cost, bits_a, phase_a, bits_b, phase_b)`` tuples
:meth:`~repro.rewriting.library.RewriteLibrary._exact_entries` serves,
reconstructed on access.  The section table (arity, offset, count) rides
in the descriptor, not the blob.

The parent owns the segment's lifetime and unlinks it at exit.  Workers
open it with ``track=False`` where supported (Python 3.13+).  Before
that, attaching registers the segment with the ``resource_tracker``,
which is harmless: every start method hands workers the *parent's*
tracker (the parent started it when it created the segment), a repeated
registration is a no-op, and a worker exiting unlinks nothing.  The
attach side must not unregister the segment: that would remove the
parent's own registration, and the parent's unlink would then make the
tracker print a ``KeyError`` traceback at exit.
"""

from __future__ import annotations

import atexit
import mmap
import os
import tempfile
from array import array
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

__all__ = [
    "SharedLibraryDescriptor",
    "SharedExactTable",
    "encode_exact_entries",
    "build_shared_blob",
    "publish_shared_library",
    "attach_shared_library",
    "detach_shared_library",
    "unpublish_shared_library",
]

#: Arities whose exact tables are exported (everything the 4-input
#: library enumerates).
EXPORTED_ARITIES = (2, 3, 4)

#: ``uint32`` words per record.
_RECORD_WORDS = 7


def encode_exact_entries(entries: Mapping[int, tuple]) -> bytes:
    """Serialize one arity's enumeration table, sorted by function bits."""
    words = array("I")
    for bits in sorted(entries):
        record = entries[bits]
        if record[0] == "leaf":
            words.extend((bits, 0, 0, int(record[2]), 0, 0, 0))
        else:
            _, cost, bits_a, phase_a, bits_b, phase_b = record
            words.extend((bits, 1, int(cost), int(bits_a), int(phase_a), int(bits_b), int(phase_b)))
    return words.tobytes()


class SharedExactTable(Mapping[int, tuple]):
    """Read-only ``Mapping`` view over one arity section of the blob.

    Lookups bisect the sorted records directly in the shared buffer --
    no per-worker materialization, which is the whole point.  The
    library only ever calls ``get``/``__getitem__`` on these tables;
    iteration support exists for the round-trip tests.
    """

    def __init__(self, view: "memoryview | bytes") -> None:
        buffer = memoryview(view)
        if len(buffer) % (4 * _RECORD_WORDS):
            raise ValueError(f"table size {len(buffer)} is not a whole number of records")
        self._buffer = buffer
        self._words = buffer.cast("I")
        self._count = len(self._words) // _RECORD_WORDS

    def release(self) -> None:
        """Release the underlying buffer exports (detach-time cleanup)."""
        self._words.release()
        self._buffer.release()

    def _find(self, bits: int) -> int:
        low, high = 0, self._count
        while low < high:
            mid = (low + high) // 2
            if self._words[mid * _RECORD_WORDS] < bits:
                low = mid + 1
            else:
                high = mid
        if low < self._count and self._words[low * _RECORD_WORDS] == bits:
            return low
        return -1

    def __getitem__(self, bits: int) -> tuple:
        index = self._find(bits)
        if index < 0:
            raise KeyError(bits)
        base = index * _RECORD_WORDS
        words = self._words
        if words[base + 1] == 0:
            return ("leaf", 0, words[base + 3])
        return (
            "and",
            words[base + 2],
            words[base + 3],
            words[base + 4],
            words[base + 5],
            words[base + 6],
        )

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[int]:
        for index in range(self._count):
            yield self._words[index * _RECORD_WORDS]

    def __contains__(self, bits: object) -> bool:
        return isinstance(bits, int) and self._find(bits) >= 0


@dataclass(frozen=True)
class SharedLibraryDescriptor:
    """Picklable handle a worker needs to attach the published blob.

    ``kind`` is ``"shm"`` (a ``multiprocessing.shared_memory`` segment
    named ``name``) or ``"file"`` (an mmap-able file at path ``name``);
    ``sections`` holds one ``(num_vars, offset, length)`` triple per
    exported arity, in blob byte offsets.
    """

    kind: str
    name: str
    size: int
    sections: tuple[tuple[int, int, int], ...]


def build_shared_blob() -> tuple[bytes, tuple[tuple[int, int, int], ...]]:
    """Enumerate (in this process) and serialize every exported arity."""
    from .library import default_library

    library = default_library()
    chunks: list[bytes] = []
    sections: list[tuple[int, int, int]] = []
    offset = 0
    for num_vars in EXPORTED_ARITIES:
        encoded = encode_exact_entries(library._exact_entries(num_vars))
        sections.append((num_vars, offset, len(encoded)))
        chunks.append(encoded)
        offset += len(encoded)
    return b"".join(chunks), tuple(sections)


#: Parent-side handle of the published segment (kept alive for the
#: workers; closed and unlinked at exit) plus its descriptor.
_PUBLISHED: "tuple[Any, SharedLibraryDescriptor] | None" = None

#: Worker-side attachments (segment/mmap handles kept alive for the
#: installed table views) keyed by descriptor name.
_ATTACHED: dict[str, Any] = {}


def publish_shared_library() -> SharedLibraryDescriptor | None:
    """Publish the exact tables for worker pools; returns the descriptor.

    Idempotent per process (one segment serves every pool).  Returns
    ``None`` when no shared transport works -- callers pass that straight
    to the initializer and workers simply warm up locally, so losing
    shared memory degrades performance, never correctness.
    """
    global _PUBLISHED
    if _PUBLISHED is not None:
        return _PUBLISHED[1]
    try:
        blob, sections = build_shared_blob()
    except Exception:  # pragma: no cover - enumeration is deterministic
        return None
    handle: Any = None
    descriptor: SharedLibraryDescriptor | None = None
    try:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=max(1, len(blob)))
        segment.buf[: len(blob)] = blob
        handle = segment
        descriptor = SharedLibraryDescriptor("shm", segment.name, len(blob), sections)
    except Exception:
        try:
            fd, path = tempfile.mkstemp(prefix="repro-exact-", suffix=".bin")
            with os.fdopen(fd, "wb") as stream:
                stream.write(blob)
            handle = path
            descriptor = SharedLibraryDescriptor("file", path, len(blob), sections)
        except Exception:  # pragma: no cover - no shm AND no tmpdir
            return None
    _PUBLISHED = (handle, descriptor)
    return descriptor


def unpublish_shared_library() -> None:
    """Tear down the published segment (atexit; also used by tests)."""
    global _PUBLISHED
    published, _PUBLISHED = _PUBLISHED, None
    if published is None:
        return
    handle, descriptor = published
    if descriptor.kind == "shm":
        # Unlink first: the name disappears immediately and the memory
        # is reclaimed once the last map closes, even if close() below
        # balks at still-exported attach-side views.
        try:
            handle.unlink()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
        try:
            handle.close()
        except BufferError:
            # This process also attached the blob; the views go down
            # with the interpreter (detach_shared_library runs first at
            # normal exit).
            pass
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
    else:
        try:
            os.unlink(handle)
        except Exception:  # pragma: no cover - best-effort cleanup
            pass


atexit.register(unpublish_shared_library)


def _attach_buffer(descriptor: SharedLibraryDescriptor) -> "tuple[Any, memoryview] | None":
    """Open the published blob read-only; returns (handle, buffer)."""
    if descriptor.kind == "shm":
        if _PUBLISHED is not None and _PUBLISHED[1].name == descriptor.name:
            # Attaching in the publisher process itself (thread mode,
            # tests): reuse the existing handle instead of opening -- and
            # mis-registering -- a second map of our own segment.
            return None, memoryview(_PUBLISHED[0].buf)[: descriptor.size]
        from multiprocessing import shared_memory

        try:
            try:
                segment = shared_memory.SharedMemory(name=descriptor.name, track=False)
            except TypeError:  # Python < 3.13: no track parameter (see the module docstring)
                segment = shared_memory.SharedMemory(name=descriptor.name)
        except Exception:
            return None
        return segment, memoryview(segment.buf)[: descriptor.size]
    try:
        with open(descriptor.name, "rb") as stream:
            mapped = mmap.mmap(stream.fileno(), descriptor.size, access=mmap.ACCESS_READ)
    except Exception:
        return None
    return mapped, memoryview(mapped)


def attach_shared_library(descriptor: SharedLibraryDescriptor) -> bool:
    """Install the published tables into this process's default library.

    Returns ``True`` on success.  Any failure (segment already gone,
    platform without shared memory) leaves the library untouched -- the
    next ``_exact_entries`` call enumerates locally as before.
    """
    if descriptor.name in _ATTACHED:
        return True
    opened = _attach_buffer(descriptor)
    if opened is None:
        return False
    handle, buffer = opened
    from .library import default_library

    library = default_library()
    tables: list[SharedExactTable] = []
    for num_vars, offset, length in descriptor.sections:
        table = SharedExactTable(buffer[offset : offset + length])
        library._exact_by_arity[num_vars] = table
        tables.append(table)
    _ATTACHED[descriptor.name] = (handle, buffer, tables)
    return True


def detach_shared_library() -> None:
    """Drop every attached view and close the handles (atexit; tests).

    Shared tables are removed from the default library first (a later
    lookup simply re-enumerates locally), then the buffer exports are
    released innermost-first so the segment/mmap can close without
    ``BufferError`` noise at interpreter shutdown.
    """
    from .library import default_library

    library = default_library()
    for name, (handle, buffer, tables) in list(_ATTACHED.items()):
        for num_vars in [
            arity
            for arity, entries in library._exact_by_arity.items()
            if any(entries is table for table in tables)
        ]:
            del library._exact_by_arity[num_vars]
        for table in tables:
            table.release()
        buffer.release()
        try:
            if handle is not None:
                handle.close()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
        del _ATTACHED[name]


atexit.register(detach_shared_library)
