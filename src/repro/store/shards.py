"""Array-file I/O for the on-disk pair store.

Each store generation is one plain ``.npy`` file holding one
contiguous ``int64`` array: its eight columns (concatenated packed
keys, counts, row offsets and per-tree totals) back to back, written
through :func:`repro.io.atomic_write` so a reader only ever sees a
complete previous file or a complete new file.  :func:`write_array`
returns the byte size the generation record keeps, and
:func:`load_array` reopens the file as an ``np.load(...,
mmap_mode="r")`` view, so serving a query touches only the data pages
the join actually reads.

Every read failure is counted on ``store.read_errors`` and raised as
:class:`~repro.errors.StoreError`; the store treats it as a corrupt
store and re-packs.
"""

from __future__ import annotations

import os
import zipfile
from typing import Sequence

import numpy as np

from repro.errors import StoreError
from repro.io import atomic_write
from repro.obs.context import get_registry

__all__ = ["load_array", "write_array"]

# Everything np.load raises on a truncated, corrupt or structurally
# wrong shard (a file with a zip header is opened as an archive).
_DECODE_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    EOFError,
    zipfile.BadZipFile,
)


def _read_failure(path: str, error: Exception) -> StoreError:
    """Count one shard-read degradation and build the error to raise."""
    get_registry().counter("store.read_errors").add(1)
    return StoreError(f"cannot read store shard {path!r}: {error}")


def write_array(path: str, columns: Sequence[Sequence[np.ndarray]]) -> int:
    """Write ``columns`` back to back as one ``int64`` ``.npy`` array,
    atomically; returns its byte size.

    Each column is given as the parts it concatenates and is written as
    soon as it is joined, so no copy of a whole generation is held in
    RAM.  The size goes into the generation record so
    :func:`load_array` (via the generation validator) can detect a
    truncated file *before* handing out a memmap view that would fault
    mid-query.
    """
    header = {
        "descr": np.lib.format.dtype_to_descr(np.dtype(np.int64)),
        "fortran_order": False,
        "shape": (sum(part.size for parts in columns for part in parts),),
    }
    with atomic_write(path, "wb") as stream:
        np.lib.format.write_array_header_1_0(stream, header)
        for parts in columns:
            if parts:
                stream.write(np.concatenate(parts, dtype=np.int64).data)
    return os.path.getsize(path)


def load_array(path: str, *, expected_bytes: int | None = None) -> np.ndarray:
    """Reopen one ``.npy`` array as a read-only memmap view.

    ``expected_bytes`` is the size the generation record kept at write
    time; a mismatch (or any decode failure) counts one
    ``store.read_errors`` and raises :class:`StoreError`.
    """
    try:
        if expected_bytes is not None:
            actual = os.path.getsize(path)
            if actual != expected_bytes:
                raise ValueError(
                    f"expected {expected_bytes} bytes, found {actual}"
                )
        return np.load(path, mmap_mode="r", allow_pickle=False)
    except _DECODE_ERRORS as error:
        raise _read_failure(path, error) from error
