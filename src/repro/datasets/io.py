"""Disk-backed dataset streaming.

BIRCH* algorithms read "objects from the database sequentially" — they never
need the dataset in memory. These helpers store the synthetic workloads in
plain line-oriented files and stream them back one object at a time, so the
single-scan property can be exercised (and demonstrated) against data that
genuinely does not fit in RAM.

Formats are deliberately simple and inspectable:

* vectors: one point per line, comma-separated floats;
* strings: one record per line (newlines in records are not supported).
"""

from __future__ import annotations

import os
from collections.abc import Iterator

import numpy as np

from repro.exceptions import ParameterError

__all__ = [
    "write_vector_file",
    "stream_vectors",
    "write_string_file",
    "stream_strings",
]


def write_vector_file(path: str | os.PathLike, points) -> int:
    """Write points (any iterable of 1-d vectors) as CSV lines.

    Returns the number of points written. Streams; never materializes the
    full dataset.
    """
    count = 0
    with open(path, "w", encoding="ascii") as f:
        for p in points:
            vec = np.asarray(p, dtype=np.float64)
            if vec.ndim != 1:
                raise ParameterError(f"expected 1-d vectors, got shape {vec.shape}")
            f.write(",".join(repr(float(x)) for x in vec))
            f.write("\n")
            count += 1
    return count


def stream_vectors(path: str | os.PathLike) -> Iterator[np.ndarray]:
    """Yield one point per line of a file written by :func:`write_vector_file`.

    Every row must have the first row's coordinate count; a malformed or
    ragged row, a row holding a non-ASCII byte, or a ``nan``/``inf``
    coordinate raises :class:`~repro.exceptions.ParameterError` naming the
    file and line.
    """
    dim = None
    # Undecodable bytes become lone surrogates, which no ASCII line holds,
    # so the line that carries them can be named.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            if not line.isascii():
                raise ParameterError(f"{path}:{line_no}: non-ASCII byte in a vector line")
            try:
                point = np.asarray([float(x) for x in line.split(",")])
            except ValueError as exc:
                raise ParameterError(f"{path}:{line_no}: malformed vector line") from exc
            if not np.isfinite(point).all():
                raise ParameterError(f"{path}:{line_no}: non-finite coordinate")
            if dim is None:
                dim = len(point)
            elif len(point) != dim:
                raise ParameterError(
                    f"{path}:{line_no}: {len(point)} coordinates, but the "
                    f"first row has {dim}"
                )
            yield point


def write_string_file(path: str | os.PathLike, strings) -> int:
    """Write one record per line. Rejects records containing newlines."""
    count = 0
    with open(path, "w", encoding="utf-8") as f:
        for s in strings:
            if "\n" in s or "\r" in s:
                raise ParameterError("records must not contain newlines")
            f.write(s)
            f.write("\n")
            count += 1
    return count


def stream_strings(path: str | os.PathLike) -> Iterator[str]:
    """Yield one record per line of a file written by :func:`write_string_file`.

    A line that is not valid UTF-8 raises
    :class:`~repro.exceptions.ParameterError` naming the file and line.
    """
    # As in stream_vectors: invalid bytes decode to lone surrogates, which
    # valid UTF-8 never yields and which cannot be encoded back.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise ParameterError(f"{path}:{line_no}: not valid UTF-8") from exc
            yield line.rstrip("\n")
