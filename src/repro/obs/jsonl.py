"""JSONL persistence for round traces.

One JSON object per line, each a :meth:`RoundTrace.to_dict` payload
carrying its own schema version.  Python's ``json`` serialises floats
via ``repr``, which round-trips binary64 exactly — so statistics
computed from a loaded trace match the live run bit-for-bit.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path
from typing import Iterable, List, TextIO, Union

from ..exceptions import ObservabilityError
from .events import RoundTrace

PathLike = Union[str, Path]


def _open_new(path: Path) -> TextIO:
    """Open ``path`` for writing as a new file, replacing an old one.

    An existing regular file is unlinked and a new one created, never
    truncated through ``"w"``: on ext4 a truncating open of a file that
    holds data costs tens to hundreds of milliseconds, unlink + create
    under one (figures in ``docs/observability.md``), and a crash
    mid-export leaves the new file holding a prefix of the new trace,
    never new lines followed by stale ones.  A hard-linked file is
    detached from its other names instead of truncated under them.
    Anything else at ``path`` — a symlink, a device such as
    ``/dev/null`` or ``/dev/stdout``, a FIFO — is opened through
    ``"w"`` as it is: a symlink's target is written and the link kept,
    and a device or FIFO is written to, never removed.
    """
    try:
        regular = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        regular = False
    if regular:
        path.unlink()
    return path.open("w", encoding="utf-8")


def write_traces(path: PathLike, traces: Iterable[RoundTrace]) -> int:
    """Write ``traces`` to ``path`` as JSONL; returns the record count.

    An existing regular file at ``path`` is replaced, not truncated
    (:func:`_open_new`).
    """
    path = Path(path)
    count = 0
    try:
        with _open_new(path) as fh:
            for trace in traces:
                fh.write(json.dumps(trace.to_dict(), separators=(",", ":")))
                fh.write("\n")
                count += 1
    except OSError as exc:
        raise ObservabilityError(f"cannot write trace file: {exc}") from exc
    return count


class TraceStreamWriter:
    """Append round traces to a JSONL file as they happen.

    :func:`write_traces` is a batch writer — nothing is on disk until
    the run ends.  A stream writer keeps the file live instead: every
    :meth:`append` writes one line and flushes, so an external reader
    (``repro jobs``, ``repro trace summarize``, ``tail -F``) sees each
    round the moment it completes.  The on-disk format is identical to
    :func:`write_traces`, hence losslessly re-aggregatable with
    :func:`read_traces` + :func:`~repro.obs.aggregate_traces` at any
    point mid-run.

    Usable as a context manager; :meth:`close` is idempotent.

    ``append=False`` replaces an existing regular file (:func:`_open_new`);
    ``append=True`` resumes an existing stream instead — the
    checkpoint-restore path: the caller first trims the file
    to the restored round count (:func:`truncate_traces`) and then
    keeps streaming, so a resumed job's trace is indistinguishable
    from an uninterrupted one.
    """

    def __init__(self, path: PathLike, append: bool = False):
        self._path = Path(path)
        try:
            self._fh = (
                self._path.open("a", encoding="utf-8") if append
                else _open_new(self._path)
            )
        except OSError as exc:
            raise ObservabilityError(
                f"cannot open trace stream: {exc}"
            ) from exc
        self._count = 0

    @property
    def path(self) -> Path:
        return self._path

    @property
    def count(self) -> int:
        """Number of traces written so far."""
        return self._count

    def append(self, trace: RoundTrace) -> None:
        """Write one trace as a JSONL line and flush it to disk."""
        if self._fh is None:
            raise ObservabilityError(
                f"trace stream {self._path} is closed"
            )
        try:
            self._fh.write(
                json.dumps(trace.to_dict(), separators=(",", ":"))
            )
            self._fh.write("\n")
            self._fh.flush()
        except OSError as exc:
            raise ObservabilityError(
                f"cannot write trace stream: {exc}"
            ) from exc
        self._count += 1

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceStreamWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def truncate_traces(path: PathLike, count: int) -> int:
    """Trim a JSONL trace file to its first ``count`` lines.

    The checkpoint-restore primitive: a job resumed from round ``k``
    rewinds its trace stream to exactly ``k`` lines (dropping any
    rounds streamed after the snapshot was taken — e.g. by a
    coordinator killed between checkpoint and crash, whose last line
    may be torn) before appending.  The file is cut at the byte offset
    just past line ``count``, never rewritten, so a crash during the
    cut cannot lose a kept line.  A missing file with ``count == 0``
    is fine (nothing streamed yet).  Returns the number of lines kept.
    """
    if count < 0:
        raise ObservabilityError(
            f"cannot keep a negative trace count ({count})"
        )
    path = Path(path)
    if not path.exists():
        if count == 0:
            return 0
        raise ObservabilityError(f"trace file not found: {path}")
    try:
        lines = path.read_bytes().splitlines(keepends=True)
    except OSError as exc:
        raise ObservabilityError(f"cannot read trace file: {exc}") from exc
    if len(lines) < count:
        raise ObservabilityError(
            f"trace file {path} holds {len(lines)} lines; cannot keep "
            f"{count}"
        )
    if len(lines) > count:
        try:
            os.truncate(path, sum(map(len, lines[:count])))
        except OSError as exc:
            raise ObservabilityError(
                f"cannot rewrite trace file: {exc}"
            ) from exc
    return count


def read_traces(path: PathLike) -> List[RoundTrace]:
    """Load every trace from a JSONL file written by :func:`write_traces`.

    Blank lines are skipped; malformed lines raise
    :class:`~repro.exceptions.ObservabilityError` with the line number.
    """
    path = Path(path)
    if not path.exists():
        raise ObservabilityError(f"trace file not found: {path}")
    traces: List[RoundTrace] = []
    try:
        fh = path.open("r", encoding="utf-8")
    except OSError as exc:
        raise ObservabilityError(f"cannot read trace file: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ObservabilityError(
                    f"{path}:{lineno}: invalid JSON: {exc}"
                ) from exc
            try:
                traces.append(RoundTrace.from_dict(payload))
            except ObservabilityError as exc:
                raise ObservabilityError(f"{path}:{lineno}: {exc}") from exc
    return traces
