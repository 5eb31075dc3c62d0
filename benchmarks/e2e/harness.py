"""Measurement primitives for the end-to-end benchmark.

Everything here is independent of ``repro``: spans and their self-time
arithmetic, the wrappers that install spans around public callables
*from outside*, the percentile rule, result digests, seed derivation
and the machine fingerprint.  ``workloads.py`` supplies what is
measured; ``run.py`` drives it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

#: the seed every published number uses unless ``--seed`` says otherwise.
DEFAULT_SEED = 2023
#: a claim must also hold on this seed, which no tuning run used.
HOLDOUT_SEED = 7

#: a percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: timed repeats never drop below this, whatever ``--seconds`` says; the
#: tail percentile is fixed from it so its meaning never depends on how
#: many repeats happened to fit.
MIN_REPEATS = 3


# ----------------------------------------------------------------------
# Spans


class SpanRecorder:
    """In-memory span log: ``[name, start, end, parent]`` rows.

    Single-threaded by design (every workload drives ``repro`` from one
    thread), so spans nest strictly and a stack gives each span its
    parent.  ``wrap`` installs a recording wrapper over an attribute of
    a module, class or instance and remembers the original so
    ``unwrap_all`` can put everything back.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.rows: List[list] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._renames: Dict[str, str] = {}

    # -- recording ------------------------------------------------------
    def begin(self, name: str) -> int:
        name = self._renames.get(name, name)
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        self.rows.append([name, self._clock(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.rows[index][2] = self._clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.rows[index][0]!r} closed out of order "
                f"(innermost open span is {self.rows[popped][0]!r})"
            )

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    @contextmanager
    def renamed(self, name: str, as_name: str):
        """Record spans that would be called ``name`` as ``as_name``
        for the length of the block: how one wrapped entry point
        (``Decoder.decode``) is told apart by the use it is put to."""
        self._renames[name] = as_name
        try:
            yield
        finally:
            del self._renames[name]

    # -- wrappers -------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: "str | Callable[..., str]",
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is the span name, or a function of the call's
        positional arguments returning it (used to name a span after
        ``self.scheme``).  ``after(result, *args, **kwargs)`` runs
        inside the span once the call returned — that is where counts
        are taken.  ``owner`` may be a module, a class (``self`` then
        arrives as the first positional argument) or an instance.
        """
        begin, end = self.begin, self.end
        fixed = name if isinstance(name, str) else None

        def make(target):
            def wrapper(*args, **kwargs):
                index = begin(fixed if fixed is not None else name(*args))
                try:
                    result = target(*args, **kwargs)
                    if after is not None:
                        after(result, *args, **kwargs)
                    return result
                finally:
                    end(index)

            return wrapper

        self._patch(owner, attr, make)

    def _patch(self, owner: Any, attr: str, make: Callable) -> None:
        """Install ``make(current attribute)`` as ``owner.attr`` and
        remember what ``owner`` itself held, for ``unwrap_all``."""
        original = owner.__dict__.get(attr, _MISSING)
        target = getattr(owner, attr)
        wrapper = make(target)
        wrapper.__wrapped__ = target
        wrapper.__name__ = getattr(target, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_class_tree(
        self,
        base: type,
        attr: str,
        name: "str | Callable[..., str]",
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """``wrap`` ``attr`` on ``base`` and on every subclass that
        overrides it, so each concrete implementation is spanned once."""
        seen, todo = set(), [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self.wrap(cls, attr, name, after)

    def wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        """``wrap`` for a generator function: one span per resumption,
        so the consumer's loop body is not billed to the producer."""
        begin, end = self.begin, self.end

        def make(target):
            def wrapper(*args, **kwargs):
                iterator = target(*args, **kwargs)
                while True:
                    index = begin(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        end(index)
                    yield item

            return wrapper

        self._patch(owner, attr, make)

    def observe(
        self, owner: Any, attr: str, around: Callable[..., Callable]
    ) -> None:
        """Count-only hook: ``around(*args)`` runs before the call and
        returns a function run after it; no span is recorded."""
        def make(target):
            def wrapper(*args, **kwargs):
                done = around(*args)
                try:
                    return target(*args, **kwargs)
                finally:
                    done()

            return wrapper

        self._patch(owner, attr, make)

    def unwrap_all(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the time its direct
        children cover.  Over one tree the self times sum to the root's
        duration exactly (up to float rounding)."""
        selfs = [row[2] - row[1] for row in self.rows]
        for _name, start, end, parent in self.rows:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls": n, "self_s": seconds}}`` over all spans."""
        out: Dict[str, Dict[str, float]] = {}
        for row, self_s in zip(self.rows, self.self_times()):
            slot = out.setdefault(row[0], {"calls": 0, "self_s": 0.0})
            slot["calls"] += 1
            slot["self_s"] += self_s
        return out

    def durations(self, name: str) -> List[float]:
        return [row[2] - row[1] for row in self.rows if row[0] == name]

    def starts(self, name: str) -> List[float]:
        return [row[1] for row in self.rows if row[0] == name]

    def to_jsonl(self, **extra: Any) -> Iterable[str]:
        """One JSON line per span, ``extra`` keys stamped on each."""
        for index, (name, start, end, parent) in enumerate(self.rows):
            yield json.dumps(
                {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    **extra,
                },
                sort_keys=True,
            )


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<missing>"


_MISSING = _Missing()


# ----------------------------------------------------------------------
# Reference seconds
#
# The reference box (2 shared vCPUs) runs in two speed states 24 % apart
# that flip every few seconds and nothing inside a 10-s run averages
# away (README, "Noise floor").  Every timed interval is therefore
# bracketed by a fixed interpreter-bound kernel, and host seconds are
# reported as *reference seconds*: wall ÷ slowdown, where slowdown is
# the kernel's time around the interval over its reference time.  The
# raw wall medians are printed and stored beside them.

#: seconds the probe kernel takes on the reference box in its usual
#: (slower) state; a constant, so numbers stay comparable across runs.
PROBE_REFERENCE_S = 0.0045


def _probe_kernel() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - started


def speed_probe() -> float:
    """Seconds the probe kernel takes right now (median of three, so
    one interrupt does not pass for a slow machine)."""
    return statistics.median(_probe_kernel() for _ in range(3))


def slowdown(before: float, after: float) -> float:
    """Machine slowdown over an interval bracketed by two probes."""
    return (before + after) / 2 / PROBE_REFERENCE_S


# ----------------------------------------------------------------------
# Statistics


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of a timing series."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def percentile(
    samples: Sequence[float], q: float, *, check_tail: bool = True
) -> float:
    """Nearest-rank percentile ``q`` (a fraction) of ``samples``.

    Above the median a percentile is refused unless at least
    ``MIN_TAIL_SAMPLES`` samples lie beyond it — nine numbers have no
    p99 worth printing.  ``check_tail=False`` waives that for values
    that only feed a spread, never a reported number.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile fraction must be in (0, 1), got {q}")
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    if check_tail and q > 0.5 and n * (1.0 - q) < MIN_TAIL_SAMPLES - 1e-9:
        raise ValueError(
            f"p{100 * q:g} of {n} samples has fewer than "
            f"{MIN_TAIL_SAMPLES} samples beyond it"
        )
    ordered = sorted(float(v) for v in samples)
    if q == 0.5:
        return statistics.median(ordered)
    rank = max(1, math.ceil(q * n - 1e-9))
    return ordered[rank - 1]


def supported_tail(n: int, cap: float = 0.90) -> float:
    """The highest percentile fraction ``<= cap`` that ``n`` samples
    support under the tail rule; the median when none above it is."""
    if n <= 0:
        raise ValueError("no samples")
    return max(0.5, min(cap, 1.0 - MIN_TAIL_SAMPLES / n))


# ----------------------------------------------------------------------
# Digests and seeds


def digest(payload: Any) -> str:
    """sha256 over the canonical JSON of ``payload``.

    Floats are rendered with ``repr`` (lossless), bytes as hex, so two
    runs digest equal exactly when their outputs are bit-identical.
    """
    return hashlib.sha256(
        json.dumps(
            _canonical(payload), sort_keys=True, separators=(",", ":")
        ).encode()
    ).hexdigest()


def _canonical(value: Any) -> Any:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (bytes, bytearray)):
        return hashlib.sha256(bytes(value)).hexdigest()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(v) for v in value)
    if hasattr(value, "tolist"):  # numpy scalars and arrays
        return _canonical(value.tolist())
    return value


def spawn_seeds(seed: int, names: Sequence[str]) -> Dict[str, Any]:
    """One ``SeedSequence`` child per name, spawned from ``seed``.

    The single place the ``--seed`` integer fans out: spec ``seed=``
    fields, mask generators and delay parameters all draw from their
    own child, so adding a consumer never shifts another's stream.
    """
    import numpy as np

    children = np.random.SeedSequence(int(seed)).spawn(len(names))
    return dict(zip(names, children))


def seed_int(sequence: Any) -> int:
    """A spec-sized integer seed from a ``SeedSequence``."""
    return int(sequence.generate_state(1)[0] % (2**31 - 1))


# ----------------------------------------------------------------------
# Machine fingerprint


def machine_fingerprint() -> Dict[str, Any]:
    """What a timing depends on besides the commit."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # the fingerprint must not need the program
        numpy_version = None
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info = {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu": cpu,
    }
    info["id"] = hashlib.sha256(
        json.dumps(info, sort_keys=True).encode()
    ).hexdigest()[:12]
    return info
