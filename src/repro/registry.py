"""One name table: how a name becomes a thing.

Placement families, schemes, backends, the five environment layers,
CLI commands and static-check rules are all looked up by a string from
a spec file, a command line or a decorator.  (Schemes and backends are
closed tables, filled once with data in :mod:`repro.engine.spec`.)
Each table is a :class:`Registry`, so the rules are stated once: a *spelling*
(canonical name or alias) belongs to at most one entry and claiming it
twice is an error, never a silent overwrite; lookups accept any
spelling while iteration, ``len`` and listings see canonical names in
registration order; a non-string or unregistered name is rejected with
the table's own error type and one message shape.
"""

from __future__ import annotations

import difflib
from typing import (
    Any, Dict, Iterable, Iterator, List, MutableMapping, Sequence, Tuple,
    Type, TypeVar,
)

V = TypeVar("V")


def did_you_mean(name: Any, spellings: Iterable[str]) -> str:
    """`` — did you mean 'a' or 'b'?`` for the spellings closest to
    ``name`` (best first, at most three), or ``""`` when none is close."""
    close = difflib.get_close_matches(
        str(name), sorted(spellings), n=3, cutoff=0.5
    )
    if not close:
        return ""
    return " — did you mean " + " or ".join(repr(m) for m in close) + "?"


class Registry(MutableMapping[str, V]):
    """Canonical name → entry, also answering to each entry's aliases.

    ``noun`` / ``plural`` word the messages (``"placement family"`` /
    ``"families"``); every rejection is raised as ``error``.
    """

    def __init__(self, noun: str, plural: str, error: Type[Exception]):
        self.noun = noun
        self.plural = plural
        self.error = error
        #: canonical name → its aliases, in registration order.
        self._aliases: Dict[str, Tuple[str, ...]] = {}
        #: every accepted spelling → entry (the one dict a lookup reads).
        self._lookup: Dict[str, V] = {}

    def register(self, name: str, value: V, aliases: Sequence[str] = ()) -> V:
        """Add ``value`` under ``name`` and ``aliases``; returns ``value``.

        A non-string spelling, or one already claimed as a name or an
        alias, is rejected before anything changes.
        """
        spellings = (name, *aliases)
        for i, spelling in enumerate(spellings):
            if not isinstance(spelling, str):
                raise self.error(
                    f"{self.noun} must be a string, got {spelling!r}"
                )
            if spelling in self._lookup or spelling in spellings[:i]:
                raise self.error(
                    f"{self.noun} {spelling!r} already registered"
                )
        self._aliases[name] = tuple(aliases)
        for spelling in spellings:
            self._lookup[spelling] = value
        return value

    def resolve(self, name: str) -> V:
        """The entry for ``name`` (any spelling), or raise ``error``."""
        try:
            return self._lookup[name]
        except (KeyError, TypeError):  # TypeError: unhashable name
            pass
        if not isinstance(name, str):
            raise self.error(f"{self.noun} must be a string, got {name!r}")
        raise self.error(self.unknown_message(name))

    def unknown_message(self, name: Any) -> str:
        """The did-you-mean text for an unregistered ``name``: hints
        draw on every spelling, the listing is canonical names, sorted."""
        return (
            f"unknown {self.noun} {name!r}{did_you_mean(name, self._lookup)} "
            f"(registered {self.plural}: {', '.join(sorted(self))})"
        )

    def spellings(self) -> List[str]:
        """Every accepted spelling, canonical names and aliases alike."""
        return list(self._lookup)

    def __getitem__(self, name: str) -> V:
        return self._lookup[name]

    def __setitem__(self, name: str, value: V) -> None:
        self.register(name, value)

    def __delitem__(self, name: str) -> None:
        """Drop the entry with *canonical* name ``name``, aliases too."""
        for spelling in (name, *self._aliases.pop(name)):
            del self._lookup[spelling]

    def __iter__(self) -> Iterator[str]:
        return iter(self._aliases)

    def __len__(self) -> int:
        return len(self._aliases)
