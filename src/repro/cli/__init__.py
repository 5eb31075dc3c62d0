"""Command-line interface.

Exposes the library's main entry points without writing Python::

    python -m repro placements
    python -m repro placements cr -n 8 -c 2
    python -m repro placements hr -n 12 --param c1=2 --param c2=1 --param num_groups=3
    python -m repro decode    cr -n 8 -c 2 --available 0,2,5
    python -m repro recovery  fr -n 8 -c 2 --trials 2000
    python -m repro recovery  explicit -n 4 --param 'rows=[[0,1],[1,2],[2,3],[3,0]]'
    python -m repro bounds    -n 8 -c 2
    python -m repro simulate  hr -n 12 --param c1=2 --param c2=1 --param num_groups=3 -w 9
    python -m repro environments
    python -m repro environments pareto --param alpha=2.5 --param scale=0.5
    python -m repro experiment fig13
    python -m repro experiment fig11 --jobs 8
    python -m repro run       experiment.json
    python -m repro run       experiment.json --sweep wait_for=2,3,4 --jobs 4
    python -m repro trace record --out run.jsonl
    python -m repro trace summarize run.jsonl
    python -m repro check     src tests examples
    python -m repro serve     ./mailbox --once --trace-dir traces
    python -m repro submit    ./mailbox experiment.json --wait
    python -m repro jobs      ./mailbox
    python -m repro cancel    ./mailbox job-0003

``repro check`` exits 0 when clean, 1 when it reports findings, and 2
on usage errors (unknown rule id, missing path) — the same convention
the other subcommands follow for invalid configurations.

Each subcommand lives in its own module and registers itself through
:func:`~repro.cli.registry.register_command`; the import order below is
the canonical ``--help`` order.
"""

from __future__ import annotations

from .registry import COMMAND_REGISTRY, build_parser, main, register_command

# Importing a command module registers its subcommand; this order IS
# the `repro --help` listing, so keep the historical sequence and add
# new commands at the end.
from . import decode as _decode  # noqa: E402,F401
from . import recovery as _recovery  # noqa: E402,F401
from . import bounds as _bounds  # noqa: E402,F401
from . import placements as _placements  # noqa: E402,F401
from . import environments as _environments  # noqa: E402,F401
from . import advise as _advise  # noqa: E402,F401
from . import simulate as _simulate  # noqa: E402,F401
from . import run as _run  # noqa: E402,F401
from . import check as _check  # noqa: E402,F401
from . import experiment as _experiment  # noqa: E402,F401
from . import trace as _trace  # noqa: E402,F401
from . import serve as _serve  # noqa: E402,F401

__all__ = [
    "main",
    "build_parser",
    "register_command",
    "COMMAND_REGISTRY",
]
