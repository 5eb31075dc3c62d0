"""Paper-experiment harnesses (Figs. 11-13)."""

from .config import Fig11Config, Fig12Config, Fig13Config
from .fig11 import SchemePoint, fig11_tables, run_condition, run_fig11
from .fig12 import TrainingPoint, fig12_tables, recovery_table, run_fig12
from .fig13 import HRPoint, fig13_tables, run_fig13
from .extra import enduring_straggler_study, enduring_straggler_table
from .runner import run

__all__ = [
    "Fig11Config",
    "Fig12Config",
    "Fig13Config",
    "SchemePoint",
    "run_condition",
    "run_fig11",
    "fig11_tables",
    "TrainingPoint",
    "run_fig12",
    "recovery_table",
    "fig12_tables",
    "HRPoint",
    "run_fig13",
    "fig13_tables",
    "run",
    "enduring_straggler_study",
    "enduring_straggler_table",
]
