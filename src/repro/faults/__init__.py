"""Deterministic fault injection + crash-consistency checking.

``plan``/``store`` inject faults; ``crashcheck`` is the crash-point sweep
engine, run over the workloads in ``crash_workloads`` and proven by the
bugs in ``seeded_bugs``. See DESIGN.md §"Fault model & crash-consistency
methodology". Quick start::

    PYTHONPATH=src python -m repro.faults.crashcheck --workload rename
"""

from .plan import FaultPlan, InjectedCrash, MessageRule
from .store import FaultyObjectStore

__all__ = ["FaultPlan", "InjectedCrash", "MessageRule", "FaultyObjectStore"]
