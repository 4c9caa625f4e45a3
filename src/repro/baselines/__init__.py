"""Baseline sleep-scheduling protocols the paper positions PEAS against.

* :class:`~repro.baselines.always_on.AlwaysOnProtocol` — no conservation;
* :class:`~repro.baselines.duty_cycle.DutyCycleProtocol` — randomized
  independent sleeping (statistical redundancy only);
* :class:`~repro.baselines.gaf.GafLikeProtocol` — GAF-style grid leader
  election driven by predicted leader lifetime;
* :class:`~repro.baselines.synchronized.SynchronizedSleepProtocol` — the
  Figure 4/5 synchronized-wakeup strawman;
* :class:`~repro.baselines.gaps.CellGapMonitor` — per-neighborhood
  replacement-gap statistics (the Fig 4/5 metric).

Each scheme is registered in :mod:`repro.protocols`, so
``repro.harness.run(scenario.with_(protocol="gaf"))`` runs it under the
identical scenario/metric machinery as PEAS.
"""

from .afeca import AfecaLikeProtocol
from .always_on import AlwaysOnProtocol
from .base import BaselineNetwork, BaselineNode
from .duty_cycle import DutyCycleProtocol
from .gaf import GafLikeProtocol
from .gaps import CellGapMonitor
from .span import SpanLikeProtocol
from .synchronized import SynchronizedSleepProtocol

__all__ = [
    "BaselineNetwork",
    "BaselineNode",
    "AlwaysOnProtocol",
    "DutyCycleProtocol",
    "GafLikeProtocol",
    "SpanLikeProtocol",
    "AfecaLikeProtocol",
    "SynchronizedSleepProtocol",
    "CellGapMonitor",
]
