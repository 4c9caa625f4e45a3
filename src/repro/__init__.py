"""PEAS reproduction: a robust energy-conserving protocol for long-lived
sensor networks (Ye, Zhong, Cheng, Lu, Zhang — ICDCS 2003).

The package builds the full system described in the paper:

* :mod:`repro.sim` — discrete-event simulation kernel (PARSEC substitute);
* :mod:`repro.net` — field, deployment, radio, broadcast channel, MAC timing;
* :mod:`repro.energy` — Berkeley-Motes-like power model and batteries;
* :mod:`repro.failures` — random unexpected-failure injection;
* :mod:`repro.core` — the PEAS protocol (Probing Environment + Adaptive
  Sleeping, plus the §4 extensions);
* :mod:`repro.routing` — GRAB-like gradient data forwarding substrate;
* :mod:`repro.coverage` — K-coverage tracking and coverage lifetimes;
* :mod:`repro.baselines` — AlwaysOn / duty-cycle / GAF-like / SPAN-like /
  AFECA-like / synchronized sleeping comparators;
* :mod:`repro.sensing` — target events and detection latency (the mission
  K-coverage proxies);
* :mod:`repro.analysis` — §3 connectivity results, the §2.2.1
  measurement-accuracy study and an analytic lifetime model;
* :mod:`repro.harness` — :func:`~repro.harness.run`, the one way to run a
  scenario under any registered protocol;
* :mod:`repro.experiments` — scenarios, sweeps and the paper's
  tables/figures.

Quickstart
----------
>>> from repro.experiments import Scenario                  # doctest: +SKIP
>>> from repro.harness import run                          # doctest: +SKIP
>>> result = run(Scenario(num_nodes=160, seed=1))          # doctest: +SKIP
>>> result.coverage_lifetimes[4]                           # doctest: +SKIP
"""

from .core import PEASConfig, PEASNetwork, PEASNode
from .net import Field
from .sim import RngRegistry, Simulator

__version__ = "1.0.0"

__all__ = [
    "PEASConfig",
    "PEASNetwork",
    "PEASNode",
    "Field",
    "Simulator",
    "RngRegistry",
    "__version__",
]
