"""Name -> :class:`~repro.protocols.base.ProtocolSpec` registry.

``Scenario.protocol`` names an entry here; the harness resolves it at run
time, so sweeps can cross protocols exactly like populations or failure
rates.  Registration is open: extensions register their own spec once and
:func:`repro.harness.run` — and so ``run_sweep`` and the CLI — can run it.
"""

from __future__ import annotations

from typing import Dict, List

from .base import ProtocolSpec

__all__ = ["register_protocol", "get_protocol", "protocol_names", "PROTOCOLS"]

#: The live registry; mutate only through :func:`register_protocol`.
PROTOCOLS: Dict[str, ProtocolSpec] = {}


def register_protocol(spec: ProtocolSpec, replace: bool = False) -> ProtocolSpec:
    """Register ``spec`` under its name; duplicates need ``replace=True``."""
    if not replace and spec.name in PROTOCOLS:
        raise ValueError(f"protocol {spec.name!r} is already registered")
    PROTOCOLS[spec.name] = spec
    return spec


def get_protocol(name: str) -> ProtocolSpec:
    """Look up a registered protocol (KeyError lists the choices)."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; registered: {sorted(PROTOCOLS)}"
        ) from None


def protocol_names() -> List[str]:
    """Sorted names of every registered protocol."""
    return sorted(PROTOCOLS)
