"""The fleet simulator under its original name.

:class:`FleetSimulator` *is*
:class:`~repro.serving.scale.ScaledFleetSimulator`: one event core
serves the 4-device examples, the chaos sweeps and the 1000-device
autoscaled day.  See :mod:`repro.serving.scale` for its semantics.
"""

from __future__ import annotations

from .scale import ROUTING_POLICIES, ScaledFleetSimulator

__all__ = ["ROUTING_POLICIES", "FleetSimulator"]

FleetSimulator = ScaledFleetSimulator
