"""The fleet simulator under its original name, plus :func:`simulate`.

:class:`FleetSimulator` *is*
:class:`~repro.serving.scale.ScaledFleetSimulator`: one event core
serves the 4-device examples, the chaos sweeps and the 1000-device
autoscaled day.  See :mod:`repro.serving.scale` for its semantics.
"""

from __future__ import annotations

from typing import Optional

from .metrics import DEFAULT_SLO_MULTIPLIER, ServingReport
from .scale import ROUTING_POLICIES, ScaledFleetSimulator
from .scheduler import (
    AdmissionPolicy,
    BatchPolicy,
    ResiliencePolicy,
    ServiceCosts,
)
from .workload import Workload

__all__ = ["ROUTING_POLICIES", "FleetSimulator", "simulate"]

FleetSimulator = ScaledFleetSimulator


def simulate(workload: Workload, costs: ServiceCosts, *, devices: int = 1,
             batch_policy: Optional[BatchPolicy] = None,
             admission: Optional[AdmissionPolicy] = None,
             routing: str = "least_loaded",
             slo_multiplier: float = DEFAULT_SLO_MULTIPLIER,
             rate_rps: float = 0.0,
             fault_plan=None,
             resilience: Optional[ResiliencePolicy] = None) -> ServingReport:
    """One-call convenience wrapper around :class:`FleetSimulator`."""
    sim = FleetSimulator(costs, devices=devices, batch_policy=batch_policy,
                         admission=admission, routing=routing,
                         slo_multiplier=slo_multiplier,
                         fault_plan=fault_plan, resilience=resilience)
    return sim.run(workload, rate_rps=rate_rps)
