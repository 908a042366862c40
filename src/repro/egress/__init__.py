"""Egress-direction substrate: coexistence with egress traffic engineering."""

from repro.egress.coexistence import (
    CoexistenceError,
    CoexistenceResult,
    DirectionalLatency,
    DirectionalModel,
    EgressOptimizer,
    LinkWeightEpochs,
    evaluate_coexistence,
)

__all__ = [
    "CoexistenceError",
    "CoexistenceResult",
    "DirectionalLatency",
    "DirectionalModel",
    "EgressOptimizer",
    "LinkWeightEpochs",
    "evaluate_coexistence",
]
