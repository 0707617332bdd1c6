"""Simulated-GPU traversal engines: StackOnly / Hybrid / GlobalOnly.

The wall-clock parallel engine lives in :mod:`repro.net.distributed`."""

from .base import EngineResult, SimEngineBase
from .globalonly import GlobalOnlyEngine
from .hybrid import HybridEngine
from .stackonly import StackOnlyEngine

__all__ = [
    "EngineResult",
    "SimEngineBase",
    "GlobalOnlyEngine",
    "HybridEngine",
    "StackOnlyEngine",
]
