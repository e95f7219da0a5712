"""The five-step transprecision programming flow (paper Fig. 2)."""

from .steps import (
    FlowResult,
    TransprecisionFlow,
    default_cache_dir,
    replay_baseline,
)

__all__ = [
    "FlowResult",
    "TransprecisionFlow",
    "default_cache_dir",
    "replay_baseline",
]
