"""Token-selective backpropagation for transformer fine-tuning.

Gradients flow through a chosen subset of input positions only, so only
that subset's intermediate activations are cached during the forward pass.
The package bundles a small reverse-mode engine with exact cache
accounting, a from-scratch transformer, low-rank adapters, training and
evaluation loops, memory profiling, and oracle-based verification.
"""

__version__ = "0.1.0"

from .config import ModelConfig, RunConfig, TaskConfig, TrainConfig
from .engine import Tape
from .model import TransformerModel, build_model
from .partition import TokenPartition, select_positions

__all__ = [
    "ModelConfig", "RunConfig", "TaskConfig", "TrainConfig",
    "Tape", "TransformerModel", "build_model",
    "TokenPartition", "select_positions",
    "__version__",
]
