"""Gradient-alignment training for CNNs, CAM saliency, and interpretability metrics."""

from .tensor import GradMode, Tape, Tensor, backward, detach
from .gradcheck import finite_diff_gradient

__all__ = [
    "GradMode",
    "Tape",
    "Tensor",
    "backward",
    "detach",
    "finite_diff_gradient",
]
