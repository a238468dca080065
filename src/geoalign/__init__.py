"""Geometry-grounded feature filtering for cross-view depth retrieval.

The package builds everything from a small double-precision tensor core
with tape-based reverse-mode differentiation: a depth-to-attention-mask
pipeline that suppresses view-dependent vertical structure, a depth-guided
multi-scale fusion block, ranking and activation-contrast losses, a
procedural scene generator that doubles as a test oracle, and a miniature
cross-view retrieval experiment, all wired to a deterministic CLI.
"""

# Importing the package loads every module; the API lives in the submodules.
from . import autodiff, checks, cli, formats, losses, retrieval, scale_fusion, scenes, structure_filter
from .autodiff import Tensor

__all__ = ["Tensor"]
