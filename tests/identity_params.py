"""Identity building blocks for tests: delta stencils and a no-op fusion block."""

import numpy as np

from geoalign.autodiff import Kernel2D
from geoalign.scale_fusion import DEPTH_CHANNELS, FusionParams


def delta_stencils(size=3, channels=1):
    """A ``(channels, size, size)`` stack with a one at each center."""
    w = np.zeros((channels, size, size))
    w[:, size // 2, size // 2] = 1.0
    return w


def delta_kernel(size=3, channels=1, dilation=1):
    """Identity stencils: a one at each channel's center, zeros elsewhere."""
    return Kernel2D(delta_stencils(size, channels), dilation=dilation)


def identity_fusion(channels):
    """Delta branch stencils and a zeroed head: ``fuse`` doubles the input to
    within float round-off."""
    return FusionParams(
        mid_kernel=delta_stencils(3, channels),
        far_kernel=delta_stencils(3, channels),
        head_weights=np.zeros((3, DEPTH_CHANNELS)),
        head_bias=np.zeros(3),
    )
