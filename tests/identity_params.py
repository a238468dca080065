"""Identity building blocks for tests: delta stencils and a no-op fusion block."""

import numpy as np

from geoalign.autodiff import Kernel2D, Tensor
from geoalign.scale_fusion import DEPTH_CHANNELS, FAR_DILATION, MID_DILATION, FusionParams


def delta_kernel(size=3, channels=1, dilation=1):
    """Identity stencils: a one at each channel's center, zeros elsewhere."""
    w = np.zeros((channels, size, size))
    w[:, size // 2, size // 2] = 1.0
    return Kernel2D(w, dilation=dilation)


def identity_fusion(channels):
    """Delta branch stencils and a zeroed head: ``fuse`` doubles the input to
    within float round-off."""
    return FusionParams(
        mid_kernel=delta_kernel(3, channels, dilation=MID_DILATION),
        far_kernel=delta_kernel(3, channels, dilation=FAR_DILATION),
        head_weights=Tensor(np.zeros((3, DEPTH_CHANNELS))),
        head_bias=Tensor(np.zeros(3)),
    )
