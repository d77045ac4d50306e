"""Binary-weight and XNOR-popcount convolutional network engine.

Weight filters are factored into a packed sign pattern plus one positive
scale per filter, turning convolutions into additions/subtractions (binary
weights) or word-level XNOR + popcount (binary weights and inputs). The
package pairs the bit-packed kernels with a full-precision reference
convolution as oracle, a small training stack with the straight-through
estimator, a 1-bit model file format, and a benchmarking CLI.
"""

from .binarize import (
    BetaMap,
    BinarizedFilter,
    binarize_weights,
    compute_beta_map,
    quantize_kbit,
)
from .bitpack import PackedBits, pack, unpack, xnor_dot
from .kernels import (
    OpCounters,
    conv_binary_weight,
    conv_binary_weight_layer,
    conv_xnor_layer,
)
from .tensor import ConvGeometry, ShapeError, channel_abs_mean, conv2d_reference, sign

__version__ = "0.1.0"

__all__ = [
    "BetaMap",
    "BinarizedFilter",
    "ConvGeometry",
    "OpCounters",
    "PackedBits",
    "ShapeError",
    "binarize_weights",
    "channel_abs_mean",
    "compute_beta_map",
    "conv2d_reference",
    "conv_binary_weight",
    "conv_binary_weight_layer",
    "conv_xnor_layer",
    "pack",
    "quantize_kbit",
    "sign",
    "unpack",
    "xnor_dot",
]
