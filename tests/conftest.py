import os
import struct

import pytest

# Pin BLAS thread pools before numpy loads anywhere: keeps kernel timing
# ratios stable and test runs deterministic on small CI boxes.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")


@pytest.fixture
def giant_conv_model(tmp_path):
    """A 131,374-byte model file: one packed 1->1 1025x1025 conv, stride 1
    and pad 1024, on a 1x28x28 input, with all-zero sign words and a scale
    of 1."""
    from xbnn.modelio import MAGIC, VERSION

    n_words = -(-1025 * 1025 // 64)
    path = tmp_path / "giant.xbn"
    path.write_bytes(MAGIC + struct.pack("<HH3I", VERSION, 1, 1, 28, 28)
                     + struct.pack("<BB6H", 1, 1 | 8, 1, 1, 1025, 1025, 1, 1024)
                     + bytes(8 * n_words) + struct.pack("<f", 1.0))
    return path
