import numpy as np
import pytest

from gnndsim.constellation import BitLabeling, Constellation


def make_square16(power: float) -> Constellation:
    """Equiprobable 16-point square grid with average power ``power``."""
    s = np.sqrt(power / 10.0)
    levels = np.array([-3.0, -1.0, 1.0, 3.0]) * s
    pts = (levels[:, None] + 1j * levels[None, :]).ravel()
    labeling = BitLabeling(np.arange(16))
    return Constellation(pts, np.full(16, 1 / 16), float(power), labeling)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
