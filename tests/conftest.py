import math

import numpy as np
import pytest

from aodkit import bloch


@pytest.fixture(scope="session")
def bloch_closed_form_worst():
    """Worst |P1| gap between the RK4 integrator and the constant-drive closed
    form over 25 seeded (Rabi rate, detuning, time) cases; computed once per
    session because both the unit test and acceptance criterion 7 use it."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        om = rng.uniform(1e5, 5e7)
        det = rng.uniform(-3e7, 3e7)
        t = rng.uniform(1e-8, 1e-5)
        og = math.hypot(om, det)
        ref = (om / og) ** 2 * math.sin(0.5 * og * t) ** 2
        worst = max(worst, abs(bloch.excited_population(om, det, t) - ref))
    return worst
