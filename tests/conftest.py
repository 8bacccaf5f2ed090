import numpy as np
import pytest

from biased_voter.exact import exact_range_functional_curve_1d

EXACT_SERIES_GRID = tuple(float(t) for t in np.geomspace(100.0, 2000.0, 15))


@pytest.fixture(scope="session")
def exact_series_nu1():
    """Exact E^0 exp(-|R_t|) for the 1-d walk on a log grid up to t = 2000.

    Shared across modules: several tests (exponent trends, fits, acceptance)
    read the same curve, which the closed form gives in milliseconds.
    """
    values = exact_range_functional_curve_1d(1.0, EXACT_SERIES_GRID, 400)
    return np.asarray(EXACT_SERIES_GRID), values
