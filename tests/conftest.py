"""Test-suite support for the oldest numpy the package admits."""

import numpy as np

# numpy < 2.0 names the trapezoid rule `trapz`; the quadrature oracles in
# the tests use its numpy 2 name
if not hasattr(np, "trapezoid"):
    np.trapezoid = np.trapz
