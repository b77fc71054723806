"""Physical constants (CODATA 2018, exact SI values).

All internal computation is in SI (J, s, Hz, V, K, F). Values quoted in
lab units (neV, mK, GHz, ...) are converted at call boundaries.
"""

import math

E_CHARGE = 1.602176634e-19  # C
PLANCK_H = 6.62607015e-34  # J s
HBAR = PLANCK_H / (2.0 * math.pi)  # J s
K_BOLTZMANN = 1.380649e-23  # J / K
