"""cavres: engineered-reservoir simulator for non-classical cavity field states.

An atomic beam crosses a cavity; each atom sees a dispersive-resonant-
dispersive interaction schedule that turns the ensemble into a reservoir
whose pointer states are Kerr-evolved fields (Schrodinger cats,
multi-component superpositions, squeezed and banana-shaped states).  This
package simulates the repeated-interaction dynamics in a truncated Fock
space and provides the analysis tools (Wigner maps, cat fits, squeezing)
used to characterize the stabilized states.

What is exact: in the instantaneous crossing of the analytic backend the
dispersive wings act only as a Kerr conjugation.  The loss-free sample map
at dispersive phase phi0 is the resonant-only map conjugated by
K(phi0) = exp(-i phi0 n(n+1)), so the loss-free analytic pointer state is
K(phi0) applied to the resonant-only one.  That one is close to, but not,
a coherent state, and the numeric backend, which resolves the transit in
time with loss interleaved, has no such identity (README, Pointer states).
"""

import os as _os

# must run before numpy is first imported to take effect; only a positive
# integer is copied, and cli.main rejects any other value with exit code 2
_threads = _os.environ.get("CAVRES_THREADS", "")
if _threads.isascii() and _threads.isdigit() and int(_threads) > 0:
    for _var in (
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "OMP_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)

from cavres.fock import *
from cavres.thermal import *
from cavres.dynamics import *
from cavres.reservoir import *
from cavres.metrics import *
from cavres.scenarios import *
from cavres import dynamics, fock, metrics, reservoir, scenarios, thermal

__version__ = "0.1.0"
__all__ = [
    name
    for module in (fock, thermal, dynamics, reservoir, metrics, scenarios)
    for name in module.__all__
] + ["__version__"]
