"""Equilibrium asset pricing with investor protection and path memory.

The package simulates an economy whose output is driven by an approximate
fractional Brownian motion, recovers the memory processes pathwise from
historical log-output data, and computes the full general-equilibrium price
dynamics (holdings, diversion, returns, volatilities, rates) with region
selection, a full-protection benchmark, and comparative-statics sweeps.

Each public name is declared once, in the ``__all__`` of its submodule.
"""

from . import equilibrium as _equilibrium, estimator as _estimator, params as _params, paths as _paths
from .equilibrium import *  # after the submodule import, so fbmecon.equilibrium is the function
from .estimator import *
from .params import *
from .paths import *

__version__ = "0.1.0"

__all__ = []
__all__ += _equilibrium.__all__
__all__ += _estimator.__all__
__all__ += _params.__all__
__all__ += _paths.__all__
