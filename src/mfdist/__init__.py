"""Multifidelity distribution learning under a hard sampling budget.

The package estimates the full distribution of an expensive scalar model
output by adaptively splitting a budget between joint exploration of cheap
surrogate models and exploitation of the best regression emulator, with all
errors measured in the exact 1-Wasserstein metric.
"""

from . import bench, measures, models, policy, regress
from .bench import *
from .measures import *
from .models import *
from .policy import *
from .regress import *

__version__ = "0.1.0"

# each module's __all__ declares its public names; the package exports them all
__all__ = sorted(
    bench.__all__ + measures.__all__ + models.__all__ + policy.__all__ + regress.__all__
)
