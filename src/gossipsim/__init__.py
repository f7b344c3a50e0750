"""Discrete-time simulator and statistical verification harness for
randomized broadcast protocols on partially active complete networks.

The package republishes each module's __all__."""

from . import core, protocols, theory, harness
from .core import *
from .protocols import *
from .theory import *
from .harness import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *protocols.__all__, *theory.__all__,
           *harness.__all__, "__version__"]
