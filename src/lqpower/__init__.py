"""Energy-efficient transmit-power policies for remote LQ control of a scalar
plant over a lossy wireless link.  The package re-exports the public names
of model, optimizer and simulator.
"""

from . import model, optimizer, simulator
from .model import *
from .optimizer import *
from .simulator import *

__version__ = "0.1.0"
__all__ = []
__all__ += model.__all__
__all__ += optimizer.__all__
__all__ += simulator.__all__
__all__ += ["__version__"]
