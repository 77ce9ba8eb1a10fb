"""Gradient-play Nash equilibrium seeking for decentralized LQ games.

n players share a symmetric linear system; each one feeds back only on its
own state and learns its scalar gain by projected gradient play, either from
closed-form gradients or fully model-free from sampled trajectory costs.
"""

from . import analysis, game, learning, presets, simulate
from .analysis import *
from .config import ConfigError, ExperimentConfig, load_experiment
from .game import *
from .learning import *
from .presets import *
from .simulate import *

__version__ = "0.1.0"

# Each module's own __all__, plus the config loader; config's CLI helpers stay out.
__all__ = [name for module in (analysis, game, learning, presets, simulate) for name in module.__all__]
__all__ += ["ConfigError", "ExperimentConfig", "load_experiment"]
