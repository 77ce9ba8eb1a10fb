"""Built-in example games.

``five_player_game`` is the bundled case study replayed by the CLI's
``reproduce-paper`` command: a randomly generated symmetric strictly
diagonally dominant 5-player system with its two published starting
profiles, their published stage-250 gains, and the batch settings used to
produce them.  The smaller presets cover the analytically solvable corners
used throughout the tests.
"""

from __future__ import annotations

import numpy as np

from .game import GameSpec, _frozen

__all__ = [
    "FIVE_PLAYER_A",
    "FIVE_PLAYER_RHO",
    "FIVE_PLAYER_ROUND1_START",
    "FIVE_PLAYER_ROUND2_START",
    "FIVE_PLAYER_ROUND1_FINAL",
    "FIVE_PLAYER_ROUND2_FINAL",
    "FIVE_PLAYER_STAGES",
    "FIVE_PLAYER_BATCH",
    "FIVE_PLAYER_HORIZON",
    "five_player_game",
    "scalar_game",
    "two_player_game",
    "diagonal_game",
    "PRESETS",
    "preset_game",
]


def _const(values) -> np.ndarray:
    return _frozen(np.array(values, dtype=float))


FIVE_PLAYER_A = _const([
    [-0.0342, -0.0111,  0.0095, -0.0012,  0.0118],
    [-0.0111, -0.0627,  0.0098,  0.0155,  0.0254],
    [ 0.0095,  0.0098, -0.0341, -0.0065, -0.0081],
    [-0.0012,  0.0155, -0.0065, -0.0323, -0.0081],
    [ 0.0118,  0.0254, -0.0081, -0.0081, -0.1086],
])

FIVE_PLAYER_RHO = _const([0.5542, 0.2642, 0.4526, 0.0664, 0.7990])

FIVE_PLAYER_ROUND1_START = _const([0.69, 4.41, 3.69, 2.39, 4.24])
FIVE_PLAYER_ROUND2_START = _const([1.15, 0.53, 2.82, 1.59, 0.54])

# Stage-250 gains published for the two rounds.
FIVE_PLAYER_ROUND1_FINAL = _const([1.31, 1.89, 1.46, 3.85, 1.03])
FIVE_PLAYER_ROUND2_FINAL = _const([1.29, 1.88, 1.49, 3.85, 1.03])

FIVE_PLAYER_STAGES = 250
FIVE_PLAYER_BATCH = 500
FIVE_PLAYER_HORIZON = 200.0


def five_player_game() -> GameSpec:
    """The 5-player benchmark game; its ceiling of 10 is never active."""
    return GameSpec(a=FIVE_PLAYER_A, rho=FIVE_PLAYER_RHO, k_upper=10.0)


def scalar_game() -> GameSpec:
    """One player, rate -1, unit tradeoff; equilibrium gain is sqrt(2) - 1."""
    return GameSpec(a=[[-1.0]], rho=1.0, k_upper=3.0)


def two_player_game() -> GameSpec:
    """Weakly coupled 2-player game with zero tradeoffs."""
    return GameSpec(a=[[-2.0, -0.5], [-0.5, -2.0]], rho=0.0, k_upper=10.0)


def diagonal_game() -> GameSpec:
    """Fully decoupled 3-player game; each equilibrium gain is closed-form."""
    return GameSpec(a=np.diag([-1.0, -2.0, -3.0]), rho=[1.0, 0.5, 0.25], k_upper=10.0)


PRESETS = {
    "scalar": scalar_game,
    "two-player": two_player_game,
    "diagonal": diagonal_game,
    "five-player": five_player_game,
}


def preset_game(name: str) -> GameSpec:
    if isinstance(name, str) and name in PRESETS:
        return PRESETS[name]()
    raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
