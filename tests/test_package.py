import nashlq
from nashlq import analysis, config, game, learning, presets, simulate

# The package names before each module's __all__ built the namespace.
EARLIER_NAMES = {
    "ActionProfile", "ConfigError", "CostGradientReport", "ExperimentConfig", "FIVE_PLAYER_A",
    "FIVE_PLAYER_RHO", "FIVE_PLAYER_ROUND1_FINAL", "FIVE_PLAYER_ROUND1_START",
    "FIVE_PLAYER_ROUND2_FINAL", "FIVE_PLAYER_ROUND2_START", "GameSpec", "LearnConfig", "LearnRun",
    "MatrixEnsembleConfig", "NotPositiveDefinite", "PreconditionViolated", "RosenReport",
    "SimConfig", "StageRecord", "SweepRecord", "SweepResult", "TrajectoryBatch",
    "conjecture_sweep", "cost", "diagonal_game", "evaluate", "exact_gradient", "five_player_game",
    "game_from_matrix", "generate_negative_definite_matrix", "generate_sdd_matrix",
    "gradient_play_step", "load_experiment", "marginal_cost_from_cost", "monte_carlo_cost",
    "pair_integrals", "preset_game", "project", "pseudogradient_jacobian", "resolvent",
    "rosen_check", "rosen_sweep", "run_gradient_play", "sample_initial_state", "scalar_game",
    "second_derivative", "simulate_batch", "simulate_state", "stability_margin", "substream",
    "trajectory_cost", "two_player_game", "two_player_mu",
}
# Public in their modules all along, and now in the package too.
ADDED_NAMES = {"SQRT3", "FIVE_PLAYER_STAGES", "FIVE_PLAYER_BATCH", "FIVE_PLAYER_HORIZON", "PRESETS"}
# New public functions since then.
NEW_NAMES = {"run_lockstep"}
# Removed since then: ``project`` was a second name for ``np.clip``, and
# ``GameSpec.clip`` projects onto the action box.
REMOVED_NAMES = {"project"}


def test_package_names():
    assert len(EARLIER_NAMES) == 53
    assert len(nashlq.__all__) == len(set(nashlq.__all__))
    assert set(nashlq.__all__) == (EARLIER_NAMES | ADDED_NAMES | NEW_NAMES) - REMOVED_NAMES


def test_each_name_is_its_module_object():
    modules = (analysis, config, game, learning, presets, simulate)
    for name in nashlq.__all__:
        owners = [module for module in modules if name in module.__all__]
        assert len(owners) == 1, name
        assert getattr(nashlq, name) is getattr(owners[0], name)
