"""Run configuration: JSON file plus flag overrides, flags winning.

Every subcommand reads its file through :func:`read_config` and resolves
each value by one rule (:func:`resolve`): a flag that is not ``None`` wins,
then the file's value, then the default.  A file's value meets its own rule
(its type, range or allowed choice, ``_RULES``) whether or not a flag
overrides it.  An ``experiment`` file is a single nested JSON object::

    {
      "game": {"preset": "five-player"}           # or explicit matrices
              {"a": [[...]], "rho": [...], "k_upper": [...], "k_lower": [...]}
              {"generate": {"n": 5, "seed": 7, "offdiag_scale": 1.0,
                            "dominance_margin": 0.1, "rho": [...],
                            "box_factor": 10.0}}
      "learn": {"stages": 250, "step_size": 1.0, "mode": "exact",
                "grad_tolerance": 0.0, "k0": [...]},
      "sim":   {"batch_size": 500, "horizon": 200.0, "dt": 0.1,
                "seed": 0, "integrator": "quadrature"},
      "output_dir": "runs/out",
      "format": "csv"
    }

``output_dir`` and ``format`` are ``learn``'s, though every file's are checked;
``check-rosen`` and ``simulate`` write only where ``--out`` says.
``reproduce-paper`` reads no file: its flags override ``cli.STUDY``, such a config.

``check-rosen`` also takes an ensemble sweep in place of a game::

    {"ensemble": {"n": 5, "count": 100, "offdiag_scale": 1.0,
                  "dominance_margin": 0.1, "seed": 0, "samples": 200,
                  "rho_range": [0.0, 1.0], "generator": "sdd"}}

and ``gen-matrix`` reads top-level keys ``{"n": 5, "offdiag_scale": 1.0,
"dominance_margin": 0.1, "seed": 0}``, ``n`` required.  Integer fields must
be JSON integers; real-valued fields, and each entry of an array field, JSON
numbers.  A ``seed`` that neither flag nor file gives comes from
``NASHLQ_SEED``, except in ``game.generate``.  A gain profile (``learn.k0``,
``--k0``, ``simulate --k``) is ``n`` finite numbers, from a flag's
comma-separated text or a file's JSON list; an empty field, as in ``1,,2``,
is refused, and a file's JSON string is not split.  ``game`` takes exactly one of
its three forms.  A key that no section above names is an error, not
ignored, and so is a key given twice in one object; every file that
``learn`` or ``simulate`` reads also works for ``check-rosen``.  An
``ensemble`` file takes no ``--preset``; its ``game``, ``learn`` and
``sim`` sections, which the sweep does not use, meet an experiment
file's rules, and its ``learn`` or ``sim`` needs a ``game``.
``game.generate`` and ``gen-matrix`` draw their matrix from one substream,
``(seed, *simulate._MATRIX_KEY)``, which no model-free stage's
``(seed, stage)`` stream shares.

Validation failures raise :class:`ConfigError`, which the CLI maps to
exit code 2.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import _ENSEMBLE_RULES, BOX_FACTOR, MatrixEnsembleConfig, _check_sweep
from .analysis import game_from_matrix, generate_sdd_matrix
from .game import GameSpec, _real_array, _require_choice, _require_each
from .learning import _LEARN_RULES, LearnConfig
from .output import HISTORY_FORMATS
from .presets import preset_game
from .simulate import _MATRIX_KEY, _SIM_RULES, SimConfig, substream

__all__ = [
    "ConfigError", "ExperimentConfig", "read_config", "resolve", "resolve_seed",
    "load_experiment", "load_ensemble", "load_matrix",
]

SEED_ENV_VAR = "NASHLQ_SEED"

# The keys each part of a config file takes.  Sim, learn and an ensemble take
# the fields of SimConfig, LearnConfig and MatrixEnsembleConfig, the keys of
# their rules (_SIM_RULES, _LEARN_RULES, _ENSEMBLE_RULES), and those are also
# flag keys; the config classes hold their defaults.
_MATRIX_KEYS = ("n", "offdiag_scale", "dominance_margin", "seed")  # a gen-matrix file
# check-rosen's ensemble size when neither flag nor file gives one.
_ENSEMBLE_SIZE = {"n": 5, "count": 100}
_SWEEP_DEFAULTS = {"samples": 200, "rho_range": (0.0, 1.0), "generator": "sdd"}
# learn's format and output_dir when neither flag nor file gives one; resolving
# them checks a file's own, for every subcommand.
_TOP_DEFAULTS = {"format": "csv", "output_dir": "runs"}
_EXPERIMENT_KEYS = ("game", "learn", "sim", "output_dir", "format")
# 'game' takes exactly one of these forms; each form needs its first key.
_GAME_FORMS = (("preset",), ("generate",), ("a", "rho", "k_upper", "k_lower"))
_GENERATE_KEYS = _MATRIX_KEYS + ("rho", "box_factor")


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


def _require_text(value, name: str) -> None:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a JSON string, got {value!r}")


# Each flag key's own rule, rule(value, name): type, range or allowed choice,
# no rule across keys.  A file's value meets it whether or not a flag overrides it.
_RULES = {**_SIM_RULES, **_LEARN_RULES, **_ENSEMBLE_RULES, "samples": lambda value, name: _check_sweep(value),
          "preset": lambda value, name: preset_game(value), "output_dir": _require_text,
          "format": functools.partial(_require_choice, choices=tuple(HISTORY_FORMATS))}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    game: GameSpec
    learn: LearnConfig
    output_dir: Path
    format: str
    k0: np.ndarray | None

    @property
    def sim(self) -> SimConfig:
        """The simulation settings, stored once, in ``learn``."""
        return self.learn.sim


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict, refusing a key that appears twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config file has the key {key!r} twice in one object")
        obj[key] = value
    return obj


def read_config(path) -> dict:
    """The JSON object in the file at ``path``; ``{}`` when ``path`` is None."""
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, UnicodeDecodeError) as err:  # a file that is not UTF-8 has no strerror
        raise ConfigError(f"cannot read config file {path}: {getattr(err, 'strerror', err)}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a JSON object")
    return raw


def _section(value, name: str, keys) -> dict:
    """``value``, checked to be a JSON object that holds only ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object")
    for key in value:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {name} (it takes {', '.join(keys)})")
    return value


def _given(flags: dict, section: dict, keys) -> dict:
    """Per key: the flag unless it is None, else the file's value; keys neither sets are left out.

    Each file value read here meets its rule in ``_RULES``, if it has one,
    whether or not a flag overrides it.
    """
    values = {key: section[key] for key in keys if key in section}
    _require_each(values, _RULES)
    values.update((key, flags[key]) for key in keys if flags.get(key) is not None)
    return values


def resolve(flags: dict, section: dict, defaults: dict) -> dict:
    """Per key of ``defaults``: the flag unless it is None, else the file's value, else the default."""
    return {**defaults, **_given(flags, section, defaults)}


def resolve_seed(flag_value, file_value=None):
    """Seed precedence: flag, then config file, then NASHLQ_SEED, then 0.

    Only the environment's text is parsed here; the config that receives
    the seed checks that it is a nonnegative integer.
    """
    for candidate in (flag_value, file_value):
        if candidate is not None:
            return candidate
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _read_profile(text, value, n: int, name: str) -> np.ndarray | None:
    """The profile ``name``, ``n`` finite numbers: a flag's comma-separated ``text``
    unless it is None, else ``value``, a file's JSON list; None if neither is given.
    A ``value`` that ``text`` overrides must still hold only finite numbers."""
    if text is not None:
        if value is not None:
            _real_array(value, name)
        try:
            value = [float(part) for part in text.split(",")]
        except ValueError:
            raise ConfigError(f"could not parse {name} {text!r}; expected comma-separated floats") from None
    if value is None:
        return None
    profile = _real_array(value, name)
    if profile.shape != (n,):
        raise ConfigError(f"{name} must have {n} entries, got shape {profile.shape}")
    return profile


def _config_errors(load):
    """Report any invalid value met while building a config as :class:`ConfigError`."""

    @functools.wraps(load)
    def checked(*args, **kwargs):
        try:
            return load(*args, **kwargs)
        except (TypeError, ValueError) as err:
            raise ConfigError(str(err)) from None

    return checked


def _matrix_ensemble(section: dict, flags: dict) -> MatrixEnsembleConfig:
    return MatrixEnsembleConfig(**{**_ENSEMBLE_SIZE, **_given(flags, section, _ENSEMBLE_RULES)})


def _draw_matrix(ens: MatrixEnsembleConfig) -> tuple[np.ndarray, np.random.Generator]:
    """The one matrix ``game.generate`` and ``gen-matrix`` draw, with the stream left after it."""
    rng = substream(ens.seed, *_MATRIX_KEY)
    return generate_sdd_matrix(ens, rng), rng


def _game_from_section(section: dict) -> GameSpec:
    forms = [form for form in _GAME_FORMS if not section.keys().isdisjoint(form)]
    if len(forms) != 1 or forms[0][0] not in section:
        raise ConfigError(
            "section 'game' takes exactly one of 'preset', 'generate', or an explicit 'a' "
            f"with optional 'rho', 'k_upper', 'k_lower'; got {', '.join(map(repr, section))}"
        )
    if "preset" in section:
        return preset_game(section["preset"])
    if "generate" in section:
        gen = _section(section["generate"], "section 'game.generate'", _GENERATE_KEYS)
        if "n" not in gen:
            raise ConfigError("section 'game.generate' needs an 'n' entry")
        ens = _matrix_ensemble(gen, {"count": 1})
        a, rng = _draw_matrix(ens)
        rho = gen.get("rho")
        if rho is None:
            rho = rng.uniform(0.0, 1.0, size=ens.n)
        return game_from_matrix(a, rho, gen.get("box_factor", BOX_FACTOR))
    return GameSpec(
        a=section["a"],
        rho=section.get("rho", 0.0),
        k_upper=section.get("k_upper", 10.0),
        k_lower=section.get("k_lower"),
    )


def load_experiment(config_path, overrides: dict | None = None) -> ExperimentConfig:
    """Build a validated experiment from an optional file and flag overrides.

    Flag overrides use the keys ``preset, seed, mode, stages, step_size,
    batch_size, horizon, dt, integrator, grad_tolerance, k0, output_dir,
    format`` (``k0`` as the flag's comma-separated text); any ``None``
    override defers to the file, then to defaults.
    """
    return _experiment(read_config(config_path), overrides or {})


@_config_errors
def _experiment(raw: dict, overrides: dict) -> ExperimentConfig:
    """:func:`load_experiment` of a config file's already-read object."""
    _section(raw, "the config file", _EXPERIMENT_KEYS)
    game_section = _section(raw.get("game", {}), "section 'game'", sum(_GAME_FORMS, ()))
    if overrides.get("preset") is not None:  # the flag's preset wins; a file's must still name one
        game_section = _given(overrides, game_section, ("preset",))
    if not game_section:
        raise ConfigError("no game configured: pass --preset or a config file with a 'game' section")
    game = _game_from_section(game_section)

    learn_raw = _section(raw.get("learn", {}), "section 'learn'", (*_LEARN_RULES, "k0"))
    sim_raw = _section(raw.get("sim", {}), "section 'sim'", _SIM_RULES)
    seed = resolve_seed(overrides.get("seed"), sim_raw.get("seed"))
    sim = SimConfig(**_given({**overrides, "seed": seed}, sim_raw, _SIM_RULES))
    learn = LearnConfig(**_given(overrides, learn_raw, _LEARN_RULES), sim=sim)

    k0 = _read_profile(overrides.get("k0"), learn_raw.get("k0"), game.n, "k0")
    if k0 is not None and not game.contains(k0):
        raise ConfigError("k0 lies outside the action box")

    top = resolve(overrides, raw, _TOP_DEFAULTS)
    return ExperimentConfig(
        game=game, learn=learn, output_dir=Path(top["output_dir"]), format=top["format"], k0=k0
    )


@_config_errors
def load_ensemble(raw: dict, overrides: dict) -> tuple[MatrixEnsembleConfig, dict]:
    """The ``ensemble`` sweep of a ``check-rosen`` file's already-read object: the
    ensemble and the :func:`~nashlq.analysis.conjecture_sweep` keyword arguments,
    flags winning.  The file's other sections meet an experiment file's rules."""
    _section(raw, "the config file", _EXPERIMENT_KEYS + ("ensemble",))
    resolve(overrides, raw, _TOP_DEFAULTS)  # checks the file's format and output_dir
    if overrides.get("preset") is not None:
        raise ConfigError("--preset does not apply to a config file with an 'ensemble' section")
    section = _section(raw["ensemble"], "section 'ensemble'", (*_ENSEMBLE_RULES, *_SWEEP_DEFAULTS))
    seed = resolve_seed(overrides.get("seed"), section.get("seed"))
    ensemble = _matrix_ensemble(section, {"seed": seed})
    sweep = resolve(overrides, section, _SWEEP_DEFAULTS)
    sweep["samples_per_matrix"] = sweep.pop("samples")
    orphan = next((key for key in ("learn", "sim") if key in raw), None)
    if orphan is not None and "game" not in raw:
        raise ConfigError(f"section '{orphan}' needs a 'game' section")
    if "game" in raw:  # unused, but checked as an experiment file's
        _experiment({key: value for key, value in raw.items() if key != "ensemble"}, overrides)
    return ensemble, sweep


@_config_errors
def load_matrix(config_path, overrides: dict) -> MatrixEnsembleConfig:
    """The one-matrix ensemble ``gen-matrix`` draws (with :func:`_draw_matrix`),
    from top-level file keys with flags winning."""
    raw = _section(read_config(config_path), "the config file", _MATRIX_KEYS)
    if overrides.get("n") is None and "n" not in raw:
        raise ConfigError("gen-matrix needs a dimension: pass --n or a config with 'n'")
    seed = resolve_seed(overrides.get("seed"), raw.get("seed"))
    return _matrix_ensemble(raw, {**overrides, "count": 1, "seed": seed})
