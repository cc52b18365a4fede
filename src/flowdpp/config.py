"""Run configuration: an INI file with [run], [controller], and [scenario]
sections.  Unknown sections or keys are rejected with their location; a
parse -> save -> parse round trip reproduces the same configuration.
"""

import configparser
import math
from dataclasses import dataclass, fields

from .controller import ControllerConfig, ModelChoice
from .fileio import _utf8_lines
from .policies import DISCOUNT, LEARNING_RATE, PolicyKind
from .sim import CPU_LATENCY, GPU_LATENCY, ScenarioConfig

__all__ = ["RunConfig", "ConfigError", "load_config", "save_config", "parse_config"]


class ConfigError(ValueError):
    """Invalid configuration file content."""


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig = ScenarioConfig()
    controller: ControllerConfig = ControllerConfig()
    policy: PolicyKind = PolicyKind.DPP
    out_dir: str = "out"
    reinforce_lr: float = LEARNING_RATE
    reinforce_gamma: float = DISCOUNT
    reinforce_train_episodes: int = 50
    reinforce_episode_len: int = 50
    trace: str = ""

    def __post_init__(self):
        # written so that NaN fails each comparison
        if not 0.0 < self.reinforce_lr < math.inf:
            raise ValueError(f"reinforce_lr must be finite and > 0, got {self.reinforce_lr}")
        if not 0.0 <= self.reinforce_gamma <= 1.0:
            raise ValueError(f"reinforce_gamma must be in [0, 1], got {self.reinforce_gamma}")
        if not self.reinforce_train_episodes >= 0:
            raise ValueError("reinforce_train_episodes must be >= 0")
        if not self.reinforce_episode_len >= 1:
            raise ValueError("reinforce_episode_len must be >= 1")
        # a trace sets the step count; zero generated steps leave no summary
        if not self.trace and self.scenario.horizon < 1:
            raise ValueError(f"horizon must be >= 1 when no trace is set, got {self.scenario.horizon}")


def _convert(raw, sample, where):
    try:
        if isinstance(sample, bool):
            low = raw.strip().lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if isinstance(sample, int):
            return int(raw)
        if isinstance(sample, float):
            return float(raw)
        if isinstance(sample, tuple):
            return tuple(float(part) for part in raw.split(","))
        if isinstance(sample, ModelChoice):
            return ModelChoice(raw.strip().upper())
        if isinstance(sample, PolicyKind):
            return PolicyKind(raw.strip().lower())
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _format(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(f"{v:.17g}" for v in value)
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (ModelChoice, PolicyKind)):
        return value.value
    return str(value)


def _dataclass_defaults(cls):
    return {f.name: f.default for f in fields(cls)}


_RUN_KEYS = {
    name: default
    for name, default in _dataclass_defaults(RunConfig).items()
    if name not in ("scenario", "controller")
}


def parse_config(parser, source="<config>"):
    """Build a RunConfig from a ConfigParser, rejecting unknown keys."""
    scenario_defaults = _dataclass_defaults(ScenarioConfig)
    controller_defaults = _dataclass_defaults(ControllerConfig)
    known = {
        "run": _RUN_KEYS,
        "controller": controller_defaults,
        "scenario": scenario_defaults,
    }
    scenario_kwargs, controller_kwargs, run_kwargs = {}, {}, {}
    targets = {"run": run_kwargs, "controller": controller_kwargs, "scenario": scenario_kwargs}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"{source}: unknown section [{section}]")
        for key, raw in parser.items(section):
            where = f"{source}: [{section}] {key}"
            if section == "scenario" and key == "latency_profile":
                for clash in ("base_latency_h", "base_latency_t"):
                    if parser.has_option(section, clash):
                        raise ConfigError(f"{where}: cannot be combined with {clash}")
                profile = raw.strip().lower()
                if profile not in ("cpu", "gpu"):
                    raise ConfigError(f"{where}: expected cpu or gpu, got {raw!r}")
                lat = CPU_LATENCY if profile == "cpu" else GPU_LATENCY
                scenario_kwargs["base_latency_h"] = lat[0]
                scenario_kwargs["base_latency_t"] = lat[1]
                continue
            if key not in known[section]:
                raise ConfigError(f"{where}: unknown key")
            targets[section][key] = _convert(raw, known[section][key], where)
    sections = {}
    for section, cls in (("scenario", ScenarioConfig), ("controller", ControllerConfig)):
        try:
            sections[section] = cls(**targets[section])
        except ValueError as exc:
            raise ConfigError(f"{source}: [{section}] {exc}") from exc
    try:
        return RunConfig(**sections, **run_kwargs)
    except ValueError as exc:
        raise ConfigError(f"{source}: [run] {exc}") from exc


def load_config(path):
    parser = configparser.ConfigParser()
    try:
        parser.read_file(_utf8_lines(path), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8 text, a message that names the file
        raise ConfigError(str(exc)) from exc
    return parse_config(parser, source=str(path))


def save_config(cfg, path):
    parser = configparser.ConfigParser()
    parser["run"] = {key: _format(getattr(cfg, key)) for key in _RUN_KEYS}
    parser["controller"] = {
        f.name: _format(getattr(cfg.controller, f.name)) for f in fields(ControllerConfig)
    }
    parser["scenario"] = {
        f.name: _format(getattr(cfg.scenario, f.name)) for f in fields(ScenarioConfig)
    }
    with open(path, "w", encoding="utf-8") as f:
        parser.write(f)
