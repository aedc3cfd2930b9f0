"""Scenario configuration: a flat key = value text format plus validation.

The same keys are accepted from a config file and from --set overrides on
the command line, so sweep scripts can diff configs line by line.
"""

from __future__ import annotations

import math
from typing import Optional

from .reconfig import TRIGGER_COMMITTEE_FRACTION, TRIGGER_MODES

# The longest a cross-shard transaction took from its injection to its
# ordering at the target: 24 ticks at sync_interval 1, and at most 29 more
# for each further tick of sync_interval (53, 77, 103, 119 and 155 ticks at
# 2 to 6).  Grid: n from 6 to 128 and s from 2 to 8 (n 256 and s 16 too at
# sync_interval 1), tx_rate n / sync_interval, cross_ratio 0.3, injection
# during the first third of a run of 60 gossip rounds, seeds 1 to 3.
CROSS_LATENCY_TICKS = 24
CROSS_LATENCY_PER_INTERVAL = 29
# an automatic drain window that leaves injection fewer gossip rounds than
# this loads the run too little for its figures to mean much
MIN_INJECT_ROUNDS = 4

ADVERSARY_KINDS = NO_ADVERSARY, EQUIVOCATOR, CHURN, SHARD_FAILURE = (
    "none", "equivocator", "churn", "shard_failure")


class ConfigError(Exception):
    pass


class ScenarioConfig:
    """Built by keyword from the annotated fields below, whose class
    values are the defaults; an unknown name raises TypeError."""

    n: int = 8                     # node count
    s: int = 2                     # shard (committee) count
    seed: int = 1
    duration: int = 60             # scheduler ticks
    sync_interval: int = 1         # ticks between gossip rounds
    tx_rate: float = 8.0           # expected transactions injected per tick
    cross_ratio: float = 0.0       # fraction of cross-shard transactions
    batch_limit: int = 16          # txs per coordinator queue flush
    checkpoint_period: int = 4     # global finalized rounds between checkpoints
    inject_until: int = 0          # 0 = auto (leave a drain window)
    trigger_mode: str = TRIGGER_COMMITTEE_FRACTION
    min_committee_size: int = 4
    adversary_kind: str = NO_ADVERSARY
    adversary_fraction: float = 0.0
    adversary_interval: int = 5
    adversary_committee: int = -1  # -1 = pick deterministically
    adversary_fail_at: int = -1    # -1 = duration // 3
    adversary_recover_delay: int = 20
    adversary_rejoin: bool = False

    def __init__(self, **settings):
        for name in _FIELDS:
            setattr(self, name, settings.pop(name, getattr(ScenarioConfig, name)))
        if settings:
            raise TypeError(f"unknown ScenarioConfig fields {sorted(settings)}")

    def validate(self) -> None:
        if self.s < 1:
            raise ConfigError("s must be >= 1")
        if self.n < self.s:
            raise ConfigError("n must be >= s")
        if self.duration < 1:
            raise ConfigError("duration must be >= 1")
        if self.sync_interval < 1:
            raise ConfigError("sync_interval must be >= 1")
        # an infinite rate never ends poisson_sample's draw loop
        if not 0 <= self.tx_rate < math.inf:
            raise ConfigError("tx_rate must be finite and >= 0")
        if not 0.0 <= self.cross_ratio <= 1.0:
            raise ConfigError("cross_ratio must be in [0, 1]")
        if self.cross_ratio > 0 and self.s < 2:
            raise ConfigError("cross_ratio > 0 requires s >= 2")
        if self.batch_limit < 1:
            raise ConfigError("batch_limit must be >= 1")
        if self.checkpoint_period < 1:
            raise ConfigError("checkpoint_period must be >= 1")
        if self.inject_until < 0:
            raise ConfigError("inject_until must be >= 0 (0 = auto)")
        if self.min_committee_size < 1:
            raise ConfigError("min_committee_size must be >= 1")
        if self.trigger_mode not in TRIGGER_MODES:
            raise ConfigError(
                f"trigger_mode must be one of {TRIGGER_MODES}"
            )
        if self.adversary_kind not in ADVERSARY_KINDS:
            raise ConfigError(
                f"adversary.kind must be one of {ADVERSARY_KINDS}"
            )
        if not 0.0 <= self.adversary_fraction < 1.0:
            raise ConfigError("adversary.fraction must be in [0, 1)")
        if self.adversary_interval < 1:
            raise ConfigError("adversary.interval must be >= 1")
        if self.adversary_recover_delay < 1:
            raise ConfigError("adversary.recover_delay must be >= 1")
        if not -1 <= self.adversary_committee < self.s:
            raise ConfigError("adversary.committee must be -1 or in [0, s)")
        if self.adversary_fail_at < -1:
            raise ConfigError("adversary.fail_at must be >= -1 (-1 = auto)")
        if self.adversary_kind == SHARD_FAILURE:
            # the last tick is duration - 1: a failure or recovery past it
            # never happens, and the report would not say so
            fail_at = self.resolved_fail_at()
            if fail_at >= self.duration:
                raise ConfigError(
                    f"adversary.fail_at ({fail_at}) must be before "
                    f"duration ({self.duration})"
                )
            if fail_at + self.adversary_recover_delay >= self.duration:
                raise ConfigError(
                    f"adversary.recover_delay puts the recovery at tick "
                    f"{fail_at + self.adversary_recover_delay}, not before "
                    f"duration ({self.duration})"
                )

    def resolved_fail_at(self) -> int:
        if self.adversary_fail_at < 0:
            return self.duration // 3
        return self.adversary_fail_at

    def resolved_inject_until(self) -> int:
        if self.inject_until > 0:
            return min(self.inject_until, self.duration)
        # leave a drain window of a quarter of the run, at least 8 ticks,
        # and with cross traffic at least the longest cross latency measured
        drain = max(8, self.duration // 4)
        if self.s > 1 and self.cross_ratio > 0:
            drain = max(drain, CROSS_LATENCY_TICKS + CROSS_LATENCY_PER_INTERVAL
                        * (self.sync_interval - 1))
        return max(1, self.duration - drain)

    def injection_warning(self) -> Optional[str]:
        """Why the automatic drain window leaves the run too little
        injection, or None."""
        if self.inject_until > 0:
            return None
        ticks = self.resolved_inject_until()
        if ticks >= MIN_INJECT_ROUNDS * self.sync_interval:
            return None
        return (
            f"the automatic drain window leaves injection {ticks} of "
            f"{self.duration} ticks, fewer than {MIN_INJECT_ROUNDS} gossip "
            f"rounds; set inject_until or a longer duration"
        )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _FIELDS}


# field -> its annotated type, a name string under postponed evaluation
_FIELDS = ScenarioConfig.__annotations__


def _cast(attr: str, value: str):
    kind = _FIELDS[attr]
    try:
        if kind == "bool":
            low = value.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(value)
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        return value
    except ValueError:
        raise ConfigError(
            f"bad value {value!r} for key '{attr}' (expected {kind})"
        ) from None


def apply_setting(config: ScenarioConfig, key: str, value: str) -> None:
    # a dotted config-file key adversary.x sets the flat field adversary_x
    attr = key.replace("adversary.", "adversary_", 1)
    if attr not in _FIELDS:
        raise ConfigError(f"unknown config key '{key}'")
    setattr(config, attr, _cast(attr, value))


def parse_config(text: str) -> ScenarioConfig:
    config = ScenarioConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key, _, value = line.partition("=")
        try:
            apply_setting(config, key.strip(), value.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return config


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
