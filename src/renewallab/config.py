"""JSON experiment descriptors: loading, validation, object construction.

A descriptor is a plain JSON object.  Every command shares the chain block

    {"chain": {"law": {"type": "zeta", "degree": 1.0}, "truncation": 20000}}

and adds its own parameters (grids, seeds, windows, tolerances).  Law types:

    {"type": "geometric", "q": 0.5}
    {"type": "zeta", "degree": 1.0, "log_power": 0.0}
    {"type": "finite", "probs": [0.5, 0.5]}
    {"type": "custom", "probs": [...], "tail_exponent": 3.0,
     "tail_log_power": 0.0}

Initial measures: {"kind": "point", "state": 1}, {"kind": "stationary"},
or {"kind": "weights", "weights": [...], "tail_mass": 0.0}.  Observables:
{"kind": "indicator", "states": [1], "size": 400}, {"kind": "ones",
"size": 400}, or {"kind": "values", "values": [...], "limit": 0.0}.

Validation is strict: an unknown key anywhere, in nested blocks too,
raises :class:`UnknownConfigKey` naming its dotted path (``nu.stat``,
``chain.law.q``).  A block whose keys depend on a tag (a law's ``type``, a
measure's or observable's ``kind``) is described by a :class:`Kinds` schema,
so one :func:`check_keys` call checks a whole descriptor before any
computation starts.
"""

from __future__ import annotations

import hashlib
import json
from collections import ChainMap
from typing import NamedTuple

from .chain import FiniteLaw, GeometricLaw, ZetaTailLaw, build_chain
from .errors import ConfigError, UnknownConfigKey
from .measures import from_weights, indicator, ones, point_mass, stationary
from .measures import Observable

__all__ = [
    "load_config",
    "Kinds",
    "check_keys",
    "config_hash",
    "chain_from_config",
    "measure_from_config",
    "observable_from_config",
    "grid_from_config",
    "require",
    "optional",
    "numbers",
]


def load_config(path) -> dict:
    """Read a JSON descriptor; all failures surface as config errors."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


class Kinds(NamedTuple):
    """Schema of a block whose allowed keys depend on its string ``tag``
    key: ``kinds`` maps each valid tag value to the schema of its other
    keys.  Without the tag, keys no kind allows are still rejected."""

    tag: str
    kinds: dict


def check_keys(d: dict, allowed, path: str = "") -> None:
    """Reject keys outside ``allowed``: a name -> sub-schema mapping, where a
    sub-schema is None for a leaf validated elsewhere, a nested mapping or a
    :class:`Kinds`; an unknown tag value raises :class:`ConfigError`."""
    if not isinstance(d, dict):
        raise ConfigError(f"config key {path!r} must be an object")
    if isinstance(allowed, Kinds):
        tag, kinds = allowed
        kind = require(d, tag, str, path) if tag in d else None
        if kind is not None and kind not in kinds:
            here = f"{path}.{tag}" if path else tag
            raise ConfigError(f"config key {here!r} must be one of {sorted(kinds)}")
        allowed = {tag: None, **(kinds[kind] if kind else ChainMap(*kinds.values()))}
    for key, value in d.items():
        here = f"{path}.{key}" if path else key
        if key not in allowed:
            raise UnknownConfigKey(
                f"unknown config key {here!r}; allowed here: {sorted(allowed)}"
            )
        if allowed[key] is not None:
            check_keys(value, allowed[key], here)


def require(cfg: dict, key: str, kind=None, path: str = ""):
    """Value of a required key, checked against ``kind`` (a type or tuple
    of types).  JSON ``true``/``false`` never pass as numbers."""
    here = f"{path}.{key}" if path else key
    if key not in cfg:
        raise ConfigError(f"missing required config key {here!r}")
    value = cfg[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        names = kind if isinstance(kind, type) else kind[0]
        raise ConfigError(f"config key {here!r} must be of type {names.__name__}")
    return value


def optional(cfg: dict, key: str, kind: type, default, path: str = ""):
    """Value of an optional key: ``default`` when absent, otherwise checked
    as by :func:`require` and converted to ``kind``; a ``float`` key also
    takes integers."""
    if key not in cfg:
        return default
    return kind(require(cfg, key, (float, int) if kind is float else kind, path))


def numbers(cfg: dict, key: str, kind: type = float, path: str = "") -> list:
    """Elements of a required list key, each a JSON number (an integer when
    ``kind`` is ``int``) converted to ``kind``; booleans never pass."""
    raw = require(cfg, key, list, path)
    here = f"{path}.{key}" if path else key
    allowed = int if kind is int else (int, float)
    for k, v in enumerate(raw):
        if isinstance(v, bool) or not isinstance(v, allowed):
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"config key {f'{here}[{k}]'!r} must be {what}")
    return [kind(v) for v in raw]


def config_hash(cfg: dict) -> str:
    """Stable short hash of a descriptor, for output sidecars."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


LAW_SCHEMA = Kinds("type", {
    "geometric": {"q": None},
    "zeta": {"degree": None, "log_power": None},
    "finite": {"probs": None},
    "custom": dict.fromkeys(("probs", "tail_exponent", "tail_log_power")),
})
#: keys allowed in the shared chain block
CHAIN_KEYS = {"law": LAW_SCHEMA, "truncation": None}


def chain_from_config(cfg: dict, truncation_override=None):
    block = require(cfg, "chain", dict)
    check_keys(block, CHAIN_KEYS, "chain")
    law_cfg = require(block, "law", dict, "chain")
    kind = require(law_cfg, "type", str, "chain.law")
    if kind == "geometric":
        law = GeometricLaw(require(law_cfg, "q", (int, float), "chain.law"))
    elif kind == "zeta":
        law = ZetaTailLaw(
            require(law_cfg, "degree", (int, float), "chain.law"),
            optional(law_cfg, "log_power", float, 0.0, "chain.law"),
        )
    else:
        law = FiniteLaw(
            numbers(law_cfg, "probs", float, "chain.law"),
            tail_exponent=optional(law_cfg, "tail_exponent", float, float("inf"),
                                   "chain.law"),
            tail_log_power=optional(law_cfg, "tail_log_power", float, 0.0,
                                    "chain.law"),
        )
    truncation = require(block, "truncation", int, "chain")
    if truncation_override is not None:
        truncation = int(truncation_override)
    return build_chain(law, truncation)


MEASURE_SCHEMA = Kinds("kind", {
    "point": {"state": None},
    "stationary": {"size": None},
    "weights": {"weights": None, "tail_mass": None},
})


def measure_from_config(cfg: dict, chain, size: int, path: str = "nu"):
    check_keys(cfg, MEASURE_SCHEMA, path)
    kind = require(cfg, "kind", str, path)
    if kind == "point":
        return point_mass(require(cfg, "state", int, path), size=size)
    if kind == "stationary":
        return stationary(chain, size=optional(cfg, "size", int, size, path))
    weights = numbers(cfg, "weights", float, path)
    return from_weights(weights, tail_mass=optional(cfg, "tail_mass", float, 0.0, path))


OBSERVABLE_SCHEMA = Kinds("kind", {
    "indicator": {"states": None, "size": None},
    "ones": {"size": None},
    "values": {"values": None, "limit": None},
})


def observable_from_config(cfg: dict, path: str = "u") -> Observable:
    check_keys(cfg, OBSERVABLE_SCHEMA, path)
    kind = require(cfg, "kind", str, path)
    if kind == "indicator":
        return indicator(
            numbers(cfg, "states", int, path), require(cfg, "size", int, path)
        )
    if kind == "ones":
        return ones(require(cfg, "size", int, path))
    values = [0.0] + numbers(cfg, "values", float, path)
    return Observable(values, limit=optional(cfg, "limit", float, 0.0, path))


GRID_KEYS = {"lo": None, "hi": None, "count": None, "points": None}


def grid_from_config(cfg: dict, path: str = "grid"):
    """A strictly increasing integer grid: either explicit ``points`` or a
    log-spaced ``lo``/``hi``/``count`` block."""
    from .evolve import log_grid

    check_keys(cfg, GRID_KEYS, path)
    if "points" in cfg:
        if set(cfg) != {"points"}:
            raise ConfigError(f"{path!r} takes either points or lo/hi/count")
        pts = numbers(cfg, "points", int, path)
        if any(b <= a for a, b in zip(pts, pts[1:])) or not pts:
            raise ConfigError(f"{path}.points must be strictly increasing")
        return pts
    lo = require(cfg, "lo", int, path)
    hi = require(cfg, "hi", int, path)
    count = optional(cfg, "count", int, 30, path)
    return [int(v) for v in log_grid(lo, hi, count)]
