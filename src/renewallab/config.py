"""JSON experiment descriptors: loading, validation, object construction.

A descriptor is a plain JSON object.  Every command shares the chain block

    {"chain": {"law": {"type": "zeta", "degree": 1.0}, "truncation": 20000}}

and adds its own parameters (grids, seeds, windows, tolerances).  Law types:

    {"type": "geometric", "q": 0.5}
    {"type": "zeta", "degree": 1.0, "log_power": 0.0}
    {"type": "finite", "probs": [0.5, 0.5]}
    {"type": "custom", "probs": [0.5, 0.3, 0.1], "tail_exponent": 3.5,
     "tail_log_power": 0.0}

``finite`` and ``custom`` build the explicit-prefix law ``FiniteLaw``:
``p_k = probs_k`` for ``k <= K``, and with a tail exponent ``s`` the leftover
mass ``1 - sum(probs)`` is a realized tail ``c k^-s log(k+1)^tail_log_power``
past ``K``, of amplitude ``c``; ``zeta`` is its case with an empty prefix.
Exit 2: a declared tail with no mass left (NotNormalized), an exponent
``s <= 1`` or a negative log power (ZeroProbabilityBranch), and a nonzero
log power without a tail exponent (ConfigError).

Initial measures: {"kind": "point", "state": 1}, {"kind": "stationary"},
or {"kind": "weights", "weights": [...], "tail_mass": 0.0}.  Observables:
{"kind": "indicator", "states": [1], "size": 400}, {"kind": "ones",
"size": 400}, or {"kind": "values", "values": [...], "limit": 0.0}.
Grids: {"points": [10, 100]} or {"lo": 10, "hi": 10000, "count": 30}; a
grid key is read straight to its strictly increasing list of integers.

A schema declares every key once: a :class:`Leaf` carries the key's reader
and default, a nested mapping is a block, and a :class:`Kinds` is a block
whose keys depend on a tag (a law's ``type``, a measure's or observable's
``kind``).  One :func:`read` call checks a whole descriptor before any
computation starts: an unknown key anywhere, in nested blocks too, raises
:class:`UnknownConfigKey` naming its dotted path (``nu.stat``,
``chain.law.q``); a missing key or a value of the wrong type, or a size or
index above :data:`~renewallab.chain.MAX_TRUNCATION`, raises
:class:`ConfigError`.  The builders below take the block :func:`read`
returned, with every value converted and every default filled in.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections import ChainMap
from typing import Callable, NamedTuple

from .chain import MAX_TRUNCATION, FiniteLaw, GeometricLaw, ZetaTailLaw, build_chain
from .errors import ConfigError, UnknownConfigKey
from .evolve import log_grid
from .measures import from_weights, indicator, ones, point_mass, stationary
from .measures import Observable
from .series import _whole

__all__ = [
    "load_config", "config_hash", "Leaf", "Kinds", "REQUIRED", "read",
    "integer", "bounded", "real", "number", "string", "list_of", "interval",
    "complex_points", "chain_from_config", "measure_from_config",
    "observable_from_config",
]


def load_config(path) -> dict:
    """Read a JSON descriptor, UTF-8 encoded as RFC 8259 asks; all failures
    surface as config errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} nests too deeply to read") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def config_hash(cfg: dict) -> str:
    """Stable short hash of a descriptor, for output sidecars."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Readers: ``reader(value, dotted_path)`` checks one JSON value and
# returns it converted.  A number is never a bool, NaN, infinite or past 1.8e308.
# ----------------------------------------------------------------------

def _is(value, types) -> bool:
    return (isinstance(value, types) and not isinstance(value, bool)
            and (isinstance(value, str) or abs(value) <= sys.float_info.max))


def _scalar(types, what: str, convert=None):
    def reader(value, here: str):
        if not _is(value, types):
            raise ConfigError(f"config key {here!r} must be {what}")
        return value if convert is None else convert(value)
    return reader


#: an integer
integer = _scalar(int, "an integer")
#: a finite number, kept as given (an integer stays one)
real = _scalar((int, float), "a finite number")
#: a finite number, converted to float
number = _scalar((int, float), "a finite number", float)
#: a string
string = _scalar(str, "a string")


def bounded(value, here: str) -> int:
    """A size or an index: an integer in ``[0, MAX_TRUNCATION]``, so that
    nothing sized by it is allocated before it is refused."""
    if not 0 <= integer(value, here) <= MAX_TRUNCATION:
        raise ConfigError(f"config key {here!r} must be an integer in [0, {MAX_TRUNCATION}]")
    return value


def list_of(element, nonempty: bool = False):
    """A list whose entries each pass ``element``; with ``nonempty``, at
    least one."""
    def reader(value, here: str) -> list:
        if not isinstance(value, list) or (nonempty and not value):
            kind = "a nonempty list" if nonempty else "a list"
            raise ConfigError(f"config key {here!r} must be {kind}")
        return [element(v, f"{here}[{k}]") for k, v in enumerate(value)]
    return reader


def interval(kind: type):
    """A ``[lo, hi]`` pair of finite numbers with ``lo < hi``, converted to
    ``kind``; an ``int`` pair refuses ends that are not whole numbers."""
    def reader(value, here: str) -> tuple:
        if not (
            isinstance(value, list) and len(value) == 2
            and all(_is(v, (int, float)) for v in value)
            and value[0] < value[1]
        ):
            raise ConfigError(f"config key {here!r} must be [lo, hi] with lo < hi")
        if kind is int:  # the whole-number rule, not int()'s truncation
            return tuple(_whole(v, f"config key {here!r}", ConfigError) for v in value)
        return kind(value[0]), kind(value[1])
    return reader


def complex_points(value, here: str) -> list:
    """A nonempty list of finite real numbers or ``[re, im]`` pairs."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config key {here!r} must be a nonempty list")
    out = []
    for k, item in enumerate(value):
        pair = item if isinstance(item, list) and len(item) == 2 else [item, 0.0]
        if not all(_is(v, (int, float)) for v in pair):
            raise ConfigError(f"{here}[{k}] must be a finite real number or an [re, im] pair")
        out.append(complex(float(pair[0]), float(pair[1])))
    return out


# ----------------------------------------------------------------------
# Schemas and the one reading pass
# ----------------------------------------------------------------------

#: default of a key that must be present
REQUIRED = object()


class Leaf(NamedTuple):
    """A key that holds a value: ``read(value, dotted_path)`` checks and
    converts it, ``default`` stands in when it is absent (:data:`REQUIRED`:
    it must be present), and with ``nullable`` a JSON ``null`` means absent
    too."""

    read: Callable
    default: object = REQUIRED
    nullable: bool = False


class Kinds(NamedTuple):
    """Schema of a block whose allowed keys depend on its string ``tag``
    key: ``kinds`` maps each valid tag value to the schema of its other
    keys.  Without the tag, keys no kind allows are still rejected."""

    tag: str
    kinds: dict


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _known(cfg, allowed, path: str) -> None:
    """Reject a non-object ``cfg`` and any key outside ``allowed``."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config key {path!r} must be an object")
    for key in cfg:
        if key not in allowed:
            raise UnknownConfigKey(
                f"unknown config key {_join(path, key)!r}; allowed here: {sorted(allowed)}"
            )


def read(cfg, schema, path: str = "") -> dict:
    """``cfg`` checked against ``schema`` (a name -> :class:`Leaf`, nested
    schema or :class:`Kinds` mapping, or a :class:`Kinds`): every key known,
    every value read, every default filled in.  An unknown tag value
    raises :class:`ConfigError` listing the valid ones."""
    if isinstance(schema, Kinds):
        tag, kinds = schema
        here = _join(path, tag)
        kind = string(cfg[tag], here) if isinstance(cfg, dict) and tag in cfg else None
        if kind is not None and kind not in kinds:
            raise ConfigError(f"config key {here!r} must be one of {sorted(kinds)}")
        schema = {tag: Leaf(string), **(kinds[kind] if kind else ChainMap(*kinds.values()))}
    _known(cfg, schema, path)
    out = {}
    for key, sub in schema.items():
        here = _join(path, key)
        leaf = isinstance(sub, Leaf)
        if key in cfg and not (leaf and sub.nullable and cfg[key] is None):
            out[key] = sub.read(cfg[key], here) if leaf else read(cfg[key], sub, here)
        elif leaf and sub.default is not REQUIRED:
            out[key] = sub.default
        else:
            raise ConfigError(f"missing required config key {here!r}")
    return out


# ----------------------------------------------------------------------
# Builders: each takes a block as :func:`read` returned it
# ----------------------------------------------------------------------

LAW_SCHEMA = Kinds("type", {
    "geometric": {"q": Leaf(real)},
    "zeta": {"degree": Leaf(real), "log_power": Leaf(number, 0.0)},
    "finite": {"probs": Leaf(list_of(number))},
    "custom": {"probs": Leaf(list_of(number)), "tail_exponent": Leaf(number, math.inf),
               "tail_log_power": Leaf(number, 0.0)},
})
#: schema of the shared chain block
CHAIN_SCHEMA = {"law": LAW_SCHEMA, "truncation": Leaf(integer)}


def chain_from_config(cfg: dict, truncation_override=None):
    """The chain of a read descriptor's ``chain`` block; ``truncation_override``
    replaces its truncation."""
    block = cfg["chain"]
    spec = block["law"]
    if spec["type"] == "geometric":
        law = GeometricLaw(spec["q"])
    elif spec["type"] == "zeta":
        law = ZetaTailLaw(spec["degree"], spec["log_power"])
    else:  # the keys of a finite or custom law are FiniteLaw's arguments
        law = FiniteLaw(**{key: v for key, v in spec.items() if key != "type"})
    truncation = block["truncation"]
    if truncation_override is not None:
        truncation = int(truncation_override)
    return build_chain(law, truncation)


MEASURE_SCHEMA = Kinds("kind", {
    "point": {"state": Leaf(bounded)},
    # the stationary law's size defaults to the chain's truncation
    "stationary": {"size": Leaf(bounded, None)},
    "weights": {"weights": Leaf(list_of(number)), "tail_mass": Leaf(number, 0.0)},
})


def measure_from_config(block: dict, chain):
    """The initial measure of a read ``nu`` block, on ``chain``'s prefix."""
    kind = block["kind"]
    if kind == "point":
        return point_mass(chain.within(block["state"], "nu.state"), size=chain.truncation)
    if kind == "stationary":
        return stationary(chain, size=block["size"])
    return from_weights(block["weights"], tail_mass=block["tail_mass"])


OBSERVABLE_SCHEMA = Kinds("kind", {
    "indicator": {"states": Leaf(list_of(bounded)), "size": Leaf(bounded)},
    "ones": {"size": Leaf(bounded)},
    "values": {"values": Leaf(list_of(number)), "limit": Leaf(number, 0.0)},
})


def observable_from_config(block: dict) -> Observable:
    """The observable of a read ``u`` or ``v`` block."""
    kind = block["kind"]
    if kind == "indicator":
        return indicator(block["states"], block["size"])
    if kind == "ones":
        return ones(block["size"])
    return Observable([0.0] + block["values"], limit=block["limit"])


def _increasing(value, here: str) -> list:
    """A nonempty, strictly increasing list of sizes."""
    pts = list_of(bounded)(value, here)
    if not pts or any(b <= a for a, b in zip(pts, pts[1:])):
        raise ConfigError(f"{here} must be strictly increasing")
    return pts


_POINTS = {"points": Leaf(_increasing)}
_LOG_SPACED = {"lo": Leaf(bounded), "hi": Leaf(bounded), "count": Leaf(bounded, 30)}


def _grid(value, here: str) -> list:
    """The strictly increasing integer grid of explicit ``points``, or of a
    log-spaced ``lo``/``hi``/``count`` block with ``1 <= lo <= hi`` and
    ``count >= 1``."""
    _known(value, {**_POINTS, **_LOG_SPACED}, here)
    if "points" in value:
        return read(value, _POINTS, here)["points"]
    block = read(value, _LOG_SPACED, here)
    if not (1 <= block["lo"] <= block["hi"] and block["count"] >= 1):
        raise ConfigError(f"{here} must have 1 <= lo <= hi and count >= 1")
    return [int(v) for v in log_grid(block["lo"], block["hi"], block["count"])]


#: a grid key, read in either form to its integer grid
GRID = Leaf(_grid)
