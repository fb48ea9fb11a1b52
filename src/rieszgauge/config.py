"""Run configuration: value space, measure generator, regulator, probes,
seed, and the small text formats the command line accepts.

Config files are flat INI-style key/value sections; every value can be
overridden by a flag.  See the README for the full format.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field, replace

from .domain import BorelSet, MeasureSpec
from .errors import NotDisjoint, PiecesOverlap, RieszGaugeError
from .integrands import (ConstantIntegrand, Integrand, SimpleIntegrand,
                         named_integrand)
from .regulators import (AffineMap, ConstantMap, ExponentialMap, Geometric,
                         IdentityMap, IndexMap, Regulator, standard_probes,
                         zero_regulator)
from .setvalued import (ConstantSet, IntervalValued, Multifunction,
                        OrderInterval, SimpleSet)
from .values import RieszValue, Scalar, SparseSeq, Vector, ones_like


class SpecError(RieszGaugeError):
    """A malformed textual spec; the message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    value_space: str = "scalar"
    m0: RieszValue = field(default_factory=lambda: Scalar(1.0))
    regulator: Regulator = field(
        default_factory=lambda: Geometric(Scalar(1.0), 0.5, 0.5))
    probes: tuple[IndexMap, ...] = field(default_factory=standard_probes)
    seed: int = 0

    def measure_spec(self) -> MeasureSpec:
        return MeasureSpec(self.m0)

    def unit(self) -> RieszValue:
        """The all-ones element of the configured value lattice."""
        if self.value_space == "scalar":
            return Scalar(1.0)
        if self.value_space.startswith("vector"):
            return Vector((1.0,) * _vector_dim(self.value_space))
        return SparseSeq({1: 1.0})

    def regulator_unit(self) -> RieszValue:
        """The element that regulator bases scale: :meth:`unit` joined with
        ones on the support of ``m0``, so that every coordinate the measure
        charges gets a positive envelope."""
        return self.unit().join(ones_like(self.m0))


def _vector_dim(space: str) -> int:
    try:
        d = int(space.split(":", 1)[1])
    except (IndexError, ValueError):
        raise SpecError(f"value_space {space!r} needs the form vector:<dim>")
    if d < 1:
        raise SpecError("vector dimension must be positive")
    return d


def parse_value(text: str, space: str) -> RieszValue:
    """A lattice value in the configured space: a number for scalars, a JSON
    list for vectors, a JSON object of index->value for c00; every coordinate
    must be finite."""
    text = text.strip()
    try:
        if space == "scalar":
            return _finite(Scalar(float(text)), text)
        if space.startswith("vector"):
            values = json.loads(text)
            if not isinstance(values, list):
                raise ValueError
            v = Vector(values)
            if v.dim != _vector_dim(space):
                raise SpecError(
                    f"value {text!r} has dimension {v.dim}, expected "
                    f"{_vector_dim(space)}")
            return _finite(v, text)
        if space == "c00":
            entries = json.loads(text)
            return _finite(
                SparseSeq({int(k): float(x) for k, x in entries.items()}), text)
    except SpecError:
        raise
    except (ValueError, AttributeError, TypeError):
        pass
    raise SpecError(f"cannot parse value {text!r} for space {space!r}")


def _finite(v: RieszValue, text: str) -> RieszValue:
    if not all(math.isfinite(x) for _, x in v.nonzero_coords()):
        raise SpecError(f"value {text!r} is not finite")
    return v


def parse_regulator(text: str, unit: RieszValue) -> Regulator:
    """``geometric:<base>:<row_scale>:<col_scale>`` (base scales the space's
    unit) or ``zero``."""
    text = text.strip()
    if text == "zero":
        return zero_regulator(unit)
    parts = text.split(":")
    if parts[0] == "geometric" and len(parts) == 4:
        try:
            base, row, col = (float(p) for p in parts[1:])
            return Geometric(unit.scale(base), row, col)
        except ValueError as exc:
            raise SpecError(f"bad regulator spec {text!r}: {exc}")
    raise SpecError(f"unknown regulator spec {text!r}")


def parse_probes(text: str) -> tuple[IndexMap, ...]:
    """``std`` or a comma list of const:<c>, identity, affine:<a>:<b>, exp."""
    text = text.strip()
    if text in ("std", "standard"):
        return standard_probes()
    probes: list[IndexMap] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        try:
            if parts[0] == "const" and len(parts) == 2:
                probes.append(ConstantMap(int(parts[1])))
            elif parts[0] == "identity":
                probes.append(IdentityMap())
            elif parts[0] == "affine" and len(parts) == 3:
                probes.append(AffineMap(int(parts[1]), int(parts[2])))
            elif parts[0] in ("exp", "exponential"):
                probes.append(ExponentialMap())
            else:
                raise ValueError("unknown probe")
        except ValueError:
            raise SpecError(f"bad probe spec {item!r}")
    if not probes:
        raise SpecError("the probe list is empty")
    return tuple(probes)


def parse_set(text: str) -> BorelSet:
    """A union of closed intervals: ``[0,0.5]`` or ``[0,0.25]+[0.5,1]``."""
    pairs = []
    for chunk in text.replace(" ", "").split("+"):
        if not (chunk.startswith("[") and chunk.endswith("]")):
            raise SpecError(f"bad interval {chunk!r} in set spec {text!r}")
        try:
            lo, hi = (float(x) for x in chunk[1:-1].split(","))
        except ValueError:
            raise SpecError(f"bad interval {chunk!r} in set spec {text!r}")
        pairs.append([lo, hi])
    try:
        return BorelSet.from_pairs(pairs)
    except ValueError as exc:
        raise SpecError(f"bad set spec {text!r}: {exc}")


def _split_fields(text: str) -> list[str]:
    """``text`` split at the commas outside ``[]`` and ``{}``, so that a
    field may hold a JSON vector or c00 value."""
    fields = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch == "," and depth == 0:
            fields.append(text[start:i])
            start = i + 1
    fields.append(text[start:])
    return fields


def parse_integrand(text: str, config: RunConfig) -> Integrand:
    """``const:<value>``, a named form (t, one_minus_t, half_t, neg_t,
    square), ``simple:<lo>,<hi>,<value>;...``, or ``counterexample``."""
    text = text.strip()
    if text.startswith("const:"):
        return ConstantIntegrand(parse_value(text[6:], config.value_space))
    if text.startswith("simple:"):
        pieces = []
        for chunk in text[7:].split(";"):
            fields = _split_fields(chunk)
            if len(fields) != 3:
                raise SpecError(
                    f"simple piece {chunk!r} needs lo,hi,value")
            try:
                part = BorelSet.from_pairs([[float(fields[0]),
                                             float(fields[1])]])
            except ValueError as exc:
                raise SpecError(f"bad bounds in simple piece {chunk!r}: {exc}")
            value = parse_value(fields[2], config.value_space)
            pieces.append((part, value))
        try:
            return SimpleIntegrand(tuple(pieces))
        except NotDisjoint as exc:
            raise SpecError(f"bad simple integrand spec: {exc}")
    try:
        return named_integrand(text, config.unit())
    except ValueError:
        raise SpecError(f"unknown integrand {text!r}")


def parse_multifunction(text: str, config: RunConfig) -> Multifunction:
    """``const:<lo>,<hi>``, ``simple:<json list of {set, lo, hi}>``, or
    ``interval:<lower>,<upper>`` naming two built-in integrands."""
    text = text.strip()
    if text.startswith("const:"):
        body = text[6:]
        parts = _split_fields(body)
        if len(parts) != 2:
            raise SpecError(f"constant multifunction {body!r} needs lo,hi")
        lo = parse_value(parts[0], config.value_space)
        hi = parse_value(parts[1], config.value_space)
        try:
            return ConstantSet(OrderInterval(lo, hi))
        except ValueError as exc:
            raise SpecError(f"bad constant multifunction {body!r}: {exc}")
    if text.startswith("simple:"):
        try:
            raw = json.loads(text[7:])
            pieces = []
            for item in raw:
                part = BorelSet.from_pairs(item["set"])
                lo = parse_value(json.dumps(item["lo"]), config.value_space)
                hi = parse_value(json.dumps(item["hi"]), config.value_space)
                pieces.append((part, OrderInterval(lo, hi)))
            return SimpleSet(tuple(pieces))
        except (ValueError, KeyError, TypeError, PiecesOverlap) as exc:
            raise SpecError(f"bad simple multifunction spec: {exc}")
    if text.startswith("interval:"):
        names = text[9:].split(",")
        if len(names) != 2:
            raise SpecError("interval multifunction needs two integrand names")
        lower = parse_integrand(names[0], config)
        upper = parse_integrand(names[1], config)
        try:
            return IntervalValued(lower, upper)
        except ValueError as exc:
            raise SpecError(f"bad interval multifunction: {exc}")
    raise SpecError(f"unknown multifunction spec {text!r}")


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional INI file plus flag overrides."""
    raw: dict[str, str] = {}
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        try:
            read = parser.read(path)
        except (configparser.Error, UnicodeError) as exc:
            raise SpecError(f"config file {path!r}: "
                            + str(exc).splitlines()[0])
        if not read:
            raise SpecError(f"config file {path!r} not found")
        for section in parser.sections():
            for key, value in parser.items(section):
                raw[key] = value
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    space = raw.get("value_space", "scalar")
    if space != "scalar" and not space.startswith("vector") and space != "c00":
        raise SpecError(f"unknown value_space {space!r}")
    if space.startswith("vector"):
        _vector_dim(space)
    config = RunConfig(value_space=space)
    if "m0" in raw:
        config = replace(config, m0=parse_value(raw["m0"], space))
        try:
            config.measure_spec()
        except ValueError as exc:
            raise SpecError(f"bad m0 {raw['m0']!r}: {exc}")
    else:
        config = replace(config, m0=config.unit())
    if "regulator" in raw:
        config = replace(config,
                         regulator=parse_regulator(raw["regulator"],
                                                   config.regulator_unit()))
    else:
        config = replace(config,
                         regulator=Geometric(config.regulator_unit(), 0.5, 0.5))
    if "probes" in raw:
        config = replace(config, probes=parse_probes(raw["probes"]))
    if "seed" in raw:
        try:
            config = replace(config, seed=int(raw["seed"]))
        except ValueError:
            raise SpecError(f"bad seed value {raw['seed']!r}")
    return config
