"""Shared numerics, reproducibility helpers and the config reader.

Randomness policy: every stochastic operation derives its stream from a
counter-based Philox generator keyed by (seed, *indices).  Streams for
different indices are statistically independent and order-independent.

Config values are read once, by ``_read``, against a schema of kinds; a
kind carries a single key's range (a word key's range is its tuple of
words, and a tagged object's key set is picked by its tag), so the code
after it takes typed values as they come and checks only relations
between values.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the sub-stream identified by (seed, *key)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def frozen_array(values, dtype=float) -> np.ndarray:
    """Copy to a contiguous read-only array."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def json_ready(obj):
    """Recursively convert arrays and numpy scalars for json.dumps."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, repr-exact floats, newline-terminated."""
    return json.dumps(json_ready(obj), sort_keys=True, indent=2) + "\n"


def format_float(x: float) -> str:
    """Shortest round-tripping decimal form, stable across runs."""
    return repr(float(x))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Plain CSV writer with deterministic float formatting."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                format_float(c) if isinstance(c, (float, np.floating)) else str(c)
                for c in row
            ]
            fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# Config schemas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    """A JSON object: the kind of each key it may have, and the keys it must."""

    kinds: dict
    required: tuple = ()


@dataclass(frozen=True)
class OneOf:
    """A JSON object whose tag, the word at key, picks its Block."""

    blocks: dict
    key: str = "kind"


def _number(value):
    # Compared as exact values: nan, infinities and ints past the float range fail.
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max:
        return float(value)


def _integer(value):
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value if isinstance(value, int) and not isinstance(value, bool) else None


def _ranged(read, inside):
    """A reader: read's typed value when inside holds for it, else None."""
    def ranged(value):
        typed = read(value)
        return typed if typed is not None and inside(typed) else None
    return ranged


def _array(value, depth: int):
    """Nested lists of numbers, depth deep and none empty, as a float array."""
    try:
        cells = np.array(value, dtype=object)  # a ragged list stops short of depth
    except ValueError:
        return None
    if isinstance(value, list) and cells.ndim == depth and cells.size \
            and all(_number(x) is not None for x in cells.flat):
        return cells.astype(float)


def _box(value):
    box = _array(value, 2)
    if box is not None and box.shape[1] == 2 and (box[:, 0] <= box[:, 1]).all():
        return box


# kind: (what a value must be, reader returning the typed value or None)
_KINDS = {
    "number": ("a finite number", _number),
    "positive": ("a number above 0", _ranged(_number, lambda x: x > 0)),
    "nonnegative": ("a number at least 0", _ranged(_number, lambda x: x >= 0)),
    "fraction": ("a number in (0, 1)", _ranged(_number, lambda x: 0 < x < 1)),
    "integer": ("an integer", _integer),
    "natural": ("an integer at least 0", _ranged(_integer, lambda x: x >= 0)),
    "count": ("an integer at least 1", _ranged(_integer, lambda x: x >= 1)),
    "plural": ("an integer at least 2", _ranged(_integer, lambda x: x >= 2)),
    "flag": ("true or false", lambda v: v if isinstance(v, bool) else None),
    "text": ("text", lambda v: v if isinstance(v, str) else None),
    "vector": ("a non-empty list of numbers", lambda v: _array(v, 1)),
    "box": ("a list of [lo, hi] number pairs with lo <= hi", _box),
    "matrix": ("a list of lists of numbers", lambda v: _array(v, 2)),
    "tensor": ("a list of lists of lists of numbers", lambda v: _array(v, 3)),
}


def _read(value, kind, path: str = ""):
    """value read as kind (a _KINDS name, a tuple of words, Block or OneOf)
    at dotted path.

    A tuple reads a value that is one of its words.  A Block reads to a
    dict of its given keys, each read as its kind; every error is a
    ConfigError naming the path.
    """
    where = path or "config"
    if isinstance(kind, tuple):
        if not (isinstance(value, str) and value in kind):
            raise ConfigError(f"{path}: must be one of {', '.join(kind)}, "
                              f"got {value!r}")
        return value
    if isinstance(kind, (Block, OneOf)) and not isinstance(value, dict):
        raise ConfigError(f"{where}: must be an object, got {value!r}")
    if isinstance(kind, OneOf):
        if kind.key not in value:
            raise ConfigError(f"{path}: missing key {kind.key!r}")
        kind = kind.blocks[_read(value[kind.key], tuple(kind.blocks),
                                 f"{path}.{kind.key}")]
    if isinstance(kind, Block):
        for key in value:
            if key not in kind.kinds:
                raise ConfigError(f"{where}: unknown key {key!r}")
        for key in kind.required:
            if key not in value:
                raise ConfigError(f"{where}: missing key {key!r}")
        return {key: _read(item, kind.kinds[key], f"{path}.{key}" if path else key)
                for key, item in value.items()}
    what, read = _KINDS[kind]
    typed = read(value)
    if typed is None:
        raise ConfigError(f"{path}: must be {what}, got {value!r}")
    return typed


def _at(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), a ConfigError it raises prefixed by path."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
