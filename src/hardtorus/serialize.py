"""Canonical text encodings for file outputs.

Every float is written with 17 significant digits, which round-trips
IEEE doubles exactly, and JSON objects are emitted with sorted keys, so
identical data always serializes to identical bytes.
"""
from __future__ import annotations

import math


def fmt17(x: float) -> str:
    """17-significant-digit decimal form of a float."""
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17-digit floats, no whitespace."""
    parts: list[str] = []
    _encode(obj, parts)
    return "".join(parts)


def _encode(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(fmt17(obj))
    elif isinstance(obj, str):
        parts.append(_encode_str(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if not first:
                parts.append(",")
            first = False
            parts.append(_encode_str(key))
            parts.append(":")
            _encode(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for k, item in enumerate(obj):
            if k:
                parts.append(",")
            _encode(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _encode_str(s: str) -> str:
    # json.dumps(s, ensure_ascii=False) without the encoder set-up: it
    # escapes quote, backslash and the control characters, and nothing
    # else.  json is imported here because the set-up path reads only
    # fmt17 from this module.
    import json
    return json.encoder.encode_basestring(s)
