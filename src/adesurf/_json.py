"""Canonical JSON emission and schema-checked loading.

Output rules: object keys sorted, compact separators, one trailing
newline, rationals as "p/q" strings, integers as JSON numbers only inside
the 53-bit safe range (strings beyond), lists of classes in coefficient
order.  Two runs on equal inputs produce byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import SchemaError

SAFE_INT = (1 << 53) - 1


def encode_int(v: int):
    return v if abs(v) <= SAFE_INT else str(v)


def encode_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def jsonable(obj):
    """Recursively convert package values into JSON-serializable data."""
    if isinstance(obj, (list, tuple)):
        # coefficient tuples are the bulk of large outputs (17 280 classes in
        # the orbit of h on dP8): one scan instead of a call per entry
        if all(type(v) is int and -SAFE_INT <= v <= SAFE_INT for v in obj):
            return list(obj)
        return [jsonable(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return encode_int(obj)
    if isinstance(obj, Fraction):
        return encode_fraction(obj)
    if isinstance(obj, float):
        raise TypeError("refusing to serialize a float; this package is exact")
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    raise TypeError(f"no JSON encoding for {type(obj).__name__}")


def dumps(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":")) + "\n"


def parse_document(text: str, source: str = "<input>"):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{source}:{exc.lineno}:{exc.colno}", f"JSON parse error: {exc.msg}"
        ) from None


def parse_rational(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(path, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if "/" in value:
                num, den = value.split("/", 1)
                return Fraction(int(num), int(den))
            return Fraction(int(value))
        except (ValueError, ZeroDivisionError):
            raise SchemaError(path, f"malformed rational {value!r}") from None
    raise SchemaError(path, f"expected a rational, got {type(value).__name__}")


def parse_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool):
        raise SchemaError(path, "expected an integer, got a boolean")
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            raise SchemaError(path, f"malformed integer {value!r}") from None
    if not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"value {value} below minimum {minimum}")
    return value


def require(doc: dict, key: str, path: str = ""):
    where = f"{path}.{key}" if path else key
    if not isinstance(doc, dict):
        raise SchemaError(path or "<root>", "expected an object")
    if key not in doc:
        raise SchemaError(where, "missing required field")
    return doc[key]
