"""Deterministic table emission: CSV with LF endings, exact rationals as
num/den, a manifest comment line carrying the seed and parameters so that
identical manifests give byte-identical files."""

import re
import sys
from fractions import Fraction

# an integer numerator over an optional nonzero denominator
RATIONAL = re.compile(r"[+-]?\d+(/0*[1-9]\d*)?")


def render_cell(x):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return ""
    return str(x)


def emit_table(rows, schema, path, manifest=None):
    """Write rows (iterables matching schema) as CSV; '-' writes to stdout."""
    lines = []
    if manifest:
        items = " ".join(f"{k}={render_cell(v)}" for k, v in sorted(manifest.items()))
        lines.append(f"# {items}")
    lines.append(",".join(schema))
    for row in rows:
        cells = list(row)
        if len(cells) != len(schema):
            raise ValueError(f"row arity {len(cells)} != schema arity {len(schema)}")
        lines.append(",".join(render_cell(c) for c in cells))
    data = "\n".join(lines) + "\n"
    if path == "-" or path is None:
        sys.stdout.write(data)
    else:
        try:
            with open(path, "w", newline="") as fh:
                fh.write(data)
        except OSError as e:
            raise OSError(f"cannot write table to {path}: {e}") from e


def json_object(obj, name, keys, lists=()):
    """obj, once it is a JSON object holding every key in keys, the values of
    those in lists being JSON lists; otherwise a one-line ValueError that
    names the key."""
    if not isinstance(obj, dict):
        raise ValueError(f"a {name} must be a JSON object")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"the {name} lacks {', '.join(missing)}")
    for key in lists:
        if not isinstance(obj[key], list):
            raise ValueError(f"the {name}'s {key} must be a JSON list")
    return obj


def int_rows(value, name):
    """value, a JSON list, once it is a list of rows of JSON integers;
    otherwise a one-line ValueError that names it."""
    if not all(isinstance(row, list) for row in value):
        raise ValueError(f"{name} must be a list of rows")
    for x in (x for row in value for x in row):
        if type(x) is not int:
            raise ValueError(f"{name} must hold JSON integers, not {x!r}")
    return value


def parse_rational(value, name):
    """An int, or a "num" or "num/den" string with den != 0, as a Fraction;
    anything else is a one-line ValueError that names the value."""
    if type(value) is int or isinstance(value, str) and RATIONAL.fullmatch(value):
        return Fraction(value)
    raise ValueError(f"{name} must be an integer or a num/den string with a "
                     f"nonzero den, not {value!r}")
