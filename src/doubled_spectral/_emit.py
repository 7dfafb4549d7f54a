"""Deterministic JSON/CSV emission: floats at 17 significant digits
(lossless for IEEE doubles), '.' decimal separator, insertion-ordered keys.
Identical inputs produce identical bytes."""

from __future__ import annotations

import json
import math


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def to_json(obj, indent: int = 0) -> str:
    """Render a nested structure of dict/list/str/bool/None/int/float."""
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {to_json(v, indent + 2)}'
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rendered = [to_json(v, indent + 2) for v in obj]
        if all(len(r) < 24 and "\n" not in r for r in rendered):
            return "[" + ", ".join(rendered) + "]"
        inner = ",\n".join(pad + "  " + r for r in rendered)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(v) -> str:
    """One CSV field.  A list is one field: its elements' fields joined by
    ';'."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_float(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, (list, tuple)):
        s = ";".join(_csv_cell(x) for x in v)
    else:
        s = str(v)
    if any(c in s for c in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def to_csv(header, rows) -> str:
    lines = [",".join(_csv_cell(h) for h in header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"
