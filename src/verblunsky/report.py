"""Machine-readable run reports with a small versioned JSON schema.

Exact quantities (integers, Fractions) are rendered as JSON integers or
``"num/den"`` strings so no precision is lost; floating-point diagnostics
stay floats and live in clearly float-valued fields.  A report is written by
:func:`_json`, one recursive pass with the bytes of
``json.dumps(payload, indent=2, sort_keys=True)``, whose indented form always
takes the standard library's slower generator-based encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import inf

SCHEMA_VERSION = 1

PASS = "PASS"
FAIL = "FAIL"
EXPERIMENTAL = "EXPERIMENTAL"


def rat_str(x) -> str | None:
    """Exact rational as "num/den" (the denominator is kept even when 1); None stays None."""
    if x is None:
        return None
    f = Fraction(x)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError:  # Python converts no int of over 4300 digits to text by default
        raise ValueError("the exact result has more digits than can be printed") from None


def poly_map(coeffs: dict[int, Fraction]) -> dict[str, str]:
    """Exponent -> coefficient map with string keys and exact string values."""
    return {str(k): rat_str(c) for k, c in sorted(coeffs.items())}


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``; ``indent`` is the newline and indentation
    of the closing bracket.  Dict keys must be str; other types raise TypeError, as there."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (inf, -inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [inner + _json(v, inner) for v in value]
        return f"[{','.join(items)}{indent}]" if items else "[]"
    if isinstance(value, dict):
        for k in value:
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
        items = [f"{inner}{encode_basestring_ascii(k)}: {_json(value[k], inner)}"
                 for k in sorted(value)]
        return f"{{{','.join(items)}{indent}}}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@dataclass
class Report:
    command: str
    params: dict
    results: dict
    status: str
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "params": self.params,
            "results": self.results,
            "status": self.status,
            "diagnostics": self.diagnostics,
        }
        return _json(payload) + "\n"

    @property
    def exit_code(self) -> int:
        return 1 if self.status == FAIL else 0
