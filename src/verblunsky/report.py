"""Machine-readable run reports with a small versioned JSON schema.

Exact quantities (integers, Fractions) are rendered as JSON integers or
``"num/den"`` strings so no precision is lost; floating-point diagnostics
stay floats and live in clearly float-valued fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

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
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @property
    def exit_code(self) -> int:
        return 1 if self.status == FAIL else 0
