"""Report records and deterministic serialization.

JSON reports carry every float with up to 17 significant digits (the
``%.17g`` rendering round-trips binary64 exactly), keys in fixed
insertion order, and no timestamps unless timing was explicitly
requested, so identical inputs produce byte-identical output.  CSV
sweeps use RFC-4180-style quoting with LF line endings and the fixed
column set :data:`SWEEP_COLUMNS`.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
from dataclasses import dataclass, field, fields

import numpy as np

SWEEP_COLUMNS = ["family", "t", "k", "param", "n", "m", "rho", "threshold",
                 "gap", "lambda2_cert", "seconds"]


def format_float(x: float) -> str:
    return f"{x:.17g}"


def dumps_json(obj) -> str:
    """Deterministic JSON with %.17g floats and 2-space indentation."""
    out = _io.StringIO()
    _write_json(obj, out, 0)
    out.write("\n")
    return out.getvalue()


def _write_json(obj, out, depth):
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if obj is None:
        out.write("null")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(format_float(float(obj)))
    elif isinstance(obj, complex):
        _write_json({"re": obj.real, "im": obj.imag}, out, depth)
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.write(f"{inner}{json.dumps(str(key))}: ")
            _write_json(val, out, depth + 1)
            out.write(",\n" if i + 1 < len(obj) else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.write("[]")
            return
        out.write("[\n")
        for i, val in enumerate(seq):
            out.write(inner)
            _write_json(val, out, depth + 1)
            out.write(",\n" if i + 1 < len(seq) else "\n")
        out.write(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def vector_sha256(x: np.ndarray) -> str:
    """Digest of the canonical binary encoding of a certificate vector."""
    arr = np.asarray(x)
    dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype).tobytes()
                          ).hexdigest()


def text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class SpectralReport:
    """Serializable record of a spectral computation."""

    input: dict
    t: int
    n: int
    m: int
    regular_k: int | None = None
    rho: float | None = None
    lambda2_estimate: float | None = None
    threshold: float | None = None
    certificates: list = field(default_factory=list)
    solver: dict | None = None
    wall_time_seconds: float | None = None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return dumps_json(self.to_dict())


def certificate_entry(cert) -> dict:
    """Report stanza for a certificate: kind, quotient, slack, vector hash.

    The quotient is recomputable from the stored construction parameters
    plus the vector digest.
    """
    meta = cert.metadata
    entry = {
        "kind": cert.bound_kind,
        "quotient": cert.quotient,
        "slack": meta.get("analytic_slack"),
        "analytic_floor": meta.get("analytic_floor"),
        "vector_sha256": vector_sha256(cert.vector),
    }
    for key in ("origin", "radius", "k", "s", "d", "centers", "j",
                "member_quotients", "min_separation", "diameter"):
        if key in meta:
            entry[key] = meta[key]
    return entry


def emit_sweep_csv(rows: list[dict]) -> str:
    """Header plus rows in the fixed sweep schema, deterministic order."""
    out = _io.StringIO()
    writer = csv.writer(out, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        rendered = []
        for col in SWEEP_COLUMNS:
            val = row.get(col)
            if val is None:
                rendered.append("")
            elif isinstance(val, float):
                rendered.append(format_float(val))
            else:
                rendered.append(str(val))
        writer.writerow(rendered)
    return out.getvalue()
