"""Edge-list text format.

Comment lines start with ``#`` and blank lines are ignored.  The first
data line is the header ``t n m``; the following m data lines each hold
t whitespace-separated 0-based vertex ids.  Emission is canonical
(header plus lexicographically sorted edges), so parse/emit round-trips
produce byte-identical files.

Canonical text (ASCII digits, single spaces and newlines only: a header
plus m >= 1 lines of t ids, each line ending in a newline) is read with
one tokenization: t and m from the header line, one check of the text
with its digits deleted, which pins every line to its token count, and
one ``np.fromstring`` of the whole text into an int64 array.  The
``(m, t)`` table then goes to the ``Hypergraph`` constructor as it is.
Any other text, and any canonical text with a fault, is read by the
line parser, which checks the header, integer fields and the number of
edge lines.  A header field above ``hypergraph.DEFAULT_SIZE_CAP`` is a
fault at line 1, found before arrays of n or t m entries are allocated.
The edges are validated by the ``Hypergraph`` constructor, and the line
parser maps the first faulty edge to its line, so every error comes
from the line parser.
"""

from __future__ import annotations

import numpy as np

from .errors import EdgeError, ParseError, SizeOverflow
from .hypergraph import Hypergraph, check_size


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse edge-list text into a validated Hypergraph.

    Raises :class:`~hgspec.errors.ParseError` carrying the 1-based line
    number of the first offending line.
    """
    h = _parse_canonical(text)
    return _parse_lines(text) if h is None else h


def _parse_canonical(text: str) -> Hypergraph | None:
    """The hypergraph of canonical text, or None for the line parser."""
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    header = raw[:raw.find(b"\n")].split(b" ")
    if len(header) != 3 or not all(field.isdigit() for field in header):
        return None
    t, n, m = map(int, header)
    # a skeleton line of s spaces holds at most s + 1 ids, so the token
    # count below puts exactly t ids on every edge line
    skeleton = raw.translate(None, b"0123456789")
    if t < 2 or n < 1 or m < 1 or len(skeleton) != 3 + t * m \
            or skeleton != b"  \n" + (b" " * (t - 1) + b"\n") * m:
        return None
    values = np.fromstring(raw, dtype=np.int64, sep=" ")
    # fromstring saturates ids beyond int64 at 2**63 - 1
    if values.size != 3 + t * m or values.max() == 2 ** 63 - 1:
        return None
    try:
        check_size("header field", t, n, m)
        return Hypergraph(n, t, values[3:].reshape(m, t))
    except (EdgeError, SizeOverflow):
        return None


def _parse_lines(text: str) -> Hypergraph:
    """Line-by-line parse of any edge-list text; see parse_hypergraph."""
    header = None
    edges = []
    edge_lines = []
    fault = None  # (line, reason) of the first fault in the text
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [int(f) for f in line.split()]
        except ValueError:
            fault = (lineno, f"non-integer field in {line!r}")
            break
        if header is None:
            if len(values) != 3:
                raise ParseError(lineno, "header must be 't n m'")
            t, n, m = values
            if t < 2:
                raise ParseError(lineno, f"uniformity t={t} must be >= 2")
            if n < 1:
                raise ParseError(lineno, f"vertex count n={n} must be >= 1")
            if m < 0:
                raise ParseError(lineno, f"edge count m={m} must be >= 0")
            try:
                check_size("header field", t, n, m)
            except SizeOverflow as exc:
                raise ParseError(lineno, str(exc)) from None
            header = values
            continue
        if len(edges) == header[2]:
            fault = (lineno, f"more than {header[2]} edge lines")
            break
        edges.append(values)
        edge_lines.append(lineno)
    if header is None:
        raise ParseError(*(fault or (len(lines) or 1,
                                     "missing 't n m' header line")))
    t, n, m = header
    # the edges before a text fault come first, so they are checked first
    try:
        h = Hypergraph(n, t, edges)
    except EdgeError as exc:
        lineno = edge_lines[exc.index]
        line = lines[lineno - 1].strip()
        raise ParseError(lineno, {
            "arity": f"expected {t} vertex ids, got {len(edges[exc.index])}",
            "repeated": f"repeated vertex in edge {line!r}",
            "range": f"vertex id outside [0, {n}) in {line!r}",
            "duplicate": f"duplicate edge {line!r}",
        }[exc.kind]) from None
    if fault:
        raise ParseError(*fault)
    if len(edges) != m:
        raise ParseError(len(lines) or 1,
                         f"header promised {m} edges, found {len(edges)}")
    return h


def emit_hypergraph(h: Hypergraph) -> str:
    """Canonical edge-list text for h (sorted edges, no comments)."""
    row = " ".join(["%d"] * h.t) + "\n"
    return (f"{h.t} {h.n} {h.m}\n"
            + row * h.m % tuple(h.edge_array.ravel().tolist()))
