"""The edge validator against frozen copies of the per-edge loops it replaced.

``Hypergraph.__init__`` checks whole edge arrays at once and
``parse_hypergraph`` leaves the edge checks to it.  The reference
functions below are the earlier per-edge constructor loop and per-line
parser loop, kept verbatim except that they return their verdict instead
of raising, and that the parser reference also rejects a header field
above the size cap (the earlier loop let it through to numpy, which
failed to allocate the arrays of n or t entries).  On every input
both must accept or both reject, with the same first faulty edge (a line
number for the parser) and the same message, hence the same fault
category.  Inputs come from a fixed table of corner cases and from
hypothesis over small random edge lists and edge-list texts with integer
ids (the reference read ``1.5`` as 1).  The reference reads a field with
``int()``, which also takes ``1_0``, ``+1`` and digits outside ASCII,
and splits with ``str.splitlines()`` and ``str.split()``, which also
break at characters other than LF, CR and ASCII whitespace; the parser
refuses those, and neither the table nor hypothesis draws them.
"""

import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgspec import (EdgeError, Hypergraph, ParseError, complete_uniform,
                    emit_hypergraph, hypertree_ball, parse_hypergraph,
                    random_regular_linear)
from hgspec import hypergraph
from hgspec.cli import run_command
from hgspec.hypergraph import DEFAULT_SIZE_CAP
from hgspec.io import _parse_canonical

from conftest import edge_tuples


def reference_constructor(n, t, edges):
    """("ok", sorted edges) or ("error", index, message)."""
    canonical = []
    seen = set()
    for index, raw in enumerate(edges):
        edge = tuple(sorted(int(v) for v in raw))
        if len(edge) != t:
            return "error", index, f"edge {raw!r} does not have {t} vertices"
        if len(set(edge)) != t:
            return "error", index, f"edge {raw!r} has repeated vertices"
        if edge[0] < 0 or edge[-1] >= n:
            return "error", index, (f"edge {raw!r} has a vertex outside "
                                    f"[0, {n})")
        if edge in seen:
            return "error", index, f"duplicate edge {edge!r}"
        seen.add(edge)
        canonical.append(edge)
    canonical.sort()
    return "ok", tuple(canonical)


def reference_parser(text):
    """("ok", (t, n, sorted edges)) or ("error", line, reason)."""
    header = None
    edges = []
    seen = set()
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            values = [int(f) for f in fields]
        except ValueError:
            return "error", lineno, f"non-integer field in {line!r}"
        if header is None:
            if len(values) != 3:
                return "error", lineno, "header must be 't n m'"
            t, n, m = values
            if t < 2:
                return "error", lineno, f"uniformity t={t} must be >= 2"
            if n < 1:
                return "error", lineno, f"vertex count n={n} must be >= 1"
            if m < 0:
                return "error", lineno, f"edge count m={m} must be >= 0"
            if max(values) > DEFAULT_SIZE_CAP:
                return "error", lineno, ("header field above the size cap "
                                         f"{DEFAULT_SIZE_CAP}")
            header = (t, n, m)
            continue
        t, n, m = header
        if len(edges) == m:
            return "error", lineno, f"more than {m} edge lines"
        if len(values) != t:
            return "error", lineno, (f"expected {t} vertex ids, got "
                                     f"{len(values)}")
        edge = tuple(sorted(values))
        if len(set(edge)) != t:
            return "error", lineno, f"repeated vertex in edge {line!r}"
        if edge[0] < 0 or edge[-1] >= n:
            return "error", lineno, (f"vertex id outside [0, {n}) in "
                                     f"{line!r}")
        if edge in seen:
            return "error", lineno, f"duplicate edge {line!r}"
        seen.add(edge)
        edges.append(edge)
    if header is None:
        return "error", last_line or 1, "missing 't n m' header line"
    t, n, m = header
    if len(edges) != m:
        return "error", last_line or 1, (f"header promised {m} edges, found "
                                         f"{len(edges)}")
    return "ok", (t, n, tuple(sorted(edges)))


#: EdgeError.kind of each reference constructor message
KINDS = {"does not have": "arity", "repeated": "repeated",
         "outside": "range", "duplicate": "duplicate"}


def constructor_verdict(n, t, edges):
    try:
        h = Hypergraph(n, t, edges)
    except EdgeError as exc:
        return "error", exc.index, str(exc)
    return "ok", edge_tuples(h)


def parser_verdict(text):
    try:
        h = parse_hypergraph(text)
    except ParseError as exc:
        return "error", exc.line, exc.reason
    return "ok", (h.t, h.n, edge_tuples(h))


def check_constructor(n, t, edges):
    expected = reference_constructor(n, t, edges)
    assert constructor_verdict(n, t, edges) == expected
    if expected[0] == "error":
        with pytest.raises(EdgeError) as info:
            Hypergraph(n, t, edges)
        kind = next(k for key, k in KINDS.items() if key in expected[2])
        assert info.value.kind == kind


#: (n, t, edges) for the constructor
CONSTRUCTOR_TABLE = [
    (4, 3, []),                                    # m = 0
    (5, 2, [(0, 1), (1, 2), (4, 3)]),              # t = 2
    (5, 2, [(0, 1), (2, 1), (1, 0)]),              # duplicate, other order
    (5, 3, [(0, 1, 2), (2, 0, 1)]),
    (5, 3, [(0, 1, -1)]),                          # negative id
    (5, 3, [(0, 1, 2), (0, 1, 10 ** 20)]),         # id beyond int64
    (5, 3, [(10 ** 20, 10 ** 20, 1)]),             # repeated, beyond int64
    (5, 3, [(0, 1, 2), (0, 1)]),                   # arity
    (5, 3, [(0, 1, 2), (0, 1, 2, 3)]),
    (5, 3, [(0, 1, 1), (0, 1, 7)]),                # first of two faults
    (5, 3, [(0, 1, 7), (0, 1, 1)]),
    (5, 3, [(3, 4, 2), (0, 1, 2), (2, 4, 3)]),     # later copy reported
    (5, 3, [(0, 1, 2), (0, 1, 2), (0, 0, 1)]),     # duplicate before repeat
    (5, 3, [(0, 1, 2), (0, 1)]),
    (5, 3, np.array([[4, 0, 2], [1, 3, 2]])),      # array input
    (5, 3, [(np.int64(4), 0, 2), (np.int32(1), 3, 2)]),
    (1, 2, []),
]


@pytest.mark.parametrize("n,t,edges", CONSTRUCTOR_TABLE)
def test_constructor_table(n, t, edges):
    check_constructor(n, t, edges)


def test_constructor_leaves_an_input_array_alone():
    edges = np.array([[4, 0, 2], [1, 3, 2]])
    Hypergraph(5, 3, edges)
    assert edges.tolist() == [[4, 0, 2], [1, 3, 2]]


#: edge-list texts for the parser
PARSER_TABLE = [
    # a bad edge and fewer edge lines than the header promises: the bad
    # edge is reported, not the count
    "3 5 4\n0 1 2\n0 1 1\n",
    "3 5 4\n0 1 2\n0 1 9\n",
    "3 5 4\n0 1 2\n2 1 0\n",
    "3 5 3\n0 1\n",
    "3 5 1\n0 1 100000000000000000000\n",           # id beyond int64
    "3 5 0\n",                                       # m = 0
    "# comment\n\n2 4 3\n0 1\n1 2\n3 2\n",           # t = 2
    "3 5 1\n0 -1 2\n",                               # negative id
    "3 6 2\n0 1 2\n2 0 1\n",                         # duplicate, other order
    "3 6 2\n0 1 2\n0 1 x\n",                         # non-integer field
    "3 6 2\n0 1 1\n0 1 x\n",                         # bad edge before it
    "3 6 1\n0 1 2\n3 4 5\n",                         # more than m lines
    "3 6 1\n0 1 1\n3 4 5\n",
    "3 6 2\n0 1 2\n",                                # too few lines
    "3 6\n",                                         # bad header
    "1 6 0\n",
    "3 0 0\n",
    "3 6 -1\n",
    "100000000000000000000 5 0\n",                  # header beyond int64
    "3 100000000000000000000 0\n",
    "3 5 100000000000000000000\n",
    "9223372036854775807 2 0\n",                    # above the size cap
    "3 1000000000000 1\n0 1 2\n",
    "3 1000000000000000000 0\n",
    "3 2000001 1\n0 1 2\n",
    "3 2000000 1\n0 1 2\n",                        # at the cap
    "# only a comment\n",
    "",
    "x 6 1\n",
]


@pytest.mark.parametrize("text", PARSER_TABLE)
def test_parser_table(text):
    assert parser_verdict(text) == reference_parser(text)


@pytest.mark.parametrize("text", PARSER_TABLE)
def test_cli_parse_errors_exit_2(tmp_path, capsys, text):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    code = run_command(["radius", str(path)], out=io.StringIO())
    expected = reference_parser(text)
    if expected[0] == "error":
        assert code == 2
        assert f"line {expected[1]}: " in capsys.readouterr().err
    else:
        assert code in (0, 1)


#: (text, line) with a field that int() reads but that is not an optional
#: "-" and ASCII digits; the reference parser, like int(), reads them
LOOSE_INTEGER_TABLE = [
    ("2 11 1\n0 1_0\n", 2),
    ("2 2 1\n+0 \u0661\n", 2),                 # Arabic-Indic one
    ("2 3 1\n0 \uff11\n", 2),                  # fullwidth one
    ("+2 3 1\n0 1\n", 1),
    ("2 3_0 1\n0 1\n", 1),
]


@pytest.mark.parametrize("text,line", LOOSE_INTEGER_TABLE)
def test_fields_are_ascii_integers(tmp_path, capsys, text, line):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    code = run_command(["radius", str(path)], out=io.StringIO())
    fields = text.splitlines()[line - 1]
    assert parser_verdict(text) == (
        "error", line, f"non-integer field in {fields!r}")
    assert code == 2
    assert f"line {line}: non-integer field" in capsys.readouterr().err


#: (text, line) with a character that str.splitlines() takes for a line
#: break or str.split() for a field separator, and the format does not:
#: lines end at LF, CR LF or CR, and fields are split at ASCII whitespace
SEPARATOR_TABLE = [
    ("2 2 1\n0\xa01\n", 2),                   # no-break space
    ("2 2 1\n0\u20031\n", 2),                 # em space
    ("2 3 2\n0 1\x1c1 2\n", 2),               # file separator
    ("2 2 1\x850 1\n", 1),                     # next line
    ("2 2 1\x0c0 1\n", 1),                     # form feed
]


@pytest.mark.parametrize("text,line", SEPARATOR_TABLE)
def test_only_ascii_separators(tmp_path, capsys, text, line):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    code = run_command(["radius", str(path)], out=io.StringIO())
    assert reference_parser(text)[0] == "ok"
    assert parser_verdict(text)[:2] == ("error", line)
    assert code == 2
    assert f"hgspec: parse error: line {line}: " in capsys.readouterr().err


def test_an_id_of_5000_digits_is_a_parse_error(tmp_path, capsys):
    # past int()'s digit limit the field is not an integer; without the
    # limit it is an id outside [0, n): either way line 2, no traceback
    path = tmp_path / "input.txt"
    path.write_text("2 3 1\n0 " + "9" * 5000 + "\n", encoding="utf-8")
    code = run_command(["radius", str(path)], out=io.StringIO())
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("hgspec: parse error: line 2: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("edge", [(0, 1.5), (0, "1"), (0.0, 1.0)])
def test_non_integer_ids_are_rejected(edge):
    with pytest.raises(EdgeError, match="non-integer") as info:
        Hypergraph(3, 2, [(1, 2), edge])
    assert info.value.index == 1
    assert info.value.kind == "type"
    assert repr(edge) in str(info.value)


def test_numpy_integer_ids_are_accepted():
    h = Hypergraph(3, 2, [(np.int64(0), np.uint8(1)), (np.uint64(2), 1)])
    assert edge_tuples(h) == ((0, 1), (1, 2))


@st.composite
def _edges(draw, n, t):
    """Mostly t distinct ids in range in any order; otherwise t ids that
    may repeat or fall out of range, or t-1 or t+1 ids.  Up to two
    reordered copies of drawn edges are inserted, so that duplicates
    written in another vertex order are common."""
    shuffled = st.permutations(range(n)).map(lambda p: tuple(p[:t]))
    loose = st.lists(st.integers(-2, n + 1), min_size=t, max_size=t)
    arity = st.lists(st.integers(0, n), min_size=t - 1, max_size=t + 1)
    rows = draw(st.lists(st.one_of(*[shuffled] * 6, loose.map(tuple),
                                   arity.map(tuple)), max_size=8))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        copy = tuple(draw(st.permutations(draw(st.sampled_from(rows)))))
        rows.insert(draw(st.integers(0, len(rows))), copy)
    return rows


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_constructor_matches_reference(data):
    t = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(t, 7))
    check_constructor(n, t, data.draw(_edges(n, t)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_parser_matches_reference(data):
    t = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(t, 7))
    edge_line = _edges(n, t).map(lambda rows: [" ".join(map(str, r))
                                               for r in rows])
    lines = data.draw(edge_line)
    for i in sorted(data.draw(st.sets(st.integers(0, len(lines)),
                                      max_size=2)), reverse=True):
        lines.insert(i, data.draw(st.sampled_from(
            ["", "   ", "# note", "0 x 1", "1.5 2"])))
    k = len(lines)
    m = data.draw(st.integers(max(0, k - 2), k + 1))
    text = "\n".join([f"{t} {n} {m}"] + lines) + "\n"
    assert parser_verdict(text) == reference_parser(text)


def sort_every_row_validator(n, t, rows):
    """``hypergraph._validated_edges`` as it was when it sorted every row
    and tested each for repeated ids, kept as a reference."""
    table, kind = hypergraph._well_formed_rows(rows, t)
    i = len(table)
    if i:
        table.sort(axis=1)
        duplicate = np.zeros(i, dtype=bool)
        if hypergraph._strictly_increasing(table):
            ordered = table
        else:
            order = np.lexsort(table.T[::-1])
            ordered = table[order]
            duplicate[order[1:][np.all(ordered[1:] == ordered[:-1],
                                       axis=1)]] = True
        hits = np.stack([np.any(table[:, 1:] == table[:, :-1], axis=1),
                         (table[:, 0] < 0) | (table[:, -1] >= n), duplicate])
        if hits.any():
            i = int(np.argmax(hits.any(axis=0)))
            kind = ("repeated", "range", "duplicate")[np.argmax(hits[:, i])]
        table = ordered
    if kind is None:
        return table
    raw = rows[i]
    raise EdgeError(i, kind, {
        "type": f"edge {raw!r} has a non-integer vertex id",
        "arity": f"edge {raw!r} does not have {t} vertices",
        "repeated": f"edge {raw!r} has repeated vertices",
        "range": f"edge {raw!r} has a vertex outside [0, {n})",
        "duplicate": f"duplicate edge {tuple(sorted(map(int, raw)))!r}",
    }[kind])


def validator_verdict(validate, n, t, rows):
    try:
        table = validate(n, t, rows)
    except EdgeError as exc:
        return "error", exc.index, exc.kind, str(exc)
    return "ok", table.dtype, table.shape, table.tobytes()


@st.composite
def _tables(draw):
    """(n, t, rows): increasing rows, often in lexicographic order, mixed
    with unsorted rows, rows whose ids may repeat or fall out of range,
    and reordered copies; as a list of tuples or an int64 array."""
    t = draw(st.integers(2, 5))
    n = draw(st.integers(t, 9))
    increasing = st.sets(st.integers(0, n - 1), min_size=t,
                         max_size=t).map(lambda ids: tuple(sorted(ids)))
    unsorted = st.permutations(range(n)).map(lambda p: tuple(p[:t]))
    loose = st.lists(st.integers(-2, n + 1), min_size=t,
                     max_size=t).map(tuple)
    rows = draw(st.lists(st.one_of(increasing, increasing, increasing,
                                   unsorted, loose), max_size=12))
    if draw(st.booleans()):
        rows.sort()
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        copy = tuple(draw(st.permutations(draw(st.sampled_from(rows)))))
        rows.insert(draw(st.integers(0, len(rows))), copy)
    if draw(st.booleans()):
        rows = np.array(rows, dtype=np.int64).reshape(-1, t)
    return n, t, rows


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_tables())
def test_validator_matches_sort_every_row_reference(table):
    # the validator sorts and searches for repeats only the rows that are
    # not strictly increasing; the table or the error must not change
    assert (validator_verdict(hypergraph._validated_edges, *table)
            == validator_verdict(sort_every_row_validator, *table))


#: ids near the int64 limit, 2**63 - 1 first
BIG_IDS = ["9223372036854775807", "9223372036854775808",
           "9223372036854775806", "1234567890123456789",
           "9999999999999999999", "10000000000000000000",
           "99999999999999999999"]

#: header fields above the size cap, some within int64, and the cap
HUGE_FIELDS = [*BIG_IDS, "1000000000000", str(DEFAULT_SIZE_CAP + 1),
               str(DEFAULT_SIZE_CAP)]


def canonical(text):
    """True iff text is a header plus m >= 1 lines of t ids, all in
    digits, single spaces and newlines."""
    lines = text.split("\n")
    if lines[-1] != "" or not all(
            re.fullmatch(r"\d+( \d+)*", line) for line in lines[:-1]):
        return False
    rows = [[int(f) for f in line.split(" ")] for line in lines[:-1]]
    return (len(rows[0]) == 3 and rows[0][2] == len(rows) - 1 >= 1
            and all(len(row) == rows[0][0] for row in rows[1:]))


@st.composite
def _digit_texts(draw):
    """Edge-list texts in the alphabet of digits, spaces and newlines.

    Half are canonical, with a valid or faulty edge set (drawn from
    distinct ids in range only, half the time); the rest add some of:
    ragged lines with the token total kept, leading zeros, an id deleted
    between its spaces, double spaces, a blank line, no final newline,
    a header edge count one off or of 19-20 digits, and a header vertex
    count or uniformity above the size cap, within int64 or beyond it.
    Ids of 19-20 digits occur in both."""
    t = draw(st.integers(2, 4))
    n = draw(st.integers(t, 12))
    ids = st.one_of(*[st.integers(0, n + 1).map(str)] * 4,
                    st.sampled_from(BIG_IDS))
    shuffled = st.permutations(range(n)).map(lambda p: list(map(str, p[:t])))
    loose = st.lists(ids, min_size=t, max_size=t)
    clean = draw(st.booleans())
    rows = draw(st.lists(shuffled if clean else st.one_of(
        *[shuffled] * 4, loose), min_size=1, max_size=8))
    for _ in range(0 if clean else draw(st.integers(0, 2))):  # copies
        copy = list(draw(st.permutations(draw(st.sampled_from(rows)))))
        rows.insert(draw(st.integers(0, len(rows))), copy)
    plain = draw(st.booleans())
    some = st.just(False) if plain else st.sampled_from([True, False, False])
    if len(rows) > 1 and draw(some):  # ragged, same total
        i, j = draw(st.permutations(range(len(rows))))[:2]
        if len(rows[i]) > 1:
            rows[j].append(rows[i].pop())
    for prefix in ["0" * draw(st.integers(1, 20)), None]:
        if draw(some):  # leading zeros, or an id gone but its spaces kept
            row = draw(st.sampled_from(rows))
            k = draw(st.integers(0, len(row) - 1))
            row[k] = "" if prefix is None else prefix + row[k]
    lines = [" ".join(row) for row in rows]
    if lines and draw(some):
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = lines[k].replace(" ", "  ", 1)
    m = len(lines) + (draw(st.sampled_from([-1, 1])) if draw(some) else 0)
    header = [str(t), str(n), str(max(m, 0))]
    if draw(some):  # m near the int64 limit, or n or t above the cap
        header[2] = draw(st.sampled_from(BIG_IDS))
    for field in (1, 0):
        if draw(some):
            header[field] = draw(st.sampled_from(HUGE_FIELDS))
    lines.insert(0, " ".join(header))
    if draw(some):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", " "])))
    return "\n".join(lines) + ("" if draw(some) else "\n")


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(text=_digit_texts())
def test_fast_path_matches_reference(text):
    expected = reference_parser(text)
    assert parser_verdict(text) == expected
    if expected[0] == "ok" and canonical(text):
        h = _parse_canonical(text)
        assert h is not None and (h.t, h.n, edge_tuples(h)) == expected[1]


@pytest.mark.parametrize("h", [
    *(random_regular_linear(t, 3, 10 * t, t) for t in (2, 3, 4)),
    complete_uniform(7, 3), complete_uniform(6, 4), hypertree_ball(3, 3, 4),
    hypertree_ball(2, 3, 5)], ids=repr)
def test_emitted_text_takes_the_fast_path(h):
    text = emit_hypergraph(h)
    assert _parse_canonical(text) == h
    assert parse_hypergraph(text) == h
    commented = "# a comment\n" + text
    assert _parse_canonical(commented) is None
    assert parse_hypergraph(commented) == h


#: gen commands around a cap of 40: t, n or m below, at or above it
SMALL_CAP_COMMANDS = [
    *(["hypertree", "--t", str(t), "--k", str(k), "--radius", str(r)]
      for t in (2, 3, 4, 40, 41) for k in (1, 2, 3) for r in range(4)),
    *(["complete", "--t", str(t), "--n", str(n)]
      for n in range(2, 11) for t in range(2, n + 1)),
    ["complete", "--t", "40", "--n", "40"],
    ["complete", "--t", "41", "--n", "41"],
    ["complete", "--t", "2", "--n", "41"],
    *(["random-regular", "--t", str(t), "--k", "3", "--n", str(n)]
      for t, n in ((3, 12), (3, 40), (3, 41), (2, 26), (2, 28))),
]


def test_the_parser_reads_every_instance_gen_writes(monkeypatch, capsys):
    # one size rule for both: under a cap of 40, both parsers read back
    # every instance gen writes, and gen refuses the rest, naming the cap
    monkeypatch.setattr(hypergraph, "DEFAULT_SIZE_CAP", 40)
    verdicts = set()
    for argv in SMALL_CAP_COMMANDS:
        out = io.StringIO()
        code = run_command(["gen", *argv], out=out)
        err = capsys.readouterr().err
        text = out.getvalue()
        verdicts.add(code)
        if code == 0:
            h = parse_hypergraph(text)
            assert emit_hypergraph(h) == text
            assert parse_hypergraph("#\n" + text) == h  # the line parser
            assert h.m == 0 or _parse_canonical(text) == h
        else:
            assert (code, text) == (1, "")
            assert err.endswith(" above the size cap 40\n"), argv
    assert verdicts == {0, 1}
