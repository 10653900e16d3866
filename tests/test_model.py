"""Data model: state maps, the family reduction, and the text format."""

import dataclasses
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biramsey.model import (
    ArcState,
    BadState,
    BicoloredGraph,
    DuplicatePair,
    EdgeColor,
    InstanceFormatError,
    InvalidHeader,
    MalformedLine,
    MissingPair,
    SemicompleteDigraph,
    VertexOutOfRange,
    coloring_to_digraph,
    digraph_to_coloring,
    iter_pairs,
    pair_count,
    pair_index,
    parse_instance,
    random_coloring,
    random_semicomplete,
    serialize_instance,
)
from biramsey import model
from biramsey.heuristics import blue_edge_graph, one_way_graph, red_edge_graph
from biramsey.solvers import (
    _color_adjacency,
    _one_way_out_masks,
    max_mono_clique,
    max_transitive_set,
    verify_witness,
)
from biramsey.model import MonoCliqueWitness, TransitiveWitness


def test_pair_index_is_lexicographic():
    n = 7
    for idx, (u, v) in enumerate(iter_pairs(n)):
        assert pair_index(u, v, n) == idx
    assert pair_count(n) == 21


def test_state_accessor_symmetric():
    d = SemicompleteDigraph.from_arcs(3, {(2, 0)})
    assert d.state(0, 2) is ArcState.BACKWARD
    assert d.state(2, 0) is ArcState.FORWARD
    assert d.has_arc(2, 0) and not d.has_arc(0, 2)
    assert d.has_arc(0, 1) and d.has_arc(1, 0)  # bioriented default


def test_from_map_rejects_a_pair_listed_twice():
    with pytest.raises(ValueError, match=r"pair \(0, 1\) listed twice"):
        BicoloredGraph.from_map(3, {(0, 1): EdgeColor.RED, (1, 0): EdgeColor.BLUE})
    with pytest.raises(ValueError, match=r"pair \(0, 1\) listed twice"):
        SemicompleteDigraph.from_map(3, {(0, 1): ArcState.FORWARD, (1, 0): ArcState.FORWARD})
    with pytest.raises(ValueError, match=r"pair \(0, 1\) listed twice"):
        SemicompleteDigraph.from_arcs(3, {(0, 1), (1, 0)})
    with pytest.raises(ValueError, match=r"bad pair \(1, 1\)"):
        SemicompleteDigraph.from_arcs(3, {(1, 1)})
    d = SemicompleteDigraph.from_map(3, {(1, 0): ArcState.FORWARD, (1, 2): ArcState.BACKWARD})
    assert d.state(0, 1) is ArcState.BACKWARD and d.state(1, 2) is ArcState.BACKWARD


def test_m_accounting_exact():
    g = random_coloring(9, 5)
    assert g.unicolored_count + g.bicolored_count == pair_count(9)
    assert g.density() == Fraction(g.bicolored_count, pair_count(9))
    d = random_semicomplete(9, 6)
    assert d.oneway_count + d.bioriented_count == pair_count(9)
    assert d.density() == Fraction(d.bioriented_count, pair_count(9))


def test_from_map_rejects_states_of_another_kind():
    for kind, foreign in ((BicoloredGraph, ArcState.FORWARD), (SemicompleteDigraph, EdgeColor.RED)):
        for state in (foreign, "R", ">"):
            for pair in ((0, 1), (1, 0)):  # a reversed pair must not skip the check
                with pytest.raises(TypeError):
                    kind.from_map(3, {pair: state})


def test_constructor_validates_n_and_codes():
    for kind in (BicoloredGraph, SemicompleteDigraph):
        with pytest.raises(ValueError, match="at least one vertex"):
            kind(0, b"")
        with pytest.raises(ValueError, match="expected 3 pair codes"):
            kind(3, b"\0\1")
        with pytest.raises(ValueError, match="must be 0, 1 or 2"):
            kind(3, b"\0\1\3")
        for not_bytes in (kind._STATES, bytearray(3), np.zeros(3, dtype=np.int8)):
            with pytest.raises(TypeError, match="must be bytes"):
                kind(3, not_bytes)


def test_instances_are_n_plus_codes():
    codes = b"\0\1\2"
    g, d = BicoloredGraph(3, codes), SemicompleteDigraph(3, codes)
    for inst in (g, d):
        assert [f.name for f in dataclasses.fields(inst)] == ["n", "codes"]
    assert g != d  # same codes, other family
    assert g == BicoloredGraph(3, bytes(codes)) and hash(g) == hash(BicoloredGraph(3, bytes(codes)))
    assert repr(g.states) == "(<EdgeColor.RED: 'R'>, <EdgeColor.BLUE: 'B'>, <EdgeColor.RED_BLUE: 'RB'>)"
    assert repr(d.states) == "(<ArcState.FORWARD: '>'>, <ArcState.BACKWARD: '<'>, <ArcState.BIORIENTED: '<>'>)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.codes = b"\2\2\2"


# --- the reduction -----------------------------------------------------------


def test_three_cycle_maps_to_two_red_one_blue():
    cyc = SemicompleteDigraph.from_arcs(3, {(0, 1), (1, 2), (2, 0)})
    col = digraph_to_coloring(cyc)
    assert col.state(0, 1) is EdgeColor.RED
    assert col.state(1, 2) is EdgeColor.RED
    assert col.state(0, 2) is EdgeColor.BLUE  # the arc 2 -> 0 descends


def test_all_bioriented_maps_to_all_bicolored():
    d = SemicompleteDigraph(4, bytes([ArcState.BIORIENTED.code]) * 6)
    col = digraph_to_coloring(d)
    assert all(s is EdgeColor.RED_BLUE for s in col.states)


def test_all_red_maps_to_ascending_tournament():
    g = BicoloredGraph(3, bytes([EdgeColor.RED.code]) * 3)
    d = coloring_to_digraph(g)
    assert sorted(d.one_way_arcs()) == [(0, 1), (0, 2), (1, 2)]


def test_round_trip_bijection_on_random_instances():
    for seed in range(100):
        n = 2 + seed % 11  # up to 12
        g = random_coloring(n, seed)
        assert digraph_to_coloring(coloring_to_digraph(g)) == g
        d = random_semicomplete(n, seed + 500)
        assert coloring_to_digraph(digraph_to_coloring(d)) == d


def test_reduction_preserves_m():
    for seed in range(20):
        d = random_semicomplete(8, seed)
        assert digraph_to_coloring(d).unicolored_count == d.oneway_count


def test_solver_transfer_inequality_random_digraphs():
    # a monochromatic clique in the image certifies a transitive set, so
    # the image's clique optimum never exceeds the source's transitive one
    for seed in range(10):
        d = random_semicomplete(10, seed)
        col = digraph_to_coloring(d)
        assert max_mono_clique(col).size <= max_transitive_set(d).size


def test_mono_clique_of_image_is_transitive_witness():
    for seed in range(15):
        d = random_semicomplete(9, seed + 37)
        col = digraph_to_coloring(d)
        res = max_mono_clique(col)
        vertices = res.witness.vertices
        if res.witness.color is EdgeColor.RED:
            order = vertices
        else:
            order = tuple(reversed(vertices))
        w = TransitiveWitness(vertices, order)
        assert verify_witness(d, w)


# --- text format -------------------------------------------------------------


def test_parse_example_digraph():
    d = parse_instance("semi 3\n0 1 >\n1 2 >\n0 2 <>\n")
    assert isinstance(d, SemicompleteDigraph)
    assert d.oneway_count == 2


def test_parse_accepts_comments_and_reversed_pairs():
    text = "# corpus item\nsemi 3\n1 0 <  # same as 0 1 >\n1 2 >\n0 2 <>\n"
    d = parse_instance(text)
    assert d.state(0, 1) is ArcState.FORWARD


@pytest.mark.parametrize(
    "text,exc",
    [
        ("semi 3\n0 1 >\n0 1 <\n0 2 >\n1 2 >\n", DuplicatePair),
        ("semi 3\n0 1 >\n0 2 >\n", MissingPair),
        ("bichrome 3\n0 1 >\n0 2 R\n1 2 R\n", BadState),
        ("semi 3\n0 3 >\n0 1 >\n1 2 >\n", VertexOutOfRange),
        ("digraph 3\n0 1 >\n", InvalidHeader),
        ("", InvalidHeader),
    ],
)
def test_parse_errors(text, exc):
    with pytest.raises(exc):
        parse_instance(text)


def test_parse_rejects_a_short_file_before_allocating_pairs():
    # the header alone promises C(3000, 2) pair lines; none follow
    start = time.perf_counter()
    with pytest.raises(MissingPair) as info:
        parse_instance("semi 3000\n")
    assert time.perf_counter() - start < 0.5
    assert "never listed" in str(info.value)


@pytest.mark.parametrize(
    "text",
    ["semi 5794\n", "# c\nsemi 5794\n", "bichrome 5794", "semi " + "9" * 4000 + "\n"],
    ids=["numpy-route", "per-line-route", "no-final-lf", "4000-digits"],
)
def test_parse_refuses_a_header_over_the_pair_cap_before_allocating_pairs(text):
    # C(n, 2) > 2^24 is refused by the header on both routes, and the
    # message prints no pair count (8000 digits for a 4000-digit n)
    import tracemalloc

    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(InvalidHeader) as info:
            parse_instance(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 1 << 16
    assert "vertex count is over the cap C(n,2) <= 16777216" in str(info.value)


def test_parse_keeps_the_largest_n_under_the_pair_cap():
    with pytest.raises(MissingPair):
        parse_instance("semi 5793\n")


@pytest.mark.parametrize(
    "text,message",
    [
        # C(300, 2) comment lines pass the early check; every pair is missing
        ("bichrome 300\n" + "# pad\n" * pair_count(300),
         "pairs never listed: [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]..."),
        ("bichrome 4\n" + "# pad\n" * 5 + "0 1 R\n",
         "pairs never listed: [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]"),
        ("semi 3\n#\n#\n0 1 >\n", "pairs never listed: [(0, 2), (1, 2)]"),
    ],
)
def test_parse_reports_at_most_five_missing_pairs(text, message):
    with pytest.raises(MissingPair) as info:
        parse_instance(text)
    assert str(info.value) == message


def test_parse_error_names_line():
    with pytest.raises(DuplicatePair) as info:
        parse_instance("semi 3\n0 1 >\n0 1 <\n0 2 >\n1 2 >\n")
    assert "line 3" in str(info.value)


def _corpus():
    instances = [random_coloring(n, 3 * n) for n in range(1, 11)]
    instances += [random_semicomplete(n, 7 * n + 1) for n in range(1, 11)]
    return instances


def test_round_trip_canonical_on_corpus():
    # 20 instances: serialize is parse's left inverse and is idempotent
    for inst in _corpus():
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert serialize_instance(again) == text


def test_serialize_uses_lf_and_lex_order():
    g = random_coloring(5, 2)
    text = serialize_instance(g)
    assert "\r" not in text and text.endswith("\n")
    body = [tuple(map(int, line.split()[:2])) for line in text.splitlines()[1:]]
    assert body == list(iter_pairs(5))


def test_serialize_rejects_a_non_instance():
    with pytest.raises(TypeError):
        serialize_instance("x")


# --- differential parse: the lean pass against the per-line parser ---------


_TOKENS = {
    "bichrome": {c.token: c for c in EdgeColor},
    "semi": {a.token: a for a in ArcState},
}
_FLIP = {ArcState.FORWARD: ArcState.BACKWARD, ArcState.BACKWARD: ArcState.FORWARD}


def _per_line_parse(text):
    """The one-line-at-a-time parser the lean pass replaced, kept verbatim
    in behaviour: same instances, same error classes and messages."""
    header = None
    n = 0
    family = ""
    states, seen = [], []
    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2 or tokens[0] not in ("bichrome", "semi"):
                raise InvalidHeader(
                    "expected header 'bichrome <n>' or 'semi <n>'", line_no, raw
                )
            family = tokens[0]
            try:
                n = int(tokens[1])
            except ValueError:
                raise InvalidHeader("vertex count is not an integer", line_no, raw)
            if n < 1:
                raise InvalidHeader("vertex count must be at least 1", line_no, raw)
            header = (line_no, family)
            unlisted = pair_count(n) - (len(lines) - line_no)
            if unlisted > 0:
                raise MissingPair(f"at least {unlisted} pairs never listed", line_no, raw)
            states = [None] * pair_count(n)
            seen = [False] * pair_count(n)
            continue
        if len(tokens) != 3:
            raise MalformedLine("expected 'u v STATE'", line_no, raw)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise MalformedLine("vertex ids are not integers", line_no, raw)
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise VertexOutOfRange(
                f"pair ({u}, {v}) does not fit 0 <= u < v < {n}", line_no, raw
            )
        token = tokens[2]
        table = _TOKENS[family]
        if token not in table:
            raise BadState(f"state {token!r} invalid for family {family!r}", line_no, raw)
        state = table[token]
        if u > v:
            u, v = v, u
            if family == "semi":
                state = _FLIP.get(state, state)
        idx = pair_index(u, v, n)
        if seen[idx]:
            raise DuplicatePair(f"pair ({u}, {v}) listed twice", line_no, raw)
        seen[idx] = True
        states[idx] = state
    if header is None:
        raise InvalidHeader("empty input: missing header line")
    missing = [p for p, ok in zip(iter_pairs(n), seen) if not ok][:6]
    if missing:
        raise MissingPair(f"pairs never listed: {missing[:5]}{'...' if len(missing) > 5 else ''}")
    cls = BicoloredGraph if family == "bichrome" else SemicompleteDigraph
    return cls(n, bytes(s.code for s in states))


def _reversed(text):
    """Every pair line written v u, arrows flipped so the instance stays."""
    head, *body = text.splitlines()
    flip = {">": "<", "<": ">"}
    lines = []
    for line in body:
        u, v, s = line.split()
        lines.append(f"{v} {u} {flip.get(s, s)}")
    return "\n".join([head, *lines]) + "\n"


def _odd_ids(text):
    """Ids spelled '+u', in full-width digits, or with an underscore."""
    head, *body = text.splitlines()
    spell = [
        lambda x: f"+{x}",
        lambda x: str(x).translate(str.maketrans("0123456789", "０１２３４５６７８９")),
        lambda x: f"0_{x}" if x < 10 else str(x),
        str,
    ]
    lines = []
    for i, line in enumerate(body):
        u, v, s = line.split()
        lines.append(f"{spell[i % 4](int(u))} {spell[(i + 1) % 4](int(v))} {s}")
    return "\n".join([head, *lines]) + "\n"


def _whitespace(text):
    """CRLF endings, tabs, runs of spaces, blank and comment lines."""
    head, *body = text.splitlines()
    lines = ["# leading comment", "", f"  {head}\t# header"]
    for i, line in enumerate(body):
        u, v, s = line.split()
        lines.append([f"{u}\t{v}\t{s}", f"  {u}   {v}  {s}  ", f"{u} {v} {s}# c", f"{u}　{v} {s}"][i % 4])
        if i % 3 == 0:
            lines.append("   \t ")
    return "\r\n".join(lines) + "\r\n"


def _mutations(text):
    """One broken copy per error class (and per MissingPair message)."""
    head, *body = text.splitlines()
    family, n = head.split()
    wrong = "R" if family == "semi" else ">"

    def with_line(i, line):
        return "\n".join([head, *body[:i], line, *body[i + 1:]]) + "\n"

    cases = [
        "",
        "# only a comment\n\n",
        "\n".join([f"digraph {n}", *body]) + "\n",
        "\n".join([f"{family} x{n}", *body]) + "\n",
        "\n".join([f"{family} 0", *body]) + "\n",
        "\n".join([f"{family} {n} extra", *body]) + "\n",
        head + "\n",  # promises C(n, 2) pair lines and lists none
    ]
    if body:
        first, last = body[0].split(), len(body) - 1
        cases += [
            with_line(last, f"{first[0]} {first[1]}"),
            with_line(last, f"{first[0]} {first[1]} {first[2]} extra"),
            with_line(last, f"{first[0]} one {first[2]}"),
            with_line(last, f"{first[0]} {first[1]} {wrong}"),
            with_line(last, f"{first[0]} {first[0]} {first[2]}"),
            with_line(last, f"{first[0]} {n} {first[2]}"),
            with_line(last, f"-1 {first[1]} {first[2]}"),
            with_line(last, f"{first[0]} 99999999999999999999999 {first[2]}"),
            with_line(last, f"{first[1]} {first[0]} {first[2]}"),  # reversed repeat
            with_line(last, "# a pair line commented out"),  # one missing pair
            "\n".join([head, *["#"] * min(7, len(body)), *body[7:]]) + "\n",
        ]
    return cases


def _parse_corpus():
    bases = [random_coloring(n, 5 * n + 1) for n in (1, 2, 3, 5, 8)]
    bases += [random_semicomplete(n, 11 * n + 2) for n in (1, 2, 3, 5, 8)]
    texts = []
    for inst in bases:
        text = serialize_instance(inst)
        for variant in (text, _reversed(text), _odd_ids(text), _whitespace(text)):
            texts.append(variant)
            texts += _mutations(variant) if variant is text else []
    return texts


def test_parse_matches_the_per_line_parser():
    outcomes = set()
    for text in _parse_corpus():
        try:
            expected = _per_line_parse(text)
        except InstanceFormatError as exc:
            with pytest.raises(type(exc)) as info:
                parse_instance(text)
            assert type(info.value) is type(exc)
            assert str(info.value) == str(exc), text
            outcomes.add(type(exc).__name__)
            if isinstance(exc, MissingPair):
                # the short-file check names the header line; the end check
                # lists up to five pairs, then an ellipsis
                outcomes.add("short" if exc.line_no else "many" if str(exc)[-3:] == "..." else "few")
            continue
        got = parse_instance(text)
        assert type(got) is type(expected) and got == expected, text
        assert got.pair_codes.tolist() == [s.code for s in got.states]
        outcomes.add("valid")
    assert outcomes == {
        "valid", "InvalidHeader", "MalformedLine", "BadState", "VertexOutOfRange",
        "DuplicatePair", "MissingPair", "short", "few", "many",
    }


def _spellings(text, rng):
    """Spellings of one canonical file: all but the leading comment stay in
    the strict grammar."""
    head, *body = text.splitlines()
    shuffled = [body[i] for i in rng.permutation(len(body))]
    padded = []
    for line in body:
        u, v, s = line.split()
        padded.append(f"{int(u):03d} {int(v):03d} {s}")
    return [
        ("canonical", text),
        ("shuffled", "\n".join([head, *shuffled]) + "\n"),
        ("reversed", _reversed(text)),
        ("leading zeros", "\n".join([head, *padded]) + "\n"),
        ("no final newline", text[:-1]),
        ("trailing blank line", text + "\n"),
        ("trailing blank lines", text + "\n\n\n"),
        ("leading comment", "# c\n" + text),
    ]


@pytest.fixture
def per_line_calls(monkeypatch):
    """Counts the files that reach the per-line routine."""
    calls = []
    route = model._parse_lines
    monkeypatch.setattr(model, "_parse_lines", lambda *args: calls.append(1) or route(*args))
    return calls


@pytest.mark.parametrize("n", [9, 10, 11, 100, 101])
def test_parse_matches_the_per_line_parser_across_id_widths(n, per_line_calls):
    # ids of one, two and three digits; the corpus above stops at n = 8
    rng = np.random.default_rng(n)
    for inst in (random_coloring(n, 5 * n + 1), random_semicomplete(n, 11 * n + 2)):
        text = serialize_instance(inst)
        for name, variant in _spellings(text, rng):
            calls = len(per_line_calls)
            assert parse_instance(variant) == _per_line_parse(variant) == inst, name
            assert len(per_line_calls) - calls == (name == "leading comment"), name
        for broken in _mutations(text):
            with pytest.raises(InstanceFormatError) as expected:
                _per_line_parse(broken)
            with pytest.raises(type(expected.value)) as got:
                parse_instance(broken)
            assert str(got.value) == str(expected.value), broken


def _outcome(parse, text):
    try:
        return parse(text)
    except InstanceFormatError as exc:
        return type(exc), str(exc)


def test_parse_matches_the_per_line_parser_on_edited_files():
    # one to three byte edits to strict files, drawn from the bytes the
    # numpy pass tells apart: most land just outside the strict grammar
    rng = np.random.default_rng(18)
    alphabet = list(" \n\t\x0c\x00019RB<>-+#_")
    bases = [serialize_instance(random_coloring(n, n)) for n in (3, 4, 11)]
    bases += [serialize_instance(random_semicomplete(n, n)) for n in (3, 4, 11)]
    for _ in range(3000):
        text = list(bases[rng.integers(len(bases))])
        for _ in range(rng.integers(1, 4)):
            at, byte = rng.integers(len(text)), alphabet[rng.integers(len(alphabet))]
            edit = rng.integers(3)
            if edit == 0:
                text.insert(at, byte)
            elif edit == 1:
                text[at] = byte
            else:
                del text[at]
        text = "".join(text)
        assert _outcome(parse_instance, text) == _outcome(_per_line_parse, text), repr(text)


@pytest.mark.parametrize(
    "text",
    [
        "bichrome 3\n0 1 RB 2\n0 R\n1 2 R\n",  # right counts, LF out of place
        "bichrome 3\n0 1 R\n0 2 RBB\n1 2 R\n",  # a 3-byte token
        "semi 3\n0 1 >\n0 2 <\n1 2 \n",  # an empty last token
        "semi 3\n0 1 >\n0 2 <\n1 2 <",  # a 1-byte token and no final LF
        "semi 3\n0 1 >\n0\x0c2 <\n1 2 <\n",  # a form feed splits a line
        "semi 3\n0 1 >\n 2 <\n1 2 <\n",  # an empty id
        "semi " + "9" * 5000 + "\n",  # a vertex count int() refuses
    ],
)
def test_parse_near_misses_of_the_strict_grammar(text):
    assert _outcome(parse_instance, text) == _outcome(_per_line_parse, text)


def test_canonical_files_never_reach_the_per_line_routine(per_line_calls):
    for inst in (random_coloring(64, 1), random_semicomplete(64, 2)):
        assert parse_instance(serialize_instance(inst)) == inst
    assert not per_line_calls


@pytest.mark.parametrize("blank", [1, 2, 7])
def test_trailing_blank_lines_stay_in_the_strict_grammar(blank, per_line_calls):
    for inst in (random_coloring(30, 1), random_semicomplete(30, 2), random_coloring(1, 0)):
        text = serialize_instance(inst)
        assert parse_instance(text + "\n" * blank) == parse_instance(text) == inst
        assert parse_instance(text.rstrip("\n") + "\n" * blank) == inst
    assert not per_line_calls
    # the trailing LFs still count toward no pair line
    with pytest.raises(MissingPair):
        parse_instance("semi 3\n0 1 >\n0 2 >" + "\n" * blank)


@pytest.mark.parametrize(
    "big", ["999999999", "2147483649", "4294967297", "18446744073709551617", "9" * 23]
)
def test_parse_never_wraps_a_long_id(big, per_line_calls):
    # the longest id the numpy pass reads, then 2^31 + 1, 2^32 + 1 and
    # 2^64 + 1, which would read as small ids if they wrapped
    for text in (f"semi 3\n0 {big} >\n0 2 >\n1 2 >\n", f"semi 3\n0 2 >\n1 2 >\n{big} 0 >\n"):
        with pytest.raises(VertexOutOfRange) as expected:
            _per_line_parse(text)
        with pytest.raises(VertexOutOfRange) as got:
            parse_instance(text)
        assert str(got.value) == str(expected.value)
        assert big in str(got.value)
    assert per_line_calls


def test_parse_reads_an_id_longer_than_the_numpy_pass_takes(per_line_calls):
    text = "bichrome 3\n0000000000000 1 R\n0 2 B\n1 0000000000002 RB\n"
    assert parse_instance(text) == _per_line_parse(text) == BicoloredGraph(3, b"\0\1\2")
    assert per_line_calls


@pytest.mark.parametrize("text", ["semi 1", "semi 1\n", "bichrome 1\n"])
def test_parse_one_vertex_has_an_empty_body(text, per_line_calls):
    assert parse_instance(text) == _per_line_parse(text)
    assert parse_instance(text).codes == b""
    assert not per_line_calls


def test_parse_peak_memory_stays_near_the_text():
    # the per-line split with its three Python lists peaked at about 10.9x
    text = serialize_instance(random_coloring(600, 5))
    tracemalloc.start()
    try:
        parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(text)


def test_pair_codes_follow_the_states():
    for inst in _corpus():
        codes = inst.pair_codes
        assert codes.dtype == np.int8 and not codes.flags.writeable
        assert codes.tolist() == [list(type(s)).index(s) for s in inst.states]
        assert parse_instance(serialize_instance(inst)).pair_codes.tolist() == codes.tolist()
        # the reduction between the families keeps every code
        image = (
            coloring_to_digraph(inst) if isinstance(inst, BicoloredGraph)
            else digraph_to_coloring(inst)
        )
        assert image.pair_codes.tolist() == codes.tolist()


# --- witnesses ---------------------------------------------------------------


def test_witness_invariants():
    with pytest.raises(ValueError):
        MonoCliqueWitness((1, 0), EdgeColor.RED)
    with pytest.raises(ValueError):
        MonoCliqueWitness((0, 1), EdgeColor.RED_BLUE)
    with pytest.raises(ValueError):
        TransitiveWitness((0, 1), (0, 2))
    with pytest.raises(ValueError):
        TransitiveWitness((1, 0), (0, 1))
    assert TransitiveWitness((0, 2, 5), (5, 0, 2)).size == 3


# --- property tests ----------------------------------------------------------


@st.composite
def _digraph(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    states = draw(
        st.lists(
            st.sampled_from(list(ArcState)),
            min_size=pair_count(n),
            max_size=pair_count(n),
        )
    )
    return SemicompleteDigraph(n, bytes(s.code for s in states))


@settings(max_examples=60, deadline=None)
@given(_digraph())
def test_property_round_trip_and_m(d):
    text = serialize_instance(d)
    assert parse_instance(text) == d
    col = digraph_to_coloring(d)
    assert col.unicolored_count == d.oneway_count
    assert coloring_to_digraph(col) == d


@st.composite
def _instance(draw):
    kind = draw(st.sampled_from([BicoloredGraph, SemicompleteDigraph]))
    n = draw(st.integers(min_value=1, max_value=12))
    states = draw(
        st.lists(
            st.sampled_from(kind._STATES),
            min_size=pair_count(n),
            max_size=pair_count(n),
        )
    )
    return kind(n, bytes(s.code for s in states))


def _masks_of(n, edge):
    """Reference masks: bit v of masks[u] iff edge(u, v), pair by pair."""
    return [sum(1 << v for v in range(n) if v != u and edge(u, v)) for u in range(n)]


@settings(max_examples=150, deadline=None)
@given(_instance())
def test_property_pair_masks_match_the_enum_route(instance):
    # every graph the solvers, heuristics and constructions derive from an
    # instance comes from _pair_masks over pair_codes
    n = instance.n
    if isinstance(instance, BicoloredGraph):
        has = instance.has_color
        for color in (EdgeColor.RED, EdgeColor.BLUE):
            assert _color_adjacency(instance, color) == _masks_of(
                n, lambda u, v: has(u, v, color)
            )
        red, blue = EdgeColor.RED, EdgeColor.BLUE
        assert red_edge_graph(instance) == _masks_of(
            n, lambda u, v: has(u, v, red) and not has(u, v, blue)
        )
        assert blue_edge_graph(instance) == _masks_of(
            n, lambda u, v: has(u, v, blue) and not has(u, v, red)
        )
    else:
        arc = instance.has_arc
        assert _one_way_out_masks(instance) == _masks_of(
            n, lambda u, v: arc(u, v) and not arc(v, u)
        )
        assert one_way_graph(instance) == _masks_of(n, lambda u, v: arc(u, v) != arc(v, u))


def test_family_and_m_are_read_only_facts():
    g = random_coloring(9, 4)
    d = coloring_to_digraph(g)
    assert (g.FAMILY, d.FAMILY) == ("bichrome", "semi")
    assert g.m == g.unicolored_count == d.m == d.oneway_count == pair_count(9) - g.bicolored_count
    for instance in (g, d):
        assert serialize_instance(instance).startswith(f"{instance.FAMILY} 9\n")
        with pytest.raises(AttributeError):
            instance.m = 0


def test_serialize_peak_memory_stays_near_the_text():
    # one string per pair peaked at about 8x the text; one per row at 2x
    instance = random_coloring(600, 5)
    tracemalloc.start()
    try:
        text = serialize_instance(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)
