"""The one-pass matrix reader agrees with the per-entry parse.

mat_from_json reads a matrix whose entries are all "p"/"p/q" strings with
one match over the joined entries, and everything else through the
per-entry parse.  Both must give the same matrix, or refuse with the same
message, on every document: an exhaustive table of awkward entries and a
hypothesis run over random ones."""

import itertools
from fractions import Fraction
from math import lcm

import pytest

from coadinv import exactmat
from coadinv.exactmat import Mat, _json_num_den, mat_from_json

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # a test-only tool: the table runs without it
    st = None


def per_entry_parse(obj):
    """The matrix read entry by entry, as mat_from_json did before the
    one-pass reader; obj has a valid shape."""
    try:
        parsed = [[_json_num_den(v) for v in row] for row in obj["entries"]]
    except ValueError as exc:
        raise ValueError("matrix JSON has a malformed rational: %s" % exc) from exc
    d = lcm(*[den for row in parsed for _, den in row])
    return Mat.from_num_den([[num * (d // den) for num, den in row] for row in parsed], d)


def outcome(parse, obj):
    try:
        return "ok", parse(obj)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


def doc(entries):
    return {"rows": len(entries), "cols": len(entries[0]), "entries": entries}


BIG = "9" * 5000  # past the interpreter's digit limit for int()
LONG = "7" * 4000  # within it

ENTRIES = [
    "0", "-0", "007", "-007", "+1", " 1", "1 ", "1_0", "\u0663", "1/0", "0/5",
    "-3/6", "1/-2", "-1/00", "1 2", "1,2", ",", "", "-", "/", "1/", "/2", "1//2",
    "1/2/3", "1e3", "1.5", "0x10", "\n1", "1\n", BIG, "1/" + BIG, LONG,
    "-%s/%s" % (LONG, LONG[:-1]), 0, -5, 2 ** 80, True, False, 1.0, None, [], {},
    "12", "-4/9", "5/1",
]


@pytest.mark.parametrize("value", ENTRIES, ids=lambda v: repr(v)[:20])
def test_single_entries_parse_as_before(value):
    obj = doc([[value]])
    assert outcome(mat_from_json, obj) == outcome(per_entry_parse, obj)


def test_pairs_and_mixed_rows_parse_as_before():
    # every ordered pair as a 1 x 2 row and as a 2 x 1 column, and rows that
    # mix JSON integers with strings
    for a, b in itertools.product(ENTRIES, repeat=2):
        for obj in (doc([[a, b]]), doc([[a], [b]])):
            assert outcome(mat_from_json, obj) == outcome(per_entry_parse, obj), obj
    for obj in (doc([[1, "2"], ["3/4", 5]]), doc([["1", "2"], [3, 4]]),
                doc([["-1/2", "1/3"], ["1/6", "0"]]), doc([[0, 0], ["0", "0/7"]])):
        assert outcome(mat_from_json, obj) == outcome(per_entry_parse, obj)


def test_a_separator_inside_an_entry_is_not_two_entries():
    # joined by commas, ["1,2", "3"] reads like three valid entries
    for entries in ([["1,2", "3"]], [["1,2"]], [["1", "2,"]], [["1 2", "3"]]):
        with pytest.raises(ValueError, match="malformed rational"):
            mat_from_json(doc(entries))


def test_string_matrices_read_exactly(monkeypatch):
    # a matrix of valid strings never reaches the per-entry parse
    def refuse(value):
        raise AssertionError("per-entry parse of %r" % (value,))

    monkeypatch.setattr(exactmat, "_json_num_den", refuse)
    assert mat_from_json(doc([["2/4", "-1/3"], ["0", "10/12"]])) \
        == Mat.from_num_den([[3, -2], [0, 5]], 6)
    assert mat_from_json(doc([["-0", "007"], ["12", "-3"]])) == Mat([[0, 7], [12, -3]])
    assert mat_from_json(doc([["0/5", "-3/6"]])).num_den() == (((0, -1),), 2)
    # one denominator written two ways, and one denominator shared by all
    for entries in ([["1/06", "5/6"], ["-7/12", "0"]], [["1/5", "-2/5"], ["3/5", "4/5"]]):
        assert mat_from_json(doc(entries)) == Mat([[Fraction(v) for v in row] for row in entries])


def entry_oracle(s):
    """The entry language without a regular expression: an optional minus,
    ASCII digits, then optionally "/" and ASCII digits."""
    num, slash, den = s.removeprefix("-").partition("/")
    return all(part and part.strip("0123456789") == "" for part in (num, den)[:1 + bool(slash)])


def test_the_entry_patterns_match_the_entry_language():
    # the reader's table and hypothesis run compare it with the per-entry
    # parse, which shares the patterns; here every string of up to eight
    # characters over the alphabet of the language is checked on its own
    for size in range(9):
        for chars in itertools.product("0-/,", repeat=size):
            s = "".join(chars)
            assert bool(exactmat._RAT_RE.fullmatch(s)) == entry_oracle(s), s
            assert bool(exactmat._RATS_RE.fullmatch(s)) == all(map(entry_oracle, s.split(","))), s


@pytest.mark.skipif(st is None, reason="needs hypothesis")
def test_random_matrices_parse_as_before():
    entry = st.one_of(
        st.sampled_from(ENTRIES),
        st.integers(-10 ** 6, 10 ** 6),
        st.integers(-10 ** 6, 10 ** 6).map(str),
        st.tuples(st.integers(-99, 99), st.integers(0, 99)).map(lambda t: "%d/%d" % t),
        st.text(alphabet="0123456789-/, +_.e\u0663", max_size=6),
        st.booleans(), st.none(), st.floats(allow_nan=False),
    )
    matrices = st.integers(1, 3).flatmap(
        lambda cols: st.lists(st.lists(entry, min_size=cols, max_size=cols),
                              min_size=1, max_size=3))

    @settings(max_examples=400, deadline=None)
    @given(matrices)
    def agrees(entries):
        obj = doc(entries)
        assert outcome(mat_from_json, obj) == outcome(per_entry_parse, obj)

    agrees()
