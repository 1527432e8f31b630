"""Property test: malformed point and group JSON never escapes ValueError.

Any JSON value put in place of any node of a valid document either parses
or raises ValueError (which the CLI turns into exit code 2)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coadinv.liealg import (Algebra, Rng, dual_from_json, dual_to_json,  # noqa: E402
                            group_from_json, group_to_json, sample_dual,
                            sample_group)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=4),
    max_leaves=12)


def _documents():
    docs = []
    for fam in ("aff", "isl", "glvv", "io", "iso"):
        alg = Algebra(fam, 2)
        rng = Rng(3).child(fam)
        docs.append((dual_from_json, dual_to_json(alg, sample_dual(alg, rng, 3))))
        docs.append((group_from_json, group_to_json(alg, sample_group(alg, rng, 3))))
    return docs


DOCS = _documents()


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _substitute(node, path, value):
    if not path:
        return value
    out = dict(node) if isinstance(node, dict) else list(node)
    out[path[0]] = _substitute(node[path[0]], path[1:], value)
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0), st.integers(min_value=0), JSON)
def test_substituted_json_parses_or_raises_value_error(doc_pick, path_pick, value):
    parse, doc = DOCS[doc_pick % len(DOCS)]
    paths = list(_paths(doc))
    bad = _substitute(doc, paths[path_pick % len(paths)], value)
    try:
        parse(bad)
    except ValueError:
        pass
