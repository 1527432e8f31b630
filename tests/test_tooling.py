"""Source-level checks on the package."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "coadinv")


def test_no_assert_statements():
    # self-checks must raise real exceptions so that they survive python -O
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
