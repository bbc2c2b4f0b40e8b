"""Named mutants of the fast paths.

Each row rewrites one line of a function's source, installs the rewritten
function with monkeypatch, and asserts that an independent oracle from
`conftest.py` tells it apart.  Before the rewrite the same comparison must
find nothing, so a row cannot pass because its comparison is blind.
"""

import inspect
import textwrap

import pytest

from npslab import complexity, two_row, verify
from npslab.partitions import partitions_of


def _rewrite(module, name, old, new):
    """The function `name` of `module`, compiled from its source with the one
    occurrence of `old` replaced by `new`, reading the module's globals."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, (name, old)
    namespace = {}
    exec(compile(source.replace(old, new), module.__file__, "exec"), vars(module), namespace)
    return namespace[name]


def _double_sums_caught(oracle):
    grid = [(lam1, lam2) for lam1 in range(1, 9) for lam2 in range(1, lam1 + 1)]
    differs = any(two_row.c_double_sums(*shape) != oracle(*shape) for shape in grid)
    ok, _ = verify.check_two_row_theorem(8, {})
    return differs and not ok


def _nested_caught(oracle):
    return any(two_row.s0_nested(lam1, lam2) != oracle(lam1, lam2)
               for lam1 in range(1, 11) for lam2 in range(1, lam1 + 1))


def _w_table_caught(oracle):
    for shape in (s for n in range(1, 8) for s in partitions_of(n)):
        rows = complexity._w_table(shape)
        cells = {(i, j): w for i, row in enumerate(rows, start=1)
                 for j, w in enumerate(row, start=1)}
        if cells != oracle(shape):
            return True
    return False


MUTANTS = [
    # the s1 and s2 terms at (j, k) = (2, 3) dropped from the bucket of k = 3
    pytest.param(two_row, "c_double_sums",
                 "* comb(k, j) * lower\n", "* comb(k, j) * lower * ((j, k) != (2, 3))\n",
                 "c_double_sums_termwise", _double_sums_caught, id="double-sums-term-dropped"),
    # the harmonic part over lcm(1..lam1 - 1) in place of the lcm of its denominators
    pytest.param(two_row, "s0_nested", "= _scaled_harmonics(lam1, lam2, lam1 - lam2)\n",
                 "= _scaled_harmonics(lam1, lam2, lam1 - lam2); lcd_h = lcm(*range(1, lam1))\n",
                 "s0_nested_termwise", _nested_caught, id="nested-harmonics-wrong-lcm"),
    # every row tail one higher: p - j in place of p - 1 - j
    pytest.param(complexity, "_w_table",
                 "range(p - 1 - below, -1, -1)", "range(p - below, 0, -1)",
                 "w_by_corners", _w_table_caught, id="w-row-tail-off-by-one"),
]


@pytest.mark.parametrize("module, name, old, new, oracle, caught", MUTANTS)
def test_mutant_is_caught(monkeypatch, request, module, name, old, new, oracle, caught):
    oracle = request.getfixturevalue(oracle)
    assert not caught(oracle)
    monkeypatch.setattr(module, name, _rewrite(module, name, old, new))
    assert caught(oracle)
