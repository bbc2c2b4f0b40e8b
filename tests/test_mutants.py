"""Named mutants of the fast paths.

Each row rewrites one line of a function's source, installs the rewritten
function with monkeypatch in every module that imported it, and asserts
that an independent oracle from `conftest.py` tells it apart.  Before the
rewrite the same comparison must find nothing, so a row cannot pass because
its comparison is blind.
"""

import inspect
import sys
import textwrap

import pytest

from npslab import complexity, partitions, two_row, verify
from npslab.partitions import partitions_of

SMALL_SHAPES = [shape for n in range(1, 8) for shape in partitions_of(n)]


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
    for shape in SMALL_SHAPES:
        rows = complexity._w_table(shape)
        cells = {(i, j): w for i, row in enumerate(rows, start=1)
                 for j, w in enumerate(row, start=1)}
        if cells != oracle(shape):
            return True
    return False


def _chicago_caught(oracle):
    return any(complexity.average_case_chicago(shape) != oracle(shape) for shape in SMALL_SHAPES)


def _corner_sums_caught(oracle):
    """Whether the per-size sums of the downward pass differ from the sum of
    |x| = i + j - 2 over the cells x holding k, tallied over the standard
    fillings among all fillings of each shape of size 6 or less."""
    for shape in (s for n in range(1, 7) for s in partitions_of(n)):
        sums = [0] * (shape.size + 1)
        for filling in oracle(shape):
            rows = filling.rows
            if (all(a < b for row in rows for a, b in zip(row, row[1:]))
                    and all(a < b for high, low in zip(rows, rows[1:])
                            for a, b in zip(high, low))):
                for i, row in enumerate(rows):
                    for j, k in enumerate(row):
                        sums[k] += i + j
        if partitions._chain_counts(shape)[3] != sums:
            return True
    return False


def _witness_caught(oracle):
    for shape in SMALL_SHAPES:
        try:
            witness = complexity.worst_case_witness(shape)
        except complexity.WitnessConstructionError:
            return True  # the oracle builds a witness here, and the route does not
        if witness.format() != oracle(shape).format():
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
    # the smaller of w South and w East kept in place of the larger
    pytest.param(complexity, "_w_table", "w[j] if w[j] > east else east",
                 "w[j] if w[j] < east else east",
                 "w_by_corners", _w_table_caught, id="w-smaller-neighbour"),
    # the corner weight i + j - 1 in place of |x| = i + j - 2 in the downward
    # pass.  C itself stays the same: a constant added to |x| adds
    # f sum_k (H_n - H_(n-k) - 1) = 0, so the per-size sums are compared.
    pytest.param(partitions, "_chain_counts", "(i + j - 2) *", "(i + j - 1) *",
                 "tableaux", _corner_sums_caught, id="chicago-corner-weight"),
    # the harmonic tail L/(n - k) in place of L/(n - k + 1), kept finite at k = n
    pytest.param(complexity, "average_case_chicago", "lcd // (n - k + 1)",
                 "lcd // max(n - k, 1)",
                 "chicago_by_fractions", _chicago_caught, id="chicago-harmonic-tail"),
    # each rectangle column filled top to bottom in place of bottom to top
    pytest.param(complexity, "worst_case_witness", "first = filled + ci - i + 1",
                 "first = filled + i - ai + 1",
                 "witness_by_cells", _witness_caught, id="witness-top-down"),
]


@pytest.mark.parametrize("module, name, old, new, oracle, caught", MUTANTS)
def test_mutant_is_caught(monkeypatch, request, module, name, old, new, oracle, caught):
    oracle = request.getfixturevalue(oracle)
    assert not caught(oracle)
    original = getattr(module, name)
    mutant = _rewrite(module, name, old, new)
    for key, loaded in list(sys.modules.items()):
        if key.startswith("npslab") and getattr(loaded, name, None) is original:
            monkeypatch.setattr(loaded, name, mutant)
    assert caught(oracle)
