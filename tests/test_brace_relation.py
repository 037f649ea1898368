"""Differential tests of the one brace relation expansion.

brace_relation_defect (planar tree operad) and _dend_relation_defect
(the corolla images in the free dendriform algebra) each spelled out
the splittings of the arguments into 2n+1 blocks; both now go through
operads.brace_relation.  old_dend_relation_defect is a verbatim copy of
the Dend function as it was before; the tests require the same
defects.  The planar side is pinned by the grafting and block-splitting
test below, and by the zero planar defects that suite_brace_relations
reports.  validate_brace, the third caller, is pinned by the valid and
invalid braces of tests/test_envelope.py and the tuples of
tests/test_enumeration.py.
"""

from math import comb

import pytest

from treealg.dendriform import DendElement, psi_corolla
from treealg.linalg import LinComb
from treealg.operads import (
    _planar_brace,
    brace_relation,
    compose_ape,
    corolla_tree,
    interval_partitions,
)
from treealg.suites import _dend_relation_defect
from treealg.trees import PlanarTree


def old_psi_corolla(args, sign_offset):
    """psi_corolla with the sign knob it had: offset 1 is psi_corolla,
    offset 0 its negative."""
    return psi_corolla(args) if sign_offset else -psi_corolla(args)


def old_dend_relation_defect(n, m, sign_offset):
    """Both sides of the corolla relation evaluated inside the free
    dendriform algebra on distinct generators."""
    gens = {}
    xs = ["x%d" % i for i in range(1, n + 1)]
    ys = ["y%d" % i for i in range(1, m + 1)]
    for name in ["z"] + xs + ys:
        gens[name] = DendElement.generator(name)
    inner = old_psi_corolla([gens["z"]] + [gens[x] for x in xs], sign_offset)
    lhs = old_psi_corolla([inner] + [gens[y] for y in ys], sign_offset)
    terms = []
    for blocks in interval_partitions(ys, 2 * n + 1):
        args = []
        for i in range(n):
            args.extend(gens[y] for y in blocks[2 * i])
            xe = gens[xs[i]]
            if blocks[2 * i + 1]:
                xe = old_psi_corolla([xe] + [gens[y] for y in blocks[2 * i + 1]], sign_offset)
            args.append(xe)
        args.extend(gens[y] for y in blocks[2 * n])
        terms.append((old_psi_corolla([gens["z"]] + args, sign_offset), 1))
    return lhs - DendElement.sum(terms)


CASES = [(n, m) for n in range(1, 5) for m in range(1, 6 - n)]


@pytest.mark.parametrize("n, m", CASES)
@pytest.mark.parametrize("sign_offset", [1, 0])
def test_dend_defect_matches_old(n, m, sign_offset):
    new, old = _dend_relation_defect(n, m, sign_offset), old_dend_relation_defect(n, m, sign_offset)
    assert new == old and str(new) == str(old)
    # the alternate convention leaves a nonzero defect from n = m = 1 on
    assert new.is_zero() == (sign_offset == 1)


@pytest.mark.parametrize("n, m", CASES)
def test_planar_sides_are_the_grafting_and_the_block_splittings(n, m):
    # the zero defect is not vacuous: the left side is the composition
    # the old code built, and each splitting gives its own tree
    xs = [PlanarTree("x%d" % i) for i in range(1, n + 1)]
    ys = [PlanarTree("y%d" % i) for i in range(1, m + 1)]
    lhs, rhs = brace_relation(_planar_brace, PlanarTree("z"), xs, ys)
    labels = [str(t) for t in ys]
    assert lhs == compose_ape(corolla_tree("w", labels), "w", corolla_tree("z", [str(x) for x in xs]))
    assert len(rhs) == comb(m + 2 * n, 2 * n) and set(rhs.terms.values()) == {1}
    assert lhs == rhs


def test_brace_of_no_arguments_is_the_identity():
    t = PlanarTree("z", [PlanarTree("x")])
    assert _planar_brace(t, []) == LinComb.single(t)
    lhs, rhs = brace_relation(_planar_brace, t, [], [PlanarTree("y")])
    assert lhs == rhs == _planar_brace(t, [PlanarTree("y")])
