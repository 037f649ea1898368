import pytest

from treealg.dendriform import _tree_prec, _tree_star, _tree_succ


@pytest.fixture
def fresh_tree_caches():
    """The three tree-product caches, emptied before and after the test,
    so that no pair cached by another test hides one and the values a
    mutated product leaves in them reach no other test."""
    caches = (_tree_prec, _tree_succ, _tree_star)
    for f in caches:
        f.cache_clear()
    yield caches
    for f in caches:
        f.cache_clear()
