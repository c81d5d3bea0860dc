import pytest

# the lemma checks in util.py are plain asserts: rewriting them, as pytest
# does for test modules, keeps them running under python -O
pytest.register_assert_rewrite("util")

from envyprice.core import UtilityMatrix  # noqa: E402


@pytest.fixture
def w3():
    # Worst 3x3 instance: one agent concentrates on the first two items,
    # the other two are indifferent. Ratio 8/7.
    return UtilityMatrix.from_strings([
        ["1/2", "1/2", "0"],
        ["1/3", "1/3", "1/3"],
        ["1/3", "1/3", "1/3"],
    ])
