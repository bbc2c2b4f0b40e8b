import pytest

from npslab.verify import brute_table


@pytest.fixture(scope="session")
def brute():
    """Exchange-count (sum, max) for every shape of size 1..8, built once."""
    return brute_table(8)
