import pytest

from entmono import monogamy


@pytest.fixture(autouse=True)
def no_kept_sweep_pool():
    """Each test starts and ends with no kept sweep pool: workers forked for
    an earlier test would not see this test's patches, and a pool counter
    would miss a pool the test did not make."""
    monogamy._close_pool()
    yield
    monogamy._close_pool()
