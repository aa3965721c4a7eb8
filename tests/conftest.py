import pytest

from choicenet import inference as I


@pytest.fixture(autouse=True)
def empty_assortment_memo():
    """Every test starts with an empty assortment memo, so the encoder calls
    a test counts do not depend on the tests that ran before it."""
    I._snapshot = None
