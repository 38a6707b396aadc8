import pytest

from dpratio.verify import verify_all


def test_verify_rejects_unknown_profile():
    with pytest.raises(ValueError):
        verify_all("huge")
