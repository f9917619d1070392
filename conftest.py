import sys
from pathlib import Path

import pytest

# allow running the suite without installing the package
sys.path.insert(0, str(Path(__file__).parent / "src"))


@pytest.fixture
def default_digit_limit():
    """CPython's default limit of 4,300 digits on converting digit strings
    to int, whatever the environment sets."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this Python converts digit strings of any length")
    old = sys.get_int_max_str_digits()
    set_limit(4300)
    yield
    set_limit(old)
