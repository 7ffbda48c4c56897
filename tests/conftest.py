"""Any warning raised while a test in this directory runs fails that test, so a
numpy RuntimeWarning or an unclosed-file ResourceWarning cannot pass unseen.

The rule is set here rather than in ``pyproject.toml`` so that it covers this
suite only: ``bench/tests`` shares the project's pytest configuration."""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
