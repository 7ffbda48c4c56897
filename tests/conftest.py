"""Any warning raised while a test in this directory runs fails that test, so a
numpy RuntimeWarning or an unclosed-file ResourceWarning cannot pass unseen.

The rule is set here rather than in ``pyproject.toml`` so that it covers this
suite only: ``bench/tests`` shares the project's pytest configuration.

One third-party warning is exempt: when a hypothesis test fails, the hypothesis
plugin imports modules that warn that ``mypy_extensions.TypedDict`` is
deprecated. As an error, that warning aborts the whole session from inside the
plugin's report hook instead of reporting the one failure."""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent
_PLUGIN_DEPRECATION = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error", _PLUGIN_DEPRECATION))
