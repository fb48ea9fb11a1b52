"""Hypothesis profiles for the test suite.

``tier1`` is loaded unless ``--hypothesis-profile`` names another one: it
derandomizes every ``@given`` test and keeps no example database, so each
run draws the same examples.  ``soak`` draws at random and runs each test
:data:`SOAK_FACTOR` times its tier-1 example count, through
:func:`examples`:

    PYTHONPATH=src python -m pytest tests --hypothesis-profile=soak
"""

from hypothesis import settings

#: How many times its tier-1 example count a test runs under ``soak``.
SOAK_FACTOR = 20

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile(
    "soak", derandomize=False,
    max_examples=SOAK_FACTOR * settings.get_profile("tier1").max_examples)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile", None):
        settings.load_profile("tier1")


def examples(n: int) -> int:
    """A test's example count ``n`` under the loaded profile: ``n`` under
    ``tier1``, and :data:`SOAK_FACTOR` times ``n`` under ``soak``."""
    return (n * settings.default.max_examples
            // settings.get_profile("tier1").max_examples)
