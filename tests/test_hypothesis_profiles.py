"""Tier-1 draws the same hypothesis examples on every run: every ``@given``
test under ``tests/`` and ``bench/`` is derandomized, with no example
database, under the ``tier1`` profile that ``conftest.py`` loads."""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from conftest import examples

REPO = Path(__file__).resolve().parents[1]


def _module(path: Path):
    """The test module at ``path``, as pytest imported it, or imported here
    with its directory on the path when this run did not collect it."""
    module = sys.modules.get(path.stem)
    if module is not None and Path(module.__file__).resolve() == path:
        return module
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(path.parent))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(path.parent))
    return module


def given_tests():
    """Every ``@given`` test of the repository, by file and name, with the
    settings it runs under."""
    paths = sorted([*REPO.glob("tests/test_*.py"),
                    *REPO.glob("bench/test_*.py")])
    for path in paths:
        for name, fn in vars(_module(path.resolve())).items():
            if getattr(fn, "is_hypothesis_test", False):
                yield (f"{path.parent.name}/{path.name}::{name}",
                       fn._hypothesis_internal_use_settings)


def test_every_given_test_is_derandomized_under_tier1(request):
    chosen = request.config.getoption("--hypothesis-profile", None)
    if chosen not in (None, "tier1"):
        pytest.skip(f"the {chosen} profile draws at random")
    assert settings.get_current_profile_name() == "tier1"
    drawn = dict(given_tests())
    assert len(drawn) >= 16
    assert {name: (s.derandomize, s.database) for name, s in drawn.items()
            if not s.derandomize or s.database is not None} == {}
    assert examples(150) == 150
