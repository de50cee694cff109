"""The README's library tour runs as a doctest, so its printed results stay
true."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour():
    results = doctest.testfile(str(README), module_relative=False)
    assert results.attempted > 0 and results.failed == 0
