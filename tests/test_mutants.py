"""The mutant catalogue stays applicable: every patch's text occurs exactly
once in its file, so a refactor that strands one fails here, not only when
`tests/mutants.py` is run."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_patch_applies_once(mutant):
    assert (ROOT / "src" / "evflex" / mutant.file).read_text().count(mutant.old) == 1
