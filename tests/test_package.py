"""The package's public name list."""

import regfactor


def test_all_names_resolve_without_duplicates():
    missing = [name for name in regfactor.__all__ if not hasattr(regfactor, name)]
    assert missing == []
    assert len(set(regfactor.__all__)) == len(regfactor.__all__)
