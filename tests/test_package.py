"""The package's public names."""

import spinforge


def test_every_exported_name_resolves():
    missing = [name for name in spinforge.__all__ if not hasattr(spinforge, name)]
    assert missing == []


def test_no_exported_name_repeats():
    assert len(set(spinforge.__all__)) == len(spinforge.__all__)
