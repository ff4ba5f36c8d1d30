"""The public names of the package."""

import collections

import ringnet


def test_every_public_name_imports_once():
    repeated = [name for name, count in collections.Counter(ringnet.__all__).items()
                if count > 1]
    assert repeated == []
    missing = [name for name in ringnet.__all__ if not hasattr(ringnet, name)]
    assert missing == []
