import types

import toricbott


def test_public_names_resolve_and_are_not_modules():
    assert len(toricbott.__all__) == len(set(toricbott.__all__))
    for name in toricbott.__all__:
        assert not isinstance(getattr(toricbott, name), types.ModuleType), name
