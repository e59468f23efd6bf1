import types

import linksig


def test_all_lists_exactly_the_public_bindings():
    public = {
        name
        for name, value in vars(linksig).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(linksig.__all__) == len(set(linksig.__all__))
    assert set(linksig.__all__) == public
    for name in linksig.__all__:
        assert hasattr(linksig, name)
