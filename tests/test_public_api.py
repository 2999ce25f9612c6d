"""The package's one list of public names matches what it exports."""

import types

import casimir_lens


def test_all_lists_exactly_the_public_names():
    # every public non-module attribute, once, plus __version__; a name
    # imported into __init__ but left out of __all__ (or listed but gone)
    # fails here
    public = {name for name, value in vars(casimir_lens).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert len(casimir_lens.__all__) == len(set(casimir_lens.__all__))
    assert set(casimir_lens.__all__) == public | {"__version__"}
