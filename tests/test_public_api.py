"""The package's one list of public names matches what it exports."""

import inspect
import types

import casimir_lens
from casimir_lens import EllipticLens, RotatedLens, TwoHalvesLens


def test_all_lists_exactly_the_public_names():
    # every public non-module attribute, once, plus __version__; a name
    # imported into __init__ but left out of __all__ (or listed but gone)
    # fails here
    public = {name for name, value in vars(casimir_lens).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert len(casimir_lens.__all__) == len(set(casimir_lens.__all__))
    assert set(casimir_lens.__all__) == public | {"__version__"}


# the names geometry.for_variant builds, each with the variant it takes
TYPED = {"casimir_force": EllipticLens, "casimir_gradient": EllipticLens,
         "two_halves_force": TwoHalvesLens, "two_halves_gradient": TwoHalvesLens,
         "rotated_force": RotatedLens, "rotated_gradient": RotatedLens,
         "frequency_shift_nonlinear": EllipticLens,
         "pfa_electric_force": EllipticLens}


def test_every_public_callable_has_its_name_and_a_docstring():
    # help() shows each function and class under the name it is exported
    # as, with a docstring; the typed names geometry.for_variant builds
    # included.  The Union aliases (LensGeometry, ...) carry neither.
    callables = [name for name in casimir_lens.__all__
                 if inspect.isfunction(getattr(casimir_lens, name))
                 or inspect.isclass(getattr(casimir_lens, name))]
    assert set(TYPED) < set(callables)
    for name in callables:
        value = getattr(casimir_lens, name)
        assert value.__name__ == name
        assert (value.__doc__ or "").strip(), name


def test_typed_entry_points_annotate_geom_with_their_variant():
    # and the docstring's first line names the variant too
    for name, cls in TYPED.items():
        typed = getattr(casimir_lens, name)
        params = inspect.signature(typed).parameters
        assert params["geom"].annotation is cls, name
        assert cls.__name__ in typed.__doc__.splitlines()[0], name
