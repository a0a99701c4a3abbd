"""Each module's `__all__` is its public API: every name resolves, no name is
listed twice, and the package re-exports exactly the library modules' lists.
Its records are NamedTuples that keep their fields, defaults and repr, and
only five types stay dataclasses."""

import dataclasses
import importlib
import pkgutil

import pytest

import splineqi

# the library modules whose names the package re-exports, in its order; the
# command line in splineqi.cli keeps its names to itself
REEXPORTED = ("knots", "bspline", "quasi_interp", "nearbest", "simplex", "applications")
MODULES = [importlib.import_module(f"splineqi.{info.name}")
           for info in pkgutil.iter_modules(splineqi.__path__)]
LISTS = {module.__name__: module.__all__ for module in MODULES if hasattr(module, "__all__")}


@pytest.mark.parametrize("modname", ["splineqi", *LISTS])
def test_every_export_resolves(modname):
    module = importlib.import_module(modname)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_module_lists_its_names():
    assert sorted(LISTS) == sorted(module.__name__ for module in MODULES)


def test_package_reexports_the_library_lists():
    expected = ["__version__"]
    for name in REEXPORTED:
        expected += LISTS[f"splineqi.{name}"]
    assert splineqi.__all__ == expected


def test_no_name_in_two_lists():
    names = [name for names in LISTS.values() for name in names]
    assert sorted(name for name in set(names) if names.count(name) > 1) == []


# the types that need what a tuple lacks: cached properties (SplineSpace,
# SplineFunction, QuasiInterpolant; SplineSpace is also the weak-reference
# target of the near-best store), validation on creation (OperatorRecipe),
# or fields read at every evaluated point (KnotVector). Every other record
# is a NamedTuple, which is cheaper to create at import.
DATACLASSES = ["KnotVector", "OperatorRecipe", "QuasiInterpolant", "SplineFunction",
               "SplineSpace"]


def test_only_five_types_are_dataclasses():
    found = sorted(name for module in MODULES for name, obj in vars(module).items()
                   if isinstance(obj, type) and obj.__module__ == module.__name__
                   and dataclasses.is_dataclass(obj))
    assert found == DATACLASSES


def _records():
    """One instance of each public record, made the way the library makes
    it, with its fields in order and their defaults."""
    from splineqi.cli import DEFAULT_SIZES, RunConfig

    spec = splineqi.PartitionSpec("uniform", n=10)
    space = splineqi.SplineSpace.from_knots(splineqi.generate_partition(spec, 2))
    qi = splineqi.build_q2star(space)
    system = splineqi.assemble_constraints(space, 5, 2, 2)
    sin = splineqi.BUILTIN_FUNCTIONS["sin"]
    report = splineqi.convergence_study(splineqi.operator_recipe("q2star"), sin, (8, 16),
                                        spec, 2)
    lp = splineqi.solve_standard_form([[1.0, 1.0]], [1.0], [1.0, 2.0], basis=[0])
    return [
        (spec, ("family", "a", "b", "n", "ratio", "seed"),
         {"a": 0.0, "b": 1.0, "n": 8, "ratio": 1.0, "seed": 0}),
        (qi.stencil(0), ("i", "offsets", "weights", "boundary"), {"boundary": False}),
        (system, ("center", "p", "q", "offsets", "sites", "matrix", "rhs"), {}),
        (splineqi.solve_l1(system), ("weights", "value", "certified"), {}),
        (splineqi.build_watson_form(space, 5, 2),
         ("center", "p", "offsets", "free_offsets", "matrix", "lambda_star"), {}),
        (splineqi.watson_certificate(space, 5, 2), ("passes",), {}),
        (lp, ("x", "value", "status", "iterations"), {}),
        (splineqi.quadrature_from_qi(qi), ("nodes", "weights"), {}),
        (splineqi.differentiation_matrix(qi), ("qi", "nodes"), {}),
        (sin, ("name", "value", "derivatives", "integral"), {"integral": None}),
        (report.rows[0], ("n", "h_max", "errors", "order_running"), {}),
        (report, ("rows", "fitted_order"), {}),
        (RunConfig("norms"), ("command", "kind", "m", "p", "q", "family", "a", "b", "n", "ratio",
                              "seed", "f", "sizes", "out", "fmt", "audit"),
         {"kind": "q2star", "m": 2, "p": None, "q": 2, "family": "uniform", "a": 0.0, "b": 1.0,
          "n": 16, "ratio": 1.0, "seed": 0, "f": None, "sizes": DEFAULT_SIZES, "out": None,
          "fmt": "csv", "audit": False}),
    ]


RECORDS = _records()


@pytest.mark.parametrize("record, names, defaults", RECORDS,
                         ids=[type(record).__name__ for record, _, _ in RECORDS])
def test_records_keep_their_fields_repr_and_immutability(record, names, defaults):
    cls = type(record)
    assert cls._fields == names
    assert cls._field_defaults == defaults
    # a field and a new name alike refuse assignment
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    values = [getattr(record, name) for name in names]
    assert all(item is value for item, value in zip(record, values))
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({fields})"


def test_every_public_record_is_tested():
    public = {name for module in MODULES for name in getattr(module, "__all__", ())
              if isinstance(obj := getattr(module, name), type) and issubclass(obj, tuple)}
    assert public == {type(record).__name__ for record, _, _ in RECORDS}
