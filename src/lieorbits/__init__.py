"""Root-system and Weyl-group combinatorics for homogeneous spaces:
parabolic orbit analysis, curve-class arithmetic, and Schubert variety
desingularization towers.

Names load on first use: ``lieorbits.X`` (or ``from lieorbits import X``)
imports the module that defines ``X`` and what it needs, and no other, so a
``lie`` command pays only for the modules it runs.  ``lieorbits.rootsys``
and the other library modules load the same way.  Records are
``typing.NamedTuple``s and the value types (``Root``, ``WeylElement``,
``RootSubset``) hand-written, so that a cold ``lie`` loads neither the
standard data-class module nor the ``inspect`` it pulls in: 11-13 ms of
import on a 2-core Xeon, measure before bringing the decorator back."""

from importlib import import_module

#: each exported name, by the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "rootsys": "ConsistencyError DomainRefusal Root RootDatum build_root_system cartan_matrix"
        " diagram_components_after_removal involution_i",
        "weyl": "CosetOrbit WeylElement bruhat_leq double_coset_orbits from_word identity"
        " longest_element simple_reflection weyl_group",
        "parabolic": "ParabolicSequence RootSubset max_parabolic_pair next_borels"
        " parabolic_sequence quotient_dimension standard_borel standard_parabolic_set",
        "orbits": "LeviQuotient NilradicalFiltration OrbitDescriptor complement_codim_ge2"
        " complement_min_codim is_dense_orbit levi_quotient nilradical_filtration"
        " orbit_table",
        "curves": "CurveClass ExistenceVerdict curve_class decide_smooth_rational_curve"
        " hilbert_dimension positivity reduce_positive_class tangent_degree"
        " tangent_degree_from_roots",
        "desing": "DesingTower MinimalModel RefinedChain borel_completion build_tower"
        " demazure_refinement minimal_schubert smoothness_sufficient tower_dimension",
    }.items()
    for name in names.split()
}
__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS.values():
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
