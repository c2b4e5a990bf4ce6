"""Root-system and Weyl-group combinatorics for homogeneous spaces:
parabolic orbit analysis, curve-class arithmetic, and Schubert variety
desingularization towers."""

from .rootsys import (
    ConsistencyError,
    Root,
    RootDatum,
    build_root_system,
    cartan_matrix,
    diagram_components_after_removal,
    dynkin_dot,
    involution_i,
)
from .weyl import (
    CosetOrbit,
    WeylElement,
    bruhat_leq,
    double_coset_orbits,
    from_word,
    identity,
    longest_element,
    simple_reflection,
    weyl_group,
)
from .parabolic import (
    ParabolicSequence,
    RootSubset,
    contains_borel,
    max_parabolic_pair,
    next_borels,
    parabolic_sequence,
    standard_borel,
    standard_parabolic_set,
)
from .orbits import (
    DomainRefusal,
    LeviQuotient,
    NilradicalFiltration,
    OrbitDescriptor,
    complement_codim_ge2,
    complement_min_codim,
    is_dense_orbit,
    levi_quotient,
    nilradical_filtration,
    orbit_dimension,
    orbit_table,
    quotient_dimension,
)
from .curves import (
    CurveClass,
    ExistenceVerdict,
    curve_class,
    decide_smooth_rational_curve,
    hilbert_dimension,
    positivity,
    reduce_positive_class,
    tangent_degree,
    tangent_degree_from_roots,
)
from .desing import (
    DesingTower,
    MinimalModel,
    RefinedChain,
    borel_completion,
    build_tower,
    demazure_refinement,
    minimal_schubert,
    smoothness_sufficient,
    tower_dimension,
)

__version__ = "0.1.0"
