"""Finite-scale boundary, annihilator and metric computations on groups.

The package computes exact word metrics on finitely generated groups (four
built-in families), truncated horofunction boundaries with their group
action, annihilator subgroups of elements invisible to every boundary
functional, the convex-geometry pipeline that certifies an infinite boundary
for virtually abelian groups of rank >= 2, and integer-valued left-invariant
metrics that are not word metrics. Everything is exact: integer BFS,
`fractions.Fraction` linear programming, no floats.
"""

from .annihilator import (
    AnnihilatorReport,
    FunctionalZeroSets,
    Profile,
    annihilator_candidates,
    functional_annihilator,
    indistinguishability_profile,
)
from .boundary import (
    ActionTable,
    BendScan,
    BoundaryApprox,
    BoundaryClass,
    Functional,
    SignMatch,
    SlowGeodesic,
    act,
    bend_scan,
    boundary_approx,
    busemann_functional,
    dominating_busemann,
    kernel_approx,
    kernel_index_estimate,
    sign_match,
    slow_geodesic,
)
from .cayley import (
    Ball,
    GeodesicPrefix,
    PrefixDag,
    distance,
    geodesic_between,
    geodesic_prefixes,
    grow_ball,
    segment,
)
from .errors import (
    AxiomViolation,
    BoundViolated,
    Diagnostic,
    DomainExhausted,
    HoroboundError,
    NoDominatorAtLevel,
    NotExtreme,
    OutOfBall,
    SchemaError,
    ValidationError,
    VerificationFailed,
)
from .examples import REGISTRY, example
from .groups import (
    Element,
    FgAbelianSpec,
    FiniteGroupSpec,
    GeneratingSet,
    Group,
    GroupSpec,
    LamplighterZ2Spec,
    VAbExtensionSpec,
    build_group,
    symmetric_generating_set,
)
from .metrics import (
    BallSystem,
    bs_annihilator_check,
    bs_norm,
    build_ball_system,
    metric_axiom_check,
)
from .polytope import RationalPolytope, convex_hull, solve_lp, supporting_functional
from .vabelian import (
    Cloud,
    LipschitzHomData,
    QuotientGraph,
    SimpleCycleSet,
    WitnessReport,
    busemann_coset_separation,
    cloud_hull,
    conjugate_cloud,
    infinite_boundary_witness,
    lipschitz_hom,
    quotient_graph,
    simple_cycle_labels,
    step1_membership,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # groups
    "Element",
    "Group",
    "GroupSpec",
    "FgAbelianSpec",
    "VAbExtensionSpec",
    "FiniteGroupSpec",
    "LamplighterZ2Spec",
    "GeneratingSet",
    "build_group",
    "symmetric_generating_set",
    "REGISTRY",
    "example",
    # cayley
    "Ball",
    "GeodesicPrefix",
    "PrefixDag",
    "grow_ball",
    "distance",
    "segment",
    "geodesic_between",
    "geodesic_prefixes",
    # boundary
    "Functional",
    "BoundaryClass",
    "BoundaryApprox",
    "ActionTable",
    "BendScan",
    "SlowGeodesic",
    "SignMatch",
    "busemann_functional",
    "boundary_approx",
    "act",
    "kernel_approx",
    "kernel_index_estimate",
    "sign_match",
    "dominating_busemann",
    "bend_scan",
    "slow_geodesic",
    # annihilator
    "Profile",
    "AnnihilatorReport",
    "FunctionalZeroSets",
    "indistinguishability_profile",
    "annihilator_candidates",
    "functional_annihilator",
    # polytope
    "RationalPolytope",
    "convex_hull",
    "solve_lp",
    "supporting_functional",
    # vabelian
    "QuotientGraph",
    "SimpleCycleSet",
    "Cloud",
    "LipschitzHomData",
    "WitnessReport",
    "quotient_graph",
    "simple_cycle_labels",
    "conjugate_cloud",
    "cloud_hull",
    "step1_membership",
    "lipschitz_hom",
    "busemann_coset_separation",
    "infinite_boundary_witness",
    # metrics
    "BallSystem",
    "build_ball_system",
    "bs_norm",
    "bs_annihilator_check",
    "metric_axiom_check",
    # errors
    "HoroboundError",
    "Diagnostic",
    "OutOfBall",
    "DomainExhausted",
    "NoDominatorAtLevel",
    "BoundViolated",
    "NotExtreme",
    "VerificationFailed",
    "AxiomViolation",
    "SchemaError",
    "ValidationError",
]
