"""Toolkit for the annular 8_18 projection.

Rebuilds the labeled diagram from its 3-strand braid closure, computes
exact invariants (Alexander polynomial via reduced Burau, writhe,
winding number), regenerates the traversal-order tables, and analyzes
the per-site allocation defects.
"""

from .allocation import (
    ClassStats,
    DefectReport,
    IncompleteAllocationError,
    SiteAllocation,
    defect_report,
    ensemble_totals,
    site_totals,
)
from .braid import (
    BRAID_818,
    AnnularEmbedding,
    BadRadiiError,
    BadSamplingError,
    BraidWord,
    CrossingMarker,
    InvalidBraidError,
    MultiLoopError,
    NotAKnotError,
    OpenLoopError,
    OriginOnCurveError,
    ParallelStrandsError,
    SignedCrossing,
    VertexRuleInapplicableError,
    annular_embed,
    closure_diagram,
    crossing_sign_from_geometry,
    winding_number,
    winding_phase,
    writhe,
)
from .diagram import (
    BRANCH_SITES,
    INNER_SITES,
    LETTER_SITES,
    OUTER_SITES,
    ROTATION_RELABEL,
    DiagramWord,
    EquivalenceWitness,
    Role,
    SiteClass,
    Visit,
    canonical_818,
    cyclic_equivalent,
    site_class,
    validate_word,
)
from .errors import DomainError, Knot818Error, UsageError
from .invariants import (
    PolyMatrix,
    ZeroPolynomialError,
    alexander_from_braid,
    burau_reduced,
    normalize_alexander,
)
from .laurent import (
    InexactDivisionError,
    LaurentPoly,
    ZeroArgumentError,
)
from .notation import (
    BraidTextError,
    EmptyBraidError,
    LetterOutOfRangeError,
    MultiplicityError,
    NonIntegerLetterError,
    NotationError,
    RoleMismatchError,
    UnknownTokenError,
    emit_extended_gauss,
    gauss_to_dt,
    parse_braid_word,
    parse_extended_gauss,
)
from .traversal import (
    CaseResult,
    Direction,
    EmptyEnsembleError,
    FixtureCase,
    FixtureParseError,
    FixtureReport,
    InvalidStartSpecError,
    MatchStatus,
    RoleMissingError,
    StartNotFoundError,
    StartSpec,
    StateEnsemble,
    TraversalTable,
    case_multiset_violations,
    check_fixture,
    enumerate_all,
    enumerate_representatives,
    load_errata,
    load_table_fixture,
    mirror_table,
    relabel_table,
    rotation_orbits,
    shipped_errata_path,
    shipped_fixture_path,
    traverse,
    with_mirrors,
)

__version__ = "0.1.0"
