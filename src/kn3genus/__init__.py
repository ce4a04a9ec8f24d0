"""Minimum-genus surface embeddings of complete 3-uniform hypergraphs.

The m-fold complete 3-uniform hypergraph on n vertices embeds in a surface
through its bipartite incidence (Levi) graph.  For even n the minimum
Euler genus is attained by quadrilateral embeddings, which this package
encodes as families of pairwise-compatible Eulerian circuits: it builds
them for any even order and multiplicity, converts them to and from
rotation-system embedding schemes, traces faces and genus, enumerates
inequivalent embeddings, and evaluates the exact counting bounds.
"""

from .builder import (
    InsertionTrail,
    TransitionChoice,
    base_set,
    build_apex_circuits,
    build_even,
    build_insertion,
    build_multi,
    build_sigma,
    fixture_set,
)
from .census import (
    CanonicalSet,
    EnumerationResult,
    canonical_rewrite,
    canonicalize,
    count_lower_bound,
    count_upper_bound,
    double_factorial,
    enumerate_variants,
    exhaustive_classes_order4,
    sets_isomorphic,
)
from .circuits import (
    Circuit,
    EmbeddingSet,
    Transition,
    ValidationReport,
    is_compatible,
    is_embedding_set,
    is_strongly_compatible,
    relabel,
    transitions_through,
    validate_eulerian,
)
from .exceptions import (
    CopyResolutionError,
    Disconnected,
    FormatError,
    GraphMismatch,
    InvalidParameter,
    Kn3Error,
    MismatchedAmbient,
    NoCommonTransition,
    NotAnEmbeddingSet,
    NotQuadrilateral,
    OddOrder,
    UnsupportedCase,
    VertexAbsent,
)
from .fileio import (
    format_census,
    format_scheme,
    format_set,
    parse_census,
    parse_scheme,
    parse_set,
)
from .levi import (
    HypergraphSpec,
    LeviGraph,
    build_levi,
    euler_genus_lower_bound,
    genus_formula,
)
from .scheme import (
    EmbeddingScheme,
    FaceReport,
    is_orientable,
    scheme_to_set,
    schemes_equivalent,
    set_to_scheme,
    trace_faces,
)

__version__ = "0.1.0"
