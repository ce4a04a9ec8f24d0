"""Minimum-genus surface embeddings of complete 3-uniform hypergraphs.

The m-fold complete 3-uniform hypergraph on n vertices embeds in a surface
through its bipartite incidence (Levi) graph.  For even n the minimum
Euler genus is attained by quadrilateral embeddings, which this package
encodes as families of pairwise-compatible Eulerian circuits: it builds
them for any even order and multiplicity, converts them to and from
rotation-system embedding schemes, traces faces and genus, enumerates
inequivalent embeddings, and evaluates the exact counting bounds.

The public names below are loaded on first use (PEP 562): importing the
package imports none of its modules, and reading a name imports only the
module that defines it, so each command pays only for what it runs.
"""

from importlib import import_module

_EXPORTS = {
    "builder": (
        "InsertionTrail",
        "TransitionChoice",
        "base_set",
        "build_apex_circuits",
        "build_even",
        "build_insertion",
        "build_multi",
        "build_sigma",
        "fixture_set",
    ),
    "census": (
        "CanonicalSet",
        "EnumerationResult",
        "canonical_rewrite",
        "canonicalize",
        "count_lower_bound",
        "count_upper_bound",
        "double_factorial",
        "enumerate_variants",
        "exhaustive_classes_order4",
        "sets_isomorphic",
    ),
    "circuits": (
        "Circuit",
        "EmbeddingSet",
        "Transition",
        "ValidationReport",
        "is_compatible",
        "is_embedding_set",
        "is_strongly_compatible",
        "relabel",
        "transitions_through",
        "validate_eulerian",
    ),
    "exceptions": (
        "CopyResolutionError",
        "Disconnected",
        "FormatError",
        "GraphMismatch",
        "InvalidParameter",
        "Kn3Error",
        "MismatchedAmbient",
        "NoCommonTransition",
        "NotAnEmbeddingSet",
        "NotQuadrilateral",
        "OddOrder",
        "UnsupportedCase",
        "VertexAbsent",
    ),
    "fileio": (
        "format_census",
        "format_scheme",
        "format_set",
        "parse_census",
        "parse_scheme",
        "parse_set",
    ),
    "levi": (
        "HypergraphSpec",
        "LeviGraph",
        "build_levi",
        "euler_genus_lower_bound",
        "genus_formula",
    ),
    "scheme": (
        "EmbeddingScheme",
        "FaceReport",
        "is_orientable",
        "scheme_to_set",
        "schemes_equivalent",
        "set_to_scheme",
        "trace_faces",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
