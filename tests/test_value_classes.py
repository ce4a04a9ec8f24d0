"""The package's value classes, which take equality, the hash and the repr
from `exceptions.Value`, behave as the dataclasses they replace: the same
constructor parameters and defaults, equality over the same fields, the
same hash (or none), repr, immutability and pickling.

Each class is checked against a dataclass declared as it was declared
before, with the same name, on the same arguments.  No class but
`LeviGraph`, equal only to itself, writes these methods out again."""

import dataclasses
import inspect
import pickle
from itertools import product

import pytest

from kn3genus import (
    CanonicalSet,
    Circuit,
    EmbeddingSet,
    EnumerationResult,
    HypergraphSpec,
    InsertionTrail,
    LeviGraph,
    Transition,
    TransitionChoice,
    ValidationReport,
    build_levi,
    fixture_set,
)
from kn3genus.exceptions import Value
from kn3genus.scheme import FaceReport, FamilyReport, set_to_scheme, verify_family

frozen = dataclasses.dataclass(frozen=True)
skip = dataclasses.field(repr=False, compare=False)


class Before:
    """The dataclass declarations the hand-written classes replace."""

    @frozen
    class HypergraphSpec:
        n: int
        m: int = 1

    @dataclasses.dataclass(frozen=True, eq=False)
    class LeviGraph:
        n: int
        m: int
        x_end: tuple = dataclasses.field(repr=False)
        first_ids: dict = dataclasses.field(repr=False)

    @frozen
    class Transition:
        a: int
        mid: int
        b: int

    @frozen
    class Circuit:
        excluded: int
        n: int
        m: int
        seq: tuple
        copy_labels: tuple = dataclasses.field(default=None, compare=False)

    @frozen
    class EmbeddingSet:
        n: int
        m: int
        circuits: tuple
        strong: bool

    @dataclasses.dataclass
    class ValidationReport:
        ok: bool
        failures: list

    @frozen
    class TransitionChoice:
        pairing: tuple = None
        transition_index: dict = None
        apex_swap: bool = False

    @frozen
    class InsertionTrail:
        vertex: int
        order: int
        tokens: tuple

    @frozen
    class CanonicalSet:
        n: int
        m: int
        circuits: tuple

    @dataclasses.dataclass
    class EnumerationResult:
        families: list
        budget_exhausted: bool
        attempts: int
        duplicates: int
        rejected: int

    @frozen
    class FaceReport:
        face_count: int
        face_lengths: tuple
        euler_genus: int
        orientable: bool

    @frozen
    class FamilyReport:
        eulerian: object
        compatible: object
        scheme: object
        faces: object
        expected_genus: object
        family: object = skip


def _arguments():
    """Per class, argument lists whose instances are compared pairwise."""
    strong6 = fixture_set("strong_6")
    c1, c2 = strong6.circuit(1), strong6.circuit(2)
    graph = build_levi(HypergraphSpec(6, 2))
    scheme = set_to_scheme(strong6)
    ok, failed = ValidationReport(True, []), ValidationReport(False, ["pair {1,2}"])
    faces = verify_family(strong6).faces
    return {
        HypergraphSpec: [(6,), (6, 1), (6, 2), (8, 1)],
        LeviGraph: [(6, 2, graph.x_end, graph.first_ids), (6, 2, (), {})],
        Transition: [(1, 2, 3), (1, 2, 3), (3, 2, 1)],
        Circuit: [
            (1, 6, 1, c1.seq), (1, 6, 1, c1.seq, (0,) * 10), (2, 6, 1, c2.seq),
            (1, 6, 2, c1.seq, None),
        ],
        EmbeddingSet: [(6, 1, strong6.circuits, True), (6, 1, strong6.circuits, False)],
        ValidationReport: [(True, []), (False, ["x"]), (False, ["x"])],
        TransitionChoice: [(), (((1, 2), (3, 4)),), (None, {1: 0}, True), (None, None, True)],
        InsertionTrail: [(1, 6, (7, 2, 8)), (1, 6, (7, 2, 8)), (2, 6, (8,))],
        CanonicalSet: [(6, 1, ((2, 3),)), (6, 1, ((2, 3),)), (6, 2, ((2, 3),))],
        EnumerationResult: [([strong6], False, 3, 1, 1), ([], True, 0, 0, 0)],
        FaceReport: [(faces.face_count, faces.face_lengths, 22, True), (10, (4,) * 10, 2, False)],
        FamilyReport: [
            (ok, ok, scheme, faces, 2, strong6), (ok, ok, scheme, faces, 2, None),
            (failed, None, None, None, None, strong6),
        ],
    }


CASES = _arguments()


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_class_behaves_as_its_dataclass(cls):
    before = getattr(Before, cls.__name__)
    now = inspect.signature(cls).parameters.values()
    then = inspect.signature(before).parameters.values()
    assert [(p.name, p.default) for p in now] == [(p.name, p.default) for p in then]
    assert (cls.__hash__ is None) == (before.__hash__ is None)
    pairs = [(cls(*args), before(*args)) for args in CASES[cls]]
    for value, reference in pairs:
        assert repr(value) == repr(reference).replace("Before.", "")
        assert value != object() and (value == object()) == (reference == object())
        if before.__eq__ is object.__eq__:  # equal when the same object
            assert hash(value) == object.__hash__(value)
        elif before.__hash__ is not None:
            try:
                expected = hash(reference)
            except TypeError:  # a field that is not hashable
                with pytest.raises(TypeError):
                    hash(value)
            else:
                assert hash(value) == expected
        if before.__dataclass_params__.frozen:
            with pytest.raises(AttributeError):
                value.n = 1
            with pytest.raises(AttributeError):
                del value.n
        if cls not in (LeviGraph, FamilyReport):  # pickled by the last test, and test_scheme
            assert pickle.loads(pickle.dumps(value)) == value
    for (value, reference), (other, other_reference) in product(pairs, repeat=2):
        assert (value == other) == (reference == other_reference)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_classes_take_their_methods_from_the_base(cls):
    # `__hash__ = None` marks a mutable class; it writes no method.
    written = {name for name in ("__eq__", "__hash__", "__repr__") if cls.__dict__.get(name)}
    assert written == ({"__repr__"} if cls is LeviGraph else set())
    assert issubclass(cls, Value) == (cls is not LeviGraph)


def test_mutable_value_classes_take_assignment():
    report = ValidationReport(True, [])
    report.ok = False
    assert report == ValidationReport(False, [])
    result = EnumerationResult([], False, 0, 0, 0)
    result.rejected = 1
    assert result.rejected == 1


def test_a_levi_graph_keeps_its_cached_views_and_pickles_to_the_shared_graph():
    graph = build_levi(HypergraphSpec(6, 1))
    assert graph.y_vertices is graph.y_vertices and len(graph.edges) == graph.edge_count
    assert pickle.loads(pickle.dumps(graph)) is graph
    assert graph == graph and graph != LeviGraph(6, 1, graph.x_end, graph.first_ids)
