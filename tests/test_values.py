"""Value semantics of the package's immutable value classes: equality,
hashing, repr, immutability, keyword construction, defaults and the
validation errors of their constructors."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import tworow
from tworow import (
    GF2,
    GF3,
    QQ,
    BasisMatrix,
    BlockPartition,
    ExactMatrix,
    ExperimentConfig,
    ExperimentMode,
    ExperimentReport,
    FieldKind,
    FieldSpec,
    OneBlock,
    OneTrack,
    PairingTriple,
    ParseError,
    PathWitness,
    RealizationResult,
    RowPermutation,
    SimplicialGraph,
    SingularBasis,
    SizeMismatch,
    TrackMember,
)
from tworow.errors import Value

A2 = ExactMatrix(GF2, [[1, 0], [0, 1]])
A3 = ExactMatrix(GF2, [[1, 1], [0, 1]])
MEMBER = TrackMember((1, 2), 1, 2)
CONFIG = ExperimentConfig(3, 2, 5, 0, ExperimentMode.COMPLETENESS)

# class -> (field names, field values, other values for each field in
# turn, repr of the value)
CASES = {
    FieldSpec: (
        ("kind", "p"), (FieldKind.GFP, 5), (FieldKind.GF2, 7),
        "FieldSpec(kind=<FieldKind.GFP: 'gfp'>, p=5)",
    ),
    RowPermutation: (
        ("image",), ((2, 1, 3),), ((1, 2, 3),),
        "RowPermutation(image=(2, 1, 3))",
    ),
    SimplicialGraph: (
        ("n", "adj"), (3, (2, 5, 2)), (4, (0, 0, 0)),
        "SimplicialGraph(n=3, adj=(2, 5, 2))",
    ),
    PathWitness: (
        ("order", "closed"), ((1, 2, 3), False), ((2, 1, 3), True),
        "PathWitness(order=(1, 2, 3), closed=False)",
    ),
    OneBlock: (
        ("rows", "col_start", "col_len", "cyclic"), ((1, 2), 1, 2, True),
        ((1, 3), 2, 3, False),
        "OneBlock(rows=(1, 2), col_start=1, col_len=2, cyclic=True)",
    ),
    BlockPartition: (
        ("blocks", "nonzero_singletons", "zero_singletons", "owner"),
        ((OneBlock((1, 2), 1, 2, False),), ((3, 1),), ((3, 2),),
         ((0, 0), (0, 0), (-1, -1))),
        ((), ((3, 2),), ((3, 1),), ((0, 0), (0, 0), (-1, 0))),
        "BlockPartition(blocks=(OneBlock(rows=(1, 2), col_start=1, col_len=2,"
        " cyclic=False),), nonzero_singletons=((3, 1),),"
        " zero_singletons=((3, 2),), owner=((0, 0), (0, 0), (-1, -1)))",
    ),
    TrackMember: (
        ("rows", "col_start", "col_len"), ((1, 2), 1, 2), ((1, 3), 2, 3),
        "TrackMember(rows=(1, 2), col_start=1, col_len=2)",
    ),
    OneTrack: (
        ("members", "cyclic"), ((MEMBER, TrackMember((3,), 3, 1)), False),
        ((MEMBER,), True),
        "OneTrack(members=(TrackMember(rows=(1, 2), col_start=1, col_len=2),"
        " TrackMember(rows=(3,), col_start=3, col_len=1)), cyclic=False)",
    ),
    PairingTriple: (
        ("spec", "n", "edges"), (GF3, 3, ((1, 2), (2, 3))), (QQ, 4, ((1, 2),)),
        "PairingTriple(spec=FieldSpec(kind=<FieldKind.GFP: 'gfp'>, p=3), n=3,"
        " edges=((1, 2), (2, 3)))",
    ),
    BasisMatrix: (
        ("a",), (A2,), (A3,),
        "BasisMatrix(a=ExactMatrix(gf2, [1 0; 0 1]))",
    ),
    RealizationResult: (
        ("a",), (A2,), (A3,),
        "RealizationResult(a=ExactMatrix(gf2, [1 0; 0 1]))",
    ),
    ExperimentConfig: (
        ("n", "q", "trials", "seed", "mode"),
        (3, 2, 5, 0, ExperimentMode.COMPLETENESS),
        (4, 3, 6, 1, ExperimentMode.HAMILTONICITY_SWEEP),
        "ExperimentConfig(n=3, q=2, trials=5, seed=0,"
        " mode=<ExperimentMode.COMPLETENESS: 'completeness'>)",
    ),
    ExperimentReport: (
        ("config", "successes", "total", "failures"), (CONFIG, 2, 5, (A2,)),
        (ExperimentConfig(3, 3, 5, 0, ExperimentMode.COMPLETENESS), 1, 6, ()),
        "ExperimentReport(config=ExperimentConfig(n=3, q=2, trials=5, seed=0,"
        " mode=<ExperimentMode.COMPLETENESS: 'completeness'>), successes=2,"
        " total=5, failures=(ExactMatrix(gf2, [1 0; 0 1]),))",
    ),
}

# classes whose constructor rejects a swap of one field for its other value;
# their unequal cases are listed in the equality test instead
NO_SWAPS = {FieldSpec, SimplicialGraph}

CLASSES = sorted(CASES, key=lambda cls: cls.__name__)


def _build(cls):
    return cls(*CASES[cls][1])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_iff_same_class_and_fields(cls):
    names, values, others, _ = CASES[cls]
    x, y = _build(cls), _build(cls)
    assert x is not y and x == y and not x != y
    for k in [] if cls in NO_SWAPS else range(len(names)):
        changed = list(values)
        changed[k] = others[k]
        assert x != cls(*changed), names[k]
    if cls is FieldSpec:
        assert x != FieldSpec(FieldKind.GFP, 7)
        assert x != GF2
    if cls is SimplicialGraph:
        assert x != SimplicialGraph(3, (6, 5, 3))
        assert x != SimplicialGraph(2, (2, 1))
    # another class with the same fields, or the field tuple itself
    assert x.__eq__(values) is NotImplemented
    assert x != values
    sub = type("Sub", (cls,), {})(*values)
    assert x.__eq__(sub) is NotImplemented
    assert sub.__eq__(x) is NotImplemented
    assert x != sub


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_hash_is_hash_of_field_tuple(cls):
    names, values, _, _ = CASES[cls]
    x = _build(cls)
    assert hash(x) == hash(tuple(values))
    assert hash(x) == hash(tuple(getattr(x, name) for name in names))
    assert {x, _build(cls)} == {x}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_keeps_the_field_form(cls):
    assert repr(_build(cls)) == CASES[cls][3]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assignment_and_deletion_raise(cls):
    names, values, others, _ = CASES[cls]
    x = _build(cls)
    for name, other in zip(names, others):
        with pytest.raises(AttributeError):
            setattr(x, name, other)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert tuple(getattr(x, name) for name in names) == values


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copy_and_pickle_round_trip(cls):
    x = _build(cls)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is cls and y == x and repr(y) == repr(x)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_keyword_construction(cls):
    names, values, _, _ = CASES[cls]
    assert cls(**dict(zip(names, values))) == _build(cls)
    head = len(names) // 2
    mixed = cls(*values[:head], **dict(zip(names[head:], values[head:])))
    assert mixed == _build(cls)


def test_cases_cover_every_value_class():
    # a value class missing here would escape every test in this file
    for info in pkgutil.iter_modules(tworow.__path__):
        importlib.import_module(f"tworow.{info.name}")
    found = [cls for cls in Value.__subclasses__() if cls.__module__.startswith("tworow.")]
    assert sorted(cls.__name__ for cls in found) == [cls.__name__ for cls in CLASSES]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_and_trusted_construction_follow_the_slots(cls):
    names, values, _, _ = CASES[cls]
    assert cls._fields == names
    plan = (None,) if cls is OneTrack else ()  # the one slot that is not a field
    made = cls._make(*values, *plan)
    assert type(made) is cls and made == _build(cls) and repr(made) == CASES[cls][3]
    if cls is OneTrack:
        assert made._plan is None


def test_defaults():
    assert FieldSpec(FieldKind.RATIONAL) == FieldSpec(FieldKind.RATIONAL, None) == QQ
    assert FieldSpec(kind=FieldKind.RATIONAL).p is None
    report = ExperimentReport(CONFIG, 2, 5)
    assert report.failures == ()
    assert report == ExperimentReport(config=CONFIG, successes=2, total=5, failures=())


def test_cached_properties_stay_cached_and_outside_equality():
    g, h = SimplicialGraph(3, (2, 5, 2)), SimplicialGraph(3, (2, 5, 2))
    assert g.edges is g.edges
    assert g.edges == frozenset({(1, 2), (2, 3)})
    assert g == h and hash(g) == hash(h)
    assert repr(g) == "SimplicialGraph(n=3, adj=(2, 5, 2))"
    t = PairingTriple(GF3, 3, ((1, 2), (2, 3)))
    assert t.edge_index is t.edge_index
    assert t.edge_index == {(1, 2): 1, (2, 3): 2}
    assert t == PairingTriple(GF3, 3, ((1, 2), (2, 3)))


def test_simplicial_graph_stores_masks_as_a_tuple():
    g = SimplicialGraph(2, [2, 1])
    assert g.adj == (2, 1) and type(g.adj) is tuple
    assert hash(g) == hash((2, (2, 1)))


def test_row_permutation_stores_its_image_as_a_tuple():
    source = [2, 1]
    p = RowPermutation(source)
    assert p.image == (2, 1) and type(p.image) is tuple
    assert p == RowPermutation((2, 1)) and hash(p) == hash(((2, 1),))
    source.append(3)
    assert p.n == 2
    with pytest.raises(AttributeError):
        p.image.append(3)


@pytest.mark.parametrize(
    "args, message",
    [
        ((FieldKind.GF2, 3), "GF2 spec must carry p=2; use FieldSpec.gf(2)"),
        ((FieldKind.GF2,), "GF2 spec must carry p=2; use FieldSpec.gf(2)"),
        ((FieldKind.GFP, 2), "gf(p) needs an odd prime p below 2**31, got 2"),
        ((FieldKind.GFP, 9), "gf(p) needs an odd prime p below 2**31, got 9"),
        ((FieldKind.GFP, None), "gf(p) needs an odd prime p below 2**31, got None"),
        ((FieldKind.GFP, "5"), "gf(p) needs an odd prime p below 2**31, got '5'"),
        ((FieldKind.GFP, 2147483659),
         "gf(p) needs an odd prime p below 2**31, got 2147483659"),
        ((FieldKind.RATIONAL, 5), "rational spec carries no modulus"),
    ],
)
def test_field_spec_errors(args, message):
    with pytest.raises(ParseError) as err:
        FieldSpec(*args)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "image, message",
    [
        ((1, 1), "not a permutation of 1..2: (1, 1)"),
        ((0, 1), "not a permutation of 1..2: (0, 1)"),
        ((2, 3), "not a permutation of 1..2: (2, 3)"),
        ([3, 1, 1], "not a permutation of 1..3: [3, 1, 1]"),
        # entries that are no int, though 2.0 and True compare equal to one
        ((2.0, 1.0), "not a permutation of 1..2: (2.0, 1.0)"),
        ((True, 2), "not a permutation of 1..2: (True, 2)"),
        (("2", 1), "not a permutation of 1..2: ('2', 1)"),
    ],
)
def test_row_permutation_errors(image, message):
    with pytest.raises(SizeMismatch) as err:
        RowPermutation(image)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "n, adj, message",
    [
        (0, (), "graph needs at least one vertex, got 0"),
        (-1, (0,), "graph needs at least one vertex, got -1"),
        (2, (2,), "1 adjacency masks for 2 vertices"),
        (2, (1, 0), "vertex 1: loop or vertex outside 1..2"),
        (2, (4, 0), "vertex 1: loop or vertex outside 1..2"),
        (2, (-1, 0), "vertex 1: loop or vertex outside 1..2"),
        (2, (2, 0), "vertex 1: adjacency masks are not symmetric"),
        (3, (2, 1, 1), "vertex 1: adjacency masks are not symmetric"),
        (2, (2.0, 1.0), "vertex 1: adjacency mask 2.0 is not an int"),
        (2, (2, True), "vertex 2: adjacency mask True is not an int"),
        (2, (2, None), "vertex 2: adjacency mask None is not an int"),
    ],
)
def test_simplicial_graph_errors(n, adj, message):
    with pytest.raises(ParseError) as err:
        SimplicialGraph(n, adj)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((3, 2, 0, 0), SizeMismatch, "trials must be >= 1, got 0"),
        ((3, 4, 5, 0), ParseError, "field order must be prime, got 4"),
        ((1, 2, 5, 0), SizeMismatch, "experiments need n >= 2, got 1"),
        # trials is checked before q, and q before n
        ((1, 4, 0, 0), SizeMismatch, "trials must be >= 1, got 0"),
        ((1, 4, 5, 0), ParseError, "field order must be prime, got 4"),
    ],
)
def test_experiment_config_errors(args, error, message):
    with pytest.raises(error) as err:
        ExperimentConfig(*args, ExperimentMode.COMPLETENESS)
    assert str(err.value) == message


def test_basis_matrix_error():
    with pytest.raises(SingularBasis) as err:
        BasisMatrix(ExactMatrix(GF2, [[1, 0, 1], [0, 1, 1]]))
    assert str(err.value) == "basis matrix must be square, got 2x3"
