"""Constructors, immutability, equality, hashing and repr of the record types."""

import copy
import pickle
from fractions import Fraction

import pytest

from mta.heisenberg import (
    IdentityReport,
    Mode,
    ModeElement,
    NormalWord,
    RankCertificate,
    ZhuPolynomial,
    strong_identity,
)
from mta.lattice import CosetRep, EvenLattice, graded_dims
from mta.partitions import LabeledPartition, Partition, enumerate_partitions
from mta.peirce import (
    Algebra,
    CheckReport,
    IdealSplit,
    ModuleRep,
    PeirceAlgebra,
    PeirceReport,
    RoundtripReport,
    Subspace,
    ZigZag,
    balanced_tensor,
    heisenberg_truncation,
    ideal_unit_and_split,
    matrix_model,
    morita_backward,
    morita_forward,
    regular_module,
)
from mta.zhu import SCALAR_FIELD, SimpleModuleData, ZhuDescriptor, commutative_zhu_descriptor

# (instance, its fields in declaration order)
FROZEN = [
    (Partition((3, 1)), ((3, 1),)),
    (LabeledPartition((Partition((2,)), Partition(()))), ((Partition((2,)), Partition(())),)),
    (NormalWord((Mode(1, -2),), (1,), (Mode(2, 1),)), ((Mode(1, -2),), (1,), (Mode(2, 1),))),
    (EvenLattice(((2, 1), (1, 2))), (((2, 1), (1, 2)),)),
    (CosetRep(1, (Fraction(1, 3), Fraction(2, 3))), (1, (Fraction(1, 3), Fraction(2, 3)))),
    (SimpleModuleData("psi", (1, 1), Fraction(1, 2)), ("psi", (1, 1), Fraction(1, 2))),
    (ZhuDescriptor(0, (((1, SCALAR_FIELD),),)), (0, (((1, SCALAR_FIELD),),))),
]


@pytest.mark.parametrize("obj, values", FROZEN, ids=lambda x: type(x).__name__)
def test_frozen_value_semantics(obj, values):
    cls = type(obj)
    twin = cls(*values)
    assert twin == obj and hash(twin) == hash(obj) == hash(values)
    assert cls(**dict(zip(cls.__slots__, values))) == obj
    assert obj != values and obj != object()
    assert len({obj, twin}) == 1
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert copy.deepcopy(obj) == obj and copy.copy(obj) == obj


def test_frozen_defaults_and_reprs():
    assert Partition() == Partition(()) and NormalWord() == NormalWord((), (), ())
    assert SimpleModuleData("vac", (1,)).conformal_weight is None
    assert repr(Partition((2, 1))) == "{2,1}"
    assert repr(LabeledPartition.of([2], [])) == "({2}|{})"
    assert repr(NormalWord.build([Mode(1, -1)], [2], [Mode(1, 3)])) == "H1t-1*H2t0*H1t3"
    assert repr(EvenLattice(((2,),))) == "EvenLattice(gram=((2,),))"
    assert repr(CosetRep(0, (Fraction(1, 2),))) == "CosetRep(index=0, vector=(Fraction(1, 2),))"
    assert (
        repr(SimpleModuleData("vac", (1, 0)))
        == "SimpleModuleData(label='vac', graded_dims=(1, 0), conformal_weight=None)"
    )
    assert (
        repr(ZhuDescriptor(0, (((1, SCALAR_FIELD),),)))
        == "ZhuDescriptor(degree=0, blocks=(((1, 'scalar-field'),),))"
    )


def test_frozen_validation_still_runs():
    with pytest.raises(ValueError, match="non-increasing"):
        Partition((1, 2))
    with pytest.raises(ValueError, match="at least one slot"):
        LabeledPartition(())
    with pytest.raises(ValueError, match="negative exponent"):
        NormalWord(creators=(Mode(1, 1),))
    with pytest.raises(ValueError, match="even"):
        EvenLattice(((3,),))
    with pytest.raises(ValueError, match="no nonzero graded dimension"):
        SimpleModuleData("zero", (0, 0))
    with pytest.raises(ValueError, match="one block list per level"):
        ZhuDescriptor(1, ())


def _term(creators=(), zeros=(), annihilators=()):
    return {"coeff": "1", "creators": creators, "zeros": zeros, "annihilators": annihilators}


def _descriptor(degree, size):
    factors = [{"size": size, "ring": SCALAR_FIELD}]
    return {"degree": degree, "blocks": [{"level": 0, "factors": factors}]}


# each builder read an integer field loosely: a float was truncated or kept,
# a string went through int(), a bool counted as 1, a degree could be -1
LOOSE_INTEGERS = {
    "mode-exponent-float": (
        lambda: ModeElement.from_json(1, [_term(creators=[[1, -1.0]], annihilators=[[1, 1.0]])]),
        TypeError,
    ),
    "zero-mode-underscore": (lambda: ModeElement.from_json(1, [_term(zeros=["1_0"])]), TypeError),
    "part-float": (lambda: LabeledPartition.from_json([[2.5]]), ValueError),
    "part-bool": (lambda: LabeledPartition.from_json([[True]]), ValueError),
    "descriptor-degree-float": (lambda: ZhuDescriptor.from_json(_descriptor(1.9, 1)), TypeError),
    "descriptor-size-float": (lambda: ZhuDescriptor.from_json(_descriptor(0, 2.7)), TypeError),
    "descriptor-degree-negative": (lambda: ZhuDescriptor(-1, ()), ValueError),
    "descriptor-block-float": (lambda: ZhuDescriptor(0, (((2.5, SCALAR_FIELD),),)), TypeError),
    "commutative-degree-negative": (
        lambda: commutative_zhu_descriptor([1, 2], 1, -1),
        ValueError,
    ),
    "commutative-dimension-float": (
        lambda: commutative_zhu_descriptor([1, 2.5], 1, 1),
        TypeError,
    ),
    "block-dimension-float": (lambda: matrix_model([[1.5, 2]]), TypeError),
}


@pytest.mark.parametrize("build, error", LOOSE_INTEGERS.values(), ids=LOOSE_INTEGERS.keys())
def test_integer_fields_are_read_strictly(build, error):
    with pytest.raises(error):
        build()


# k = matrix_model([1]): its corner and degree-0 corner ideal are both k
ARGUMENT_CHECKS = {
    "balanced-tensor-two-left-modules": (
        lambda: balanced_tensor(regular_module(matrix_model([1]), 0), regular_module(matrix_model([1]), 0)),
        "need a right module and a left module",
    ),
    "peirce-negative-degree": (lambda: PeirceAlgebra(-1, [], [], []), "max_degree must be nonnegative"),
    "peirce-unit0-length": (lambda: PeirceAlgebra(0, [[1]], [], [1, 0]), "unit0 has wrong length"),
    "truncation-point-length": (
        lambda: heisenberg_truncation(1, 2, [0, 0]),
        "need one evaluation value per generator",
    ),
    "truncation-negative-degree": (lambda: heisenberg_truncation(1, -1, [0]), "max_degree must be nonnegative"),
    "ideal-outside-the-corner": (
        lambda: ideal_unit_and_split(matrix_model([1, 1]), Subspace((1, 1), 1)),
        "ideal must live in the corner component",
    ),
    "forward-right-module": (
        lambda: morita_forward(matrix_model([1]), 0, ModuleRep(Algebra(1, {}), 1, {}, side="right")),
        "expected a left module over the degree-d component",
    ),
    "forward-not-unital": (
        lambda: morita_forward(matrix_model([1]), 0, ModuleRep(Algebra(1, {}), 1, {})),
        "module is not unital for the strong identity",
    ),
    "backward-right-module": (
        lambda: morita_backward(matrix_model([1]), 0, ModuleRep(Algebra(1, {}), 1, {}, side="right")),
        "expected a left module over the corner ideal",
    ),
    "backward-wrong-algebra": (
        lambda: morita_backward(matrix_model([1]), 0, ModuleRep(Algebra(2, {}), 1, {})),
        "module is not over the degree-d corner ideal",
    ),
    "zhu-polynomial-rank": (lambda: ZhuPolynomial(0), "rank must be positive"),
    "evaluate-point-length": (
        lambda: ZhuPolynomial(1).evaluate([0, 0]),
        "evaluation point has wrong length",
    ),
    "strong-identity-negative-degree": (lambda: strong_identity(1, -1), "degree must be nonnegative"),
    "lattice-empty-gram": (lambda: EvenLattice([]), "rank must be positive"),
    "graded-dims-negative-level": (lambda: graded_dims(EvenLattice([[2]]), [0], -1), "n_max must be nonnegative"),
    "partitions-negative-weight": (lambda: enumerate_partitions(-1), "weight must be nonnegative"),
}


@pytest.mark.parametrize("build, message", ARGUMENT_CHECKS.values(), ids=ARGUMENT_CHECKS.keys())
def test_arguments_are_checked(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_strict_readers_keep_integer_inputs():
    x = ModeElement.from_json(1, [_term(creators=[[1, -1]], zeros=[1], annihilators=[[1, 1]])])
    assert repr(x) == "(1)*H1t-1*H1t0*H1t1"
    assert LabeledPartition.from_json([[2, 1], []]) == LabeledPartition.of((2, 1), ())
    assert ZhuDescriptor.from_json(_descriptor(0, 2)) == ZhuDescriptor(0, (((2, SCALAR_FIELD),),))
    assert matrix_model([[1, 2]]).dims == [[1, 2], [2, 4]]


def test_result_holders_keep_their_constructors():
    alg = Algebra(1, {(0, 0): {0: 1}})
    assert (alg.dim, alg.cells) == (1, {(0, 0): {0: 1}})
    alg = Algebra(dim=1, cells={(0, 0): {0: 1}})
    mod = ModuleRep(alg, 1, {(0, 0): {0: 1}})
    assert mod.side == "left"
    assert ModuleRep(algebra=alg, dim=1, table={(0, 0): {0: 1}}, side="right").side == "right"
    with pytest.raises(ValueError, match="side"):
        ModuleRep(alg, 1, {(0, 0): {0: 1}}, "up")
    with pytest.raises(ValueError, match="wrong shape"):
        ModuleRep(alg, 1, {(1, 0): {0: 1}})
    with pytest.raises(ValueError, match="wrong shape"):
        ModuleRep(alg, 1, {(0, 1): {0: 1}})
    with pytest.raises(ValueError, match="wrong shape"):
        ModuleRep(alg, 1, {(0, 0): {1: 1}})

    first = PeirceReport(True, None, {})
    second = PeirceReport(ok=True, first_violation=None, axioms={})
    assert first.details == {} and first.details is not second.details
    first, second = CheckReport(True, 0), CheckReport(ok=True, checked=0)
    assert first.failures == [] and first.failures is not second.failures
    first = IdentityReport(1, 0, True, [], [], [])
    second = IdentityReport(rank=1, degree=0, ok=True, labels=[], expected_diagonal=[], diagonal=[])
    assert first.mismatches == [] and first.mismatches is not second.mismatches
    assert IdentityReport(1, 0, False, [], [], [], [(0, 1)]).mismatches == [(0, 1)]

    cert = RankCertificate(1, 2, 2, [2, 2], True)
    assert vars(cert) == {
        "rank": 1,
        "degree": 2,
        "count": 2,
        "diagonal": [2, 2],
        "independent": True,
    }
    trip = RoundtripReport(True, 1, 2, 1, True, True)
    assert trip.to_json() == {
        "ok": True,
        "dim_start": 1,
        "dim_forward": 2,
        "dim_back": 1,
        "bijective": True,
        "equivariant": True,
    }
    with pytest.raises(ValueError, match="leaves the ambient space"):
        Subspace((0, 0), 1, [{1: 1}])
    # explicit zeros and integral Fractions come back canonical
    plane = Subspace((0, 0), 2, [{0: 1, 1: 0}])
    assert plane.basis == [{0: 1}]
    assert plane.coords_of({0: 0, 1: 0}) == {} and plane.coords_of({1: 1}) is None
    coords = plane.coords_of({0: Fraction(4, 2), 1: 0})
    assert coords == {0: 2} and type(coords[0]) is int
    ideal = Subspace((0, 0), 1, [{0: 1}])
    split = IdealSplit({0: 1}, ideal, Subspace((0, 0), 1), True, {"central": True})
    assert split.ok and split.to_json()["complement_dim"] == 0
    z = ZigZag(parent=None, degree=0, space=None, product={}, star=[])
    assert (z.degree, z.product, z.star) == (0, {}, [])
