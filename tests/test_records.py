"""The record types callers build and read: construction, defaults, equality and immutability."""

import pytest

from braidcalc.algebras import FiniteDimAlgebra
from braidcalc.bicovariance import KappaData
from braidcalc.bundles import Bundle
from braidcalc.calculi import FirstOrderCalculus, FlipOver
from braidcalc.covariance import LeftCovariantData, RightCovariantData
from braidcalc.fixtures import conjugation_star
from braidcalc.groups import BraidSystem, Completion, MultiBraidedGroup
from braidcalc.linalg import AntilinMap, DimensionMismatch, LinMap, identity
from braidcalc.reporting import Entry, Report
from braidcalc.star import StarGroup


def assert_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_entry():
    e = Entry("ALG_ASSOC", "pass")
    assert (e.id, e.status, e.ctx, e.name, e.witness, e.note) == ("ALG_ASSOC", "pass", "", "", None, "")
    full = Entry(id="X", status="fail", ctx="group", name="EQ_1", witness={"reason": "r"}, note="n")
    assert full == Entry("X", "fail", "group", "EQ_1", {"reason": "r"}, "n") != e
    assert full._replace(id="Y") == Entry("Y", "fail", "group", "EQ_1", {"reason": "r"}, "n")
    assert_immutable(e, "note")


def test_report():
    a, b = Report(), Report(ctx="group")
    assert (a.ctx, a.entries, b.ctx, b.entries) == ("", [], "group", [])
    a.ok("K")
    assert b.entries == [] and a.entries == [Entry("K", "pass")]
    kept = [Entry("F", "fail", witness={})]
    assert Report(entries=kept).entries is kept


def test_finite_dim_algebra(k2):
    a = k2.alg
    same = FiniteDimAlgebra(dim=2, unit=a.unit, mult=a.mult, labels=a.labels)
    assert same == a and hash(same) == hash(a)
    assert FiniteDimAlgebra(2, a.unit, a.mult).labels == ("e0", "e1")
    assert FiniteDimAlgebra(2, a.unit, a.mult, ("x", "y")) != a
    assert_immutable(a, "labels")
    with pytest.raises(DimensionMismatch, match="unit"):
        FiniteDimAlgebra(3, a.unit, a.mult)
    with pytest.raises(DimensionMismatch, match="mult"):
        FiniteDimAlgebra(2, a.unit, identity(2))


def test_multi_braided_group(k2, k2_universal):
    g = MultiBraidedGroup(k2.alg, k2.coproduct, k2.counit, k2.antipode, k2.braiding)
    assert g == g != k2 and hash(g) == hash(g) != hash(k2)  # equal and hashed by identity
    tau = g.tau
    assert_immutable(g, "braiding")
    assert_immutable(g, "_cache")
    assert g.tau is tau and g.braiding is k2.braiding
    with pytest.raises(AttributeError):
        g.extra = None
    records = (k2.alg, g, k2_universal, StarGroup(g, conjugation_star(g)))
    for record in records:
        with pytest.raises(AttributeError, match=f"^{type(record).__name__} is immutable$"):
            record.name = None


def test_first_order_calculus(k2_universal):
    c = k2_universal
    g, maps = c.group, {"mgl": c.mgl, "mgr": c.mgr, "d": c.d}
    copy = FirstOrderCalculus(g, c.gdim, c.mgl, c.mgr, c.d, "universal")
    assert copy == FirstOrderCalculus(group=g, gdim=c.gdim, name="universal", **maps) == c
    assert hash(copy) == hash(c)
    assert FirstOrderCalculus(g, c.gdim, **maps).name == "calculus"
    assert FirstOrderCalculus(g, c.gdim, **maps) != c
    assert copy._cache == {} and copy._cache is not FirstOrderCalculus(g, c.gdim, **maps)._cache
    copy._cache["flip", "left", g.braiding] = None
    assert copy == c  # the derived maps and solved flips take no part in equality
    assert_immutable(c, "name")
    for bad, message in (("mgl", "mgl"), ("mgr", "mgr"), ("d", "d must")):
        with pytest.raises(DimensionMismatch, match=message):
            FirstOrderCalculus(g, c.gdim, **dict(maps, **{bad: LinMap.zero(1, 1)}))


def test_flip_over():
    f = FlipOver("left", 1, identity(2), identity(2))
    assert f == FlipOver(direction="left", label=1, map=identity(2), inverse=identity(2)) != f._replace(label=2)
    assert_immutable(f, "label")


def test_braid_system_and_completion():
    s = BraidSystem.of(1, [identity(1), identity(1)])
    assert s == BraidSystem(dim=1, elements=(identity(1),))
    with pytest.raises(DimensionMismatch):
        BraidSystem.of(2, [identity(2)])
    done = Completion(s, False)
    assert done == Completion(system=s, truncated=False) != Completion(s, True)
    assert_immutable(s, "elements")
    assert_immutable(done, "truncated")


def test_star_group(k2):
    star = conjugation_star(k2)
    sg = StarGroup(k2, star)
    assert sg == StarGroup(group=k2, star=AntilinMap(star.lin)) and hash(sg) == hash(StarGroup(k2, star))
    assert_immutable(sg, "star")
    with pytest.raises(ValueError, match="antilinear endomorphism"):
        StarGroup(k2, AntilinMap(identity(1)))


def test_key_records_are_equal_within_their_class_only(k2, k2_universal):
    # FirstOrderCalculus and StarGroup share FiniteDimAlgebra's __eq__ and __hash__ through _key
    sg = StarGroup(k2, conjugation_star(k2))
    records = (k2.alg, k2_universal, sg)
    for x in records:
        for y in records:
            if x is not y:
                assert not x == y and x != y
    for x in (k2_universal, sg):
        assert hash(x) == hash(x._key())


@pytest.mark.parametrize(
    "record, names",
    [
        (LeftCovariantData, "calculus action inv_space incl proj_coords pi pi_hat ideal sigma_star circ"),
        (RightCovariantData, "calculus action inv_space incl proj_coords zeta zeta_hat ideal star_sigma bullet"),
    ],
)
def test_covariant_data(record, names):
    fields = {name: identity(i + 1) for i, name in enumerate(names.split())}
    data = record(**fields)
    assert data == record(*fields.values())
    assert data.inv_dim == 6  # the codomain of pi (left) or zeta (right), the sixth field
    assert_immutable(data, "action")


def test_kappa_data():
    kd = KappaData(identity(2), identity(2))
    assert kd == KappaData(map=identity(2), inverse=identity(2))
    assert (kd.map, kd.inverse) == (identity(2), identity(2))


def test_bundle(k2):
    a, b = Bundle(k2), Bundle(group=k2, star=conjugation_star(k2))
    assert (a.star, a.calculi, a.ideals) == (None, [], [])
    a.calculi.append(None)
    a.ideals.append(("zero", []))
    assert (b.calculi, b.ideals) == ([], [])
    assert b.star == conjugation_star(k2)
