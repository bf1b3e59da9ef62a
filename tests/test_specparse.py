import pytest
from hypothesis import given, settings, strategies as st

from pospart.distributions import (
    CenteredScaledPoisson,
    FiniteDiscrete,
    IndependentSum,
    Normal,
    PointMass,
    Shift,
)
from pospart.errors import SpecParseError, SpecSemanticError
from pospart.specparse import parse_spec, render


def test_point():
    assert parse_spec("point(1.5)") == PointMass(1.5)


def test_nested_sum():
    got = parse_spec("sum(normal(0,0.75), cpoisson(0.25, 1))")
    assert got == IndependentSum(Normal(0.0, 0.75), CenteredScaledPoisson(0.25, 1.0))


def test_whitespace_insensitive():
    a = parse_spec("shift( sum( normal( 0 , 1 ) , point( 2 ) ) , -0.5 )")
    b = parse_spec("shift(sum(normal(0,1),point(2)),-0.5)")
    assert a == b == Shift(IndependentSum(Normal(0.0, 1.0), PointMass(2.0)), -0.5)


def test_exponent_literals():
    assert parse_spec("point(1.5e-3)") == PointMass(0.0015)
    assert parse_spec("normal(-2E2, 1e0)") == Normal(-200.0, 1.0)


def test_discrete():
    got = parse_spec("discrete(0:0.5, 1:0.5)")
    assert got == FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))


def test_weight_sum_violation_is_semantic_error():
    with pytest.raises(SpecSemanticError) as err:
        parse_spec("discrete(0:0.3, 1:0.6)")
    assert "sum to 1" in str(err.value)
    assert err.value.offset == 1


def test_parse_error_carries_offset():
    with pytest.raises(SpecParseError) as err:
        parse_spec("normal(0 1)")
    assert err.value.offset == 10
    with pytest.raises(SpecParseError) as err:
        parse_spec("gamma(1)")
    assert err.value.offset == 1
    with pytest.raises(SpecParseError) as err:
        parse_spec("point(1) junk")
    assert "end of input" in str(err.value)


def test_nesting_past_the_limit_is_a_parse_error():
    def nested(levels):
        return "shift(" * (levels - 1) + "point(1)" + ", 0.5)" * (levels - 1)

    assert parse_spec(nested(64)) == Shift(parse_spec(nested(63)), 0.5)
    with pytest.raises(SpecParseError) as err:
        parse_spec(nested(65))
    assert "deeper than 64" in str(err.value)
    assert err.value.offset == 64 * len("shift(") + 1  # the 65th construct


def test_semantic_error_in_nested_position():
    with pytest.raises(SpecSemanticError) as err:
        parse_spec("sum(point(0), normal(0, -1))")
    assert err.value.offset == 15


_leaves = st.one_of(
    st.builds(PointMass, st.floats(-50, 50, allow_nan=False).map(float)),
    st.builds(
        Normal,
        st.floats(-10, 10, allow_nan=False).map(float),
        st.floats(0.01, 25, allow_nan=False).map(float),
    ),
    st.builds(
        CenteredScaledPoisson,
        st.floats(0.01, 100, allow_nan=False).map(float),
        st.floats(0.01, 10, allow_nan=False).map(float),
    ),
    st.builds(
        lambda xs: FiniteDiscrete(tuple((float(i), 1.0 / len(xs)) for i in xs)),
        st.lists(st.integers(-9, 9), min_size=1, max_size=4, unique=True),
    ),
)

_specs = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(Shift, inner, st.floats(-20, 20, allow_nan=False).map(float)),
        st.builds(IndependentSum, inner, inner),
    ),
    max_leaves=6,
)


@given(spec=_specs)
@settings(max_examples=300)
def test_render_roundtrip(spec):
    assert parse_spec(render(spec)) == spec


def test_render_is_stable_text():
    text = render(parse_spec("sum(normal(0, 0.75), cpoisson(0.25, 1))"))
    assert parse_spec(text) == parse_spec("sum(normal(0,0.75),cpoisson(0.25,1))")
    assert text == render(parse_spec(text))
