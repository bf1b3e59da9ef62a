"""Every PositivePartError survives pickle, so a failure can cross a process
boundary with its type, message and attributes."""

import inspect
import pickle

import pytest

from pospart import errors
from pospart.quadrature import QuadratureResult

PARTIAL = QuadratureResult(0.5, 1e-3, 2e-4, 7, 105, 12.5)

EXAMPLES = {
    errors.PositivePartError: errors.PositivePartError("failed"),
    errors.PreconditionError: errors.PreconditionError("p must be positive"),
    errors.DomainError: errors.DomainError("t must be positive"),
    errors.SpecParseError: errors.SpecParseError("expected ')'", 7),
    errors.SpecSemanticError: errors.SpecSemanticError("weights sum to 0.9", 3),
    errors.QuadratureError: errors.QuadratureError("no convergence"),
    errors.NonFiniteIntegrand: errors.NonFiniteIntegrand(2.5),
    errors.BudgetExceeded: errors.BudgetExceeded(PARTIAL, 1000),
    errors.MomentMismatch: errors.MomentMismatch(2, 1.5e-3),
    errors.NumericalDegeneracy: errors.NumericalDegeneracy("singular"),
    errors.DegenerateMoment: errors.DegenerateMoment(41.0),
    errors.BracketFailure: errors.BracketFailure(-3.0, 1.0, 0.25, 0.75),
    errors.UnmetBudget: errors.UnmetBudget("m(t) at t = 1.0", 2e-9, 1e-9, PARTIAL),
    errors.SeriesGuard: errors.SeriesGuard("rate above the guard"),
}


def test_every_error_class_has_an_example():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.PositivePartError)}
    assert classes == set(EXAMPLES)


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_error_round_trips_through_pickle(cls):
    exc = EXAMPLES[cls]
    got = pickle.loads(pickle.dumps(exc))
    assert type(got) is cls
    assert str(got) == str(exc)
    assert got.args == exc.args
    assert vars(got) == vars(exc)
