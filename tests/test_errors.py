"""Every package error survives pickling, so a caller may send one between processes."""
from __future__ import annotations

import inspect
import pickle
from types import SimpleNamespace

import pytest

from poromoist import errors

# One instance of each class whose __init__ takes more than a message.
MADE = {
    errors.ParseError: lambda: errors.ParseError("bad JSON", line=3),
    errors.ValidationError: lambda: errors.ValidationError(
        [("grid.n", "must be at least 3"), ("stepping.dt", "must be positive")]),
    errors.ZeroPivot: lambda: errors.ZeroPivot(7, 1e-300),
    errors.DominanceViolation: lambda: errors.DominanceViolation("vapor", 4, -2.5e-3),
    errors.PicardDivergence: lambda: errors.PicardDivergence(
        "no convergence in 50 sweeps at dt=0.01",
        SimpleNamespace(update=3.2e-9, sweeps=50)),
}

CLASSES = sorted((cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                  if issubclass(cls, errors.PoromoistError)),
                 key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_error_survives_a_pickle_round_trip(cls):
    error = MADE.get(cls, lambda: cls("something failed"))()
    if isinstance(error, errors.StepFailure):
        error.sweeps = 9
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)
    for name in ("sweeps", "record", "index", "margin", "violations", "line"):
        if hasattr(error, name):
            assert getattr(copy, name) == getattr(error, name)
