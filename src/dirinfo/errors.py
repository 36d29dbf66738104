"""Exception and warning types shared across the package."""


class DirinfoError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DirinfoError):
    """Malformed input file (ragged rows, non-numeric cells, bad JSON)."""


class SchemaError(DirinfoError):
    """Structurally valid file violating a schema invariant (e.g. duplicate labels)."""


class PartitionError(DirinfoError):
    """Node sets that do not form a valid disjoint partition."""


class DegenerateColumn(DirinfoError):
    """Column that cannot be symbolized under the requested scheme."""


class SelectionError(DirinfoError):
    """Empty or out-of-range node/time selection."""


class BudgetError(DirinfoError):
    """An exact computation would allocate an array larger than the state
    budget.  ``required`` is the entries of that array: the largest array
    of a marginal's contraction, ``M**n`` for the dense table, a plug-in
    kernel or a window transition matrix; nothing was allocated."""

    def __init__(self, required, budget):
        self.required = int(required)
        self.budget = int(budget)
        super().__init__(
            f"needs an array of {self.required} entries, state budget is {self.budget}"
        )


class InsufficientData(DirinfoError):
    """Too few samples for the requested fit."""


class ParamError(DirinfoError):
    """Parameter outside its admissible range."""


class InvalidModel(DirinfoError):
    """Model fields violating a hard invariant (non-stochastic kernel, asymmetric covariance)."""


class SingularDesign(DirinfoError):
    """Rank-deficient regression problem."""


class UnstableModel(DirinfoError):
    """Operation requiring stationarity applied to an unstable model."""


class FitError(DirinfoError):
    """Iterative model fit failed to converge."""


class CalibrationError(DirinfoError):
    """Test calibration impossible with the given settings (e.g. too few surrogates)."""


class DivergenceInfinite(RuntimeWarning):
    """A Kullback divergence is infinite because of a support mismatch."""


class UnstableFitWarning(RuntimeWarning):
    """A fitted model fails the stationarity (stability) check."""
