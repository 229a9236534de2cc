"""Exception taxonomy shared across the pipeline.

The CLI maps these onto exit codes: validation problems exit 2, missing or
stale upstream artifacts exit 3, numerical failures exit 4.
"""


class SeqfuseError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SeqfuseError):
    """Input data or configuration violates a documented invariant."""


class ParseError(ValidationError):
    """A JSON file could not be decoded; carries the line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DimensionError(SeqfuseError):
    """Tensor shapes incompatible with the requested operation."""


class NumericsError(SeqfuseError):
    """A forward op produced NaN/Inf, or an iterative fit failed to converge."""


class MetricUndefinedError(SeqfuseError):
    """Metric has no value on this input (e.g. AUC with a single class)."""


class CalibrationError(SeqfuseError):
    """Calibrator misuse: degenerate fold, refit, or fit on a guarded fold."""


class PrerequisiteError(SeqfuseError):
    """A pipeline stage's upstream artifact is missing or hash-stale."""


def require_names(source: str, names, expected, stage: str) -> None:
    """Raises PrerequisiteError, naming what `source` lacks or holds beyond
    the names `expected` and the stage to rerun, unless it holds them."""
    if names != expected:
        missing, extra = sorted(expected - names), sorted(names - expected)
        raise PrerequisiteError(f"{source}: missing {missing}, extra {extra}; rerun `seqfuse {stage}`")
