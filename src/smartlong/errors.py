"""Exception hierarchy used across the package."""


class SmartlongError(Exception):
    """Base class for all package errors."""


# --- data ingestion ---

class MissingCell(SmartlongError):
    """A required column is absent or ambiguous, or an outcome or covariate
    value is absent, non-numeric or non-finite.

    Raised by ``parse_long_table``, and by ``fit`` and ``fit_end_of_study``
    for a dataset built from records that holds an outcome vector of the
    wrong length or a non-finite outcome or covariate.
    """


class InconsistentCluster(SmartlongError):
    """Rows within a cluster disagree on treatment, response, or covariates.

    Also raised for a row with the wrong number of fields, a repeated time
    of an individual, a pathway that validation rejects, a duplicate cluster
    or individual id, an empty cluster, and a record whose covariate count
    differs from the schema's.  Raised by ``parse_long_table``, ``fit`` and
    ``fit_end_of_study``; ``consistency_indicator`` and ``design_weight``
    raise it for a pathway that validation rejects.
    """


class UnknownTime(SmartlongError):
    """A row's time is not on the measurement grid; raised by ``parse_long_table``."""


class BadTreatmentCode(SmartlongError):
    """A treatment/response value is outside its coding set; raised by
    ``parse_long_table``."""


# --- mean model ---

class UnknownCai(SmartlongError):
    """The requested regime is not embedded in the trial design."""


class TimeOutOfRange(SmartlongError):
    """Evaluation time falls outside the measurement grid span."""


class NonIntegrableBasis(SmartlongError):
    """A custom basis has no closed-form integral and quadrature is off."""


# --- covariance / linear algebra ---

class NotPositiveDefinite(SmartlongError):
    """An assembled covariance matrix is numerically singular or indefinite."""


class InsufficientData(SmartlongError):
    """No residual informs a required variance/correlation cell."""


class DegenerateVariance(SmartlongError):
    """A variance needed for correlation standardization is zero."""


class RankDeficient(SmartlongError):
    """The weighted normal system (or a moment matrix) is singular."""


class ZeroVariance(SmartlongError):
    """A contrast has numerically non-positive sampling variance."""


class Separation(SmartlongError):
    """A randomization-cell probability model has a divergent MLE."""
