"""Exception hierarchy used across the package."""


class SmartlongError(Exception):
    """Base class for all package errors."""


# --- data ingestion ---

class MissingCell(SmartlongError):
    """A required column is absent or ambiguous, or an outcome or covariate
    value is absent, non-numeric or non-finite."""


class InconsistentCluster(SmartlongError):
    """Rows within a cluster disagree on treatment, response, or covariates."""


class UnknownTime(SmartlongError):
    """A row's time is not on the measurement grid."""


class BadTreatmentCode(SmartlongError):
    """A treatment/response value is outside its coding set."""


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
