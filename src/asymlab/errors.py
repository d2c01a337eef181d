"""Exception types and warnings shared across the library."""


class AsymlabError(Exception):
    """Base class for every error raised by this library."""


# --- finite-support distributions ---------------------------------------


class LengthMismatch(AsymlabError):
    """Support, probability, or per-point value arrays disagree in length."""


class ZeroOrNegativeProb(AsymlabError):
    """A probability atom is zero or negative."""


class DuplicateSupportPoint(AsymlabError):
    """Two support points coincide."""


# --- score space ----------------------------------------------------------


class DistributionMismatch(AsymlabError):
    """Score functions or bases attached to different distributions were mixed."""


# --- moment models and GMM -------------------------------------------------


class MomentNotSatisfied(AsymlabError):
    """The moment function has a nonzero mean at the claimed true parameter."""


class SingularSigma(AsymlabError):
    """The population moment second-moment matrix is singular."""


class SingularSigmaHat(AsymlabError):
    """The sample moment second-moment matrix is singular."""


class RankDeficientJacobian(AsymlabError):
    """The mean moment Jacobian does not have full column rank."""


class Infeasible(AsymlabError):
    """Zero is not interior to the convex hull of the moment values."""


class NoConvergence(AsymlabError):
    """An iterative solver failed to reach its tolerance."""


# --- linear IV --------------------------------------------------------------


class NullModelViolated(AsymlabError):
    """The distribution does not satisfy the conditional null model exactly."""


class SingularDesign(AsymlabError):
    """The regressor Gram matrix is singular."""


class SingularInstrumentGram(AsymlabError):
    """The instrument Gram matrix is singular."""


class RankDeficientFirstStage(AsymlabError):
    """Instruments do not span the regressors (rank failure)."""


# --- local paths -------------------------------------------------------------


class PositivityViolated(AsymlabError):
    """A tilt parameter would make some probability atom non-positive."""


# --- distribution theory -------------------------------------------------------


class DomainError(AsymlabError):
    """An argument lies outside the mathematical domain of the function."""


# --- Monte Carlo / configuration ----------------------------------------------


class ConfigInvalid(AsymlabError):
    """An experiment configuration failed validation."""


class TooManyFailures(AsymlabError):
    """More than 1% of Monte Carlo replications failed; ``summary`` covers
    those that succeeded, or is None when fewer than two did."""

    def __init__(self, message: str, summary=None):
        super().__init__(message)
        self.summary = summary


class ShapeMismatch(AsymlabError):
    """Arrays or result objects have incompatible shapes or keys."""


class NegativeSpectrumWarning(UserWarning):
    """No longer raised (the DWH contrast variance is positive semidefinite
    by construction); kept because ``bench/tracing.py`` counts it."""
