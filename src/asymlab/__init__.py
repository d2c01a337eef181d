"""Local-asymptotic analysis of estimators and specification tests.

The library represents distributions on finite support so that score-space
projections are exact, constructs local deviation paths, implements
efficient GMM / OLS / 2SLS and the overidentification and estimator-contrast
tests, predicts asymptotic bias and local power in closed form, and verifies
those predictions by Monte Carlo.
"""

from .chi2 import TestStatistic, chisq_quantile, local_power, noncentral_chisq_cdf
from .dist import (
    Dataset,
    DiscreteDistribution,
    expectation,
    make_distribution,
    replication_seed,
    same_distribution,
)
from .gmm import GmmEstimate, estimate_gmm, kl_projection, population_dataset
from .instances import (
    GmmInstance,
    IvInstance,
    decompose_score,
    g1_instance,
    instance_by_name,
    iv1_instance,
    linear_iv_moment_model,
    overidentified_mean_model,
    resolve_score,
    tangent_bases,
)
from .iv import LinearEstimate, dwh_statistic, estimate_2sls, estimate_ols
from .mc import (
    ComparisonReport,
    ExperimentConfig,
    ExperimentSummary,
    compare_to_theory,
    run_experiment,
)
from .models import IVModel, MomentModel
from .paths import (
    LocalPath,
    hellinger_residual,
    numerical_score,
    path_distribution,
)
from .predict import Prediction, TestPrediction, build_prediction, hall_split
from .scores import (
    DecompositionReport,
    ScoreFunction,
    SubspaceBasis,
    centered_score,
    inner_product,
    project,
)

__version__ = "0.1.0"
