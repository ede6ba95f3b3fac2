"""Longitudinal marginal mean analysis of clustered SMARTs.

Fits weighted estimating equations for three-level outcomes (repeated
measures within individuals within clusters) and compares embedded adaptive
interventions through contrast-based Wald inference, alongside the two-level
end-of-study analysis it is compared against.
"""

__version__ = "0.1.0"

from .design import DesignKind, EmbeddedCai, SmartDesign, consistency_indicator, design_weight, enumerate_cais
from .data import (
    ClusterRecord,
    IndividualRecord,
    TableSchema,
    TimeGrid,
    TrialDataset,
    parse_long_table,
    serialize_long_table,
    validate,
)
from .meanmodel import (
    AnchoredKnotBasis,
    ContrastVector,
    CustomBasis,
    MeanModelSpec,
    ThetaEstimate,
    contrast_auc,
    contrast_end_of_study,
    contrast_second_stage_slope,
    custom_contrast,
    make_saturated_basis,
    mu,
    stack_design_matrix,
)
from .workingcov import (
    AlphaEstimate,
    BetweenCorr,
    CorrCai,
    VarianceCai,
    VarianceTime,
    WithinCorr,
    WorkingCovSpec,
    build_V,
)
from .gee import (
    AdjustmentOptions,
    FitOptions,
    FitResult,
    WaldResult,
    WeightMode,
    WeightModel,
    fit,
    fit_end_of_study,
    wald_test,
)
