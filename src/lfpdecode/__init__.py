"""Sequence-space shrinkage estimation and classification of sampled signals.

The package turns uniformly sampled signals into trigonometric-basis
coefficients, denoises them with linear minimax or blockwise James-Stein
shrinkage, and classifies multichannel recordings with PCA + LDA pipelines.
A synthetic data generator and a set of Monte-Carlo experiments round out
the toolkit; ``lfpdecode.cli`` exposes everything on the command line.
"""

from .basis import (
    CoefficientVector,
    SampledSignal,
    basis_matrix,
    coeff_l2_distance,
    forward_transform,
    reconstruct,
    transform_rows,
    trig_basis_eval,
    uniform_basis,
)
from .shrinkage import (
    BlockPartition,
    EllipsoidSpec,
    bjs_coefficient_count,
    bjs_sampled_rows,
    ellipsoid_weights,
    james_stein,
    pinsker_mu,
    pinsker_shrink,
    pinsker_weights,
)
from .synth import (
    ClassConstructionError,
    ClassModel,
    LabeledDataset,
    NoiseModel,
    Trial,
    generate_dataset,
    make_class_model,
    make_magnitude_class_model,
    make_phase_class_model,
    sample_sobolev,
)
from .classify import (
    LDAModel,
    PCAProjection,
    PipelineConfig,
    ShrinkageProfile,
    cross_validate,
    cross_validate_features,
    dataset_feature_matrix,
    grid_search,
    lda_predict,
    lda_train,
    magnitude_features,
    pca_apply,
    pca_fit,
    shrinkage_patterns,
)
from .experiments import (
    AdaptivityRow,
    ConsistencyRow,
    PhaseAblationResult,
    RiskPoint,
    adaptivity_ratio_bjs,
    benchmark_classifiers,
    consistency_experiment,
    mse_function,
    phase_ablation,
    risk_curve_pinsker,
)

__version__ = "0.1.0"
