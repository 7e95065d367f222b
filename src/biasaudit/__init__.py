"""Sample-level bias attribution, explanation, and mitigation for tabular data.

Typical flow: load or generate a dataset, normalize it, build the
comparability graph, derive walk-based proximity, estimate per-sample
credibility and bias, then either explain individual scores or edit the
training data (removal / mixup augmentation) and measure the fairness
effect with the built-in classifier and metric suite.
"""

from .attribution import (
    BIAS_THRESHOLD,
    BiasReport,
    Estimate,
    Explanation,
    UndefinedBiasError,
    attribute,
    bias_contributions,
    estimate_bias,
    estimate_credibility,
)
from .comparability import (
    ComparabilityConfig,
    ComparabilityGraph,
    build_comparability_graph,
    is_comparable,
)
from .data import (
    Dataset,
    FeatureSchema,
    NormalizationParams,
    ParseError,
    SchemaError,
    ValidationError,
    apply_normalization,
    encode_features,
    fit_normalization,
    invert_normalization,
    load_dataset,
    load_schema,
    save_dataset,
    save_schema,
    stratified_split,
)
from .metrics import (
    EvaluationResult,
    accuracy,
    average_precision,
    demographic_parity,
    equalized_odds,
    evaluate_classifier,
    generalized_entropy,
    prediction_consistency,
    roc_auc,
)
from .mitigation import (
    AugmentationPlan,
    ClassBalanceTieError,
    RemovalPlan,
    apply_plan,
    plan_removal,
    select_edit_subgroup,
    synthesize_fair_samples,
    write_plan,
)
from .model import (
    Classifier,
    predict,
    train_classifier,
)
from .similarity import (
    Proximity,
    adjacency_similarity,
    rwr_proximity,
    symmetric_normalize,
)
from .synth import (
    SynthConfig,
    detection_accuracy,
    generate_base,
    inject_group_bias,
    inject_individual_bias,
    reference_labels,
    save_truth,
)

__version__ = "0.1.0"
