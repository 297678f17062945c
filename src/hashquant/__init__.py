"""Two-stage compact-code retrieval over jointly learned sign and quantizer codes."""

from .errors import (
    BadMagic,
    ConfigError,
    CountMismatch,
    DimMismatch,
    HashQuantError,
    IndexOutOfRange,
    InfeasibleBudget,
    IoFailure,
    KNotPowerOfTwo,
    NonFiniteValue,
    NotEnoughItems,
    SingularSystem,
    TooManyCandidates,
    TooManyClusters,
    TrailingBytes,
    TruncatedFile,
    VersionMismatch,
    ZeroNormVector,
)
from .features import (
    FeatureMatrix,
    LabelSet,
    PairBatch,
    generate_pairs,
    load_features,
    load_labels,
    save_features,
    save_labels,
    synth_dataset,
)
from .hashing import (
    PackedCodes,
    hamming_distances,
    hamming_top_candidates,
    sign_encode,
)
from .quantizer import (
    IndicatorSet,
    LookupTable,
    QuantizerFit,
    QuantizerModel,
    aqd_scores,
    assign_indicators,
    build_lookup_table,
    init_codebooks,
    learn_quantizer,
    quantization_objective,
    reconstruct,
    update_codebooks,
)
from .trainer import (
    EncoderParams,
    LossWeights,
    TrainConfig,
    TrainResult,
    encoder_forward,
    init_encoder,
    load_model,
    loss_gradients,
    save_model,
    total_loss,
    train,
)
from .retrieval import (
    RankedResult,
    RetrievalIndex,
    build_index,
    full_aqd_query,
    hash_only_query,
    load_index,
    save_index,
    two_stage_query,
)
from .evaluate import (
    AlphaSweepPoint,
    CostModel,
    EvalReport,
    NSweepPoint,
    RetrievalTask,
    average_precision_at,
    equal_memory_quantizer,
    evaluate_tasks,
    harmonic_mean,
    memory_footprint,
    op_count,
    ranked_results,
    sweep_alpha,
    sweep_n,
)
from .config import echo_lines, load_run_config, parse_config_file, parse_config_text

__version__ = "0.1.0"
