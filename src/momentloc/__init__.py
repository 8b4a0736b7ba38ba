"""Weakly-supervised localisation of sentences in untrimmed videos.

The package trains a proposal-ranking video/sentence matching model from
video-level supervision only, using paragraph structure (sentence order and
pairwise combination) as a free training signal, and evaluates it with
recall-at-IoU plus two pairwise consistency protocols.
"""

from . import autodiff
from .config import RunConfig, default_run_config, load_run_config, parse_loss_switches
from .data import (
    GT_AUDIT,
    ClipSequence,
    CorpusLoadResult,
    DataConfig,
    EmbeddingTable,
    FrameFeatures,
    Sentence,
    TokenSequence,
    VideoRecord,
    build_clips,
    filter_split,
    load_corpus,
    load_embeddings,
    read_annotations,
    read_features,
    restore_paragraph_order,
    save_corpus,
    save_embeddings,
    tokenize,
    write_annotations,
    write_features,
)
from .errors import (
    CheckpointMismatchError,
    ConfigError,
    DataError,
    MomentlocError,
    PredictionsMismatchError,
    TrainingDivergedError,
)
from .evaluation import (
    EvalReport,
    analyze_predictions,
    count_pairs,
    evaluate,
    predict_sentences,
    recall_from_predictions,
    report_to_json,
    report_to_table,
    semantic_consistency,
    temporal_consistency_from_predictions,
)
from .losses import (
    BatchItem,
    LossBreakdown,
    LossConfig,
    NegativeSample,
    SemanticPartition,
    TemporalPartition,
    bce_loss,
    concat_queries,
    joint_probability,
    semantic_partition,
    smt_loss,
    temporal_partition,
    tmp_loss,
    total_loss,
    video_score,
)
from .network import (
    LocalizeResult,
    MatchScores,
    ModelParams,
    attention_unit,
    encode,
    init_params,
    lift,
    localize,
    localize_pairs,
    match,
    match_pairs,
    params_from_named,
)
from .segments import (
    GridConfig,
    ProposalGrid,
    Segment,
    clips_to_seconds,
    generate_proposals,
    hull,
    iou,
    order_relation,
    query_order,
)
from .synthetic import (
    SYNTH_GRID,
    SynthConfig,
    SynthCorpus,
    chance_baseline,
    emit_corpus,
    generate_corpus,
    oracle_match,
    oracle_predictions,
    resolve_event_type,
)
from .training import (
    Adam,
    Checkpoint,
    GradCheckReport,
    TrainConfig,
    default_gradient_check,
    gradient_check,
    grid_from_snapshot,
    load_checkpoint,
    sample_batch,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
