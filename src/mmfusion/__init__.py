"""Multi-label, multi-modal fusion training toolkit on precomputed embeddings."""

from .errors import (
    BadMagicError,
    ChecksumError,
    DataError,
    DatasetError,
    DomainError,
    DuplicateIdError,
    EmptyPredictionError,
    FileFormatError,
    FusionToolkitError,
    KindMismatchError,
    LabelDomainError,
    NonFiniteError,
    NumericError,
    ShapeError,
    TruncatedFileError,
    UnknownKindError,
    VersionMismatchError,
)
from .tensor import (
    Tensor,
    activation,
    as_tensor,
    grad_check,
    hswish,
    layer_norm,
    relu,
    relu6,
    sigmoid,
    softmax_rows,
)
from .vision_blocks import (
    CompoundScaling,
    ConvSpec,
    ScalingSpec,
    compound_scale,
    conv2d_forward,
    cost_depthwise_separable,
    cost_grouped,
    cost_standard,
    depthwise_separable_forward,
    separable_ratio,
)
from .attention import (
    AttentionParams,
    cross_attention,
    self_attention,
)
from .fusion import (
    CLASS_IDS,
    FUSION_SETS,
    HEAD_KINDS,
    IMAGE_DIM,
    N_CLASSES,
    TEXT_DIM,
    FusionModel,
    LabelVector,
    assign_labels,
    assign_labels_batch,
    fuse_logits,
    head_forward_batch,
    logits_to_probs,
    predict_logits,
)
from .metrics import ConfusionCounts, confusion_counts, f1_per_class, macro_f1, mean_accuracy
from .data_io import (
    EmbeddingDataset,
    gen_synthetic,
    load_dataset,
    load_model,
    read_embeddings,
    read_label_matrix,
    read_labels,
    save_dataset,
    save_model,
    write_embeddings,
    write_predictions,
)
from .training import (
    AdamState,
    ClassWeights,
    PseudoLabelResult,
    TrainConfig,
    TrainResult,
    adam_step,
    class_weights,
    evaluate_model,
    fused_val_f1,
    init_adam_state,
    pseudo_label_loop,
    train_head,
    weighted_bce_loss,
)

__version__ = "0.1.0"
