"""Multi-label, multi-modal fusion training toolkit on precomputed embeddings.

The top level holds the pipeline's entry points; every other name is imported
from its module (``mmfusion.fusion``, ``mmfusion.errors``, ...).
"""

from .tensor import Tensor
from .fusion import FusionModel
from .data_io import (
    EmbeddingDataset,
    gen_synthetic,
    load_dataset,
    load_model,
    read_embeddings,
    read_labels,
    save_dataset,
    save_model,
    write_embeddings,
    write_predictions,
)
from .training import (
    TrainConfig,
    evaluate_model,
    fused_val_f1,
    pseudo_label_loop,
    train_head,
)
