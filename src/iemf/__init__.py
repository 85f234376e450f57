"""Inverse-effectiveness driven multimodal fusion at desk scale.

A training-time rule that scales the fusion layer's gradient by a bounded
coefficient derived from the ratio of unimodal to multimodal batch confidence,
plus everything needed to verify it: a tape-based autodiff engine, continuous
and spiking neuron models, synthetic two-modality benchmarks,
continual-learning metrics, and loss-landscape analyses.
"""

from .analysis import (
    ContractionReport,
    CostReport,
    QuadraticProblem,
    SharpnessReport,
    computational_cost,
    landscape_slice,
    sharpness,
    verify_contraction,
)
from .continual import TaskStream, aa_aia, afr, build_task_stream, lwf_loss, train_incremental
from .data import DataSpec, Dataset, generate
from .errors import ConfigError, ContractError, FormatError, NumericError, ShapeError
from .model import (
    Batch,
    ForwardOutputs,
    ModelConfig,
    MultimodalModel,
    forward_full,
    init_model,
)
from .modulation import (
    IEMFConfig,
    StepRecord,
    batch_strength_scores,
    iemf_coefficient,
    iemf_train_step,
    per_sample_content,
)
from .neurons import LIFParams, lif_layer, relu
from .tensor import (
    Tape,
    Tensor,
    backward,
    softmax_cross_entropy,
)
from .training import (
    EpochMetrics,
    OptimConfig,
    flops_per_epoch,
    forward_flops,
    sgd_step,
    top1_accuracy,
    train,
)

__version__ = "0.1.0"
