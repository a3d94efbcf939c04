"""TriMix: virtual-embedding mixing and self-consistency losses on a
redundancy-reduction (Barlow Twins style) self-supervised backbone,
with a verifiable tape-autodiff core and desk-scale training/eval CLI."""

from .config import TriMixConfig, load_config, parse_config
from .data import AugmentPolicy, Dataset, SyntheticSpec, ViewPair, batches, synthetic_blobs, two_views
from .errors import (
    ArchMismatchError,
    BatchParityError,
    ContractError,
    DegenerateFeatureError,
    DetachedValueError,
    DimensionError,
    FormatError,
    NumericError,
    TriMixError,
)
from .eval import EvalReport, FeatureBank, extract_features, finetune_semi, knn_eval, linear_probe
from .model import Arch, ForwardResult, ModelParams, encode, forward, init_params
from .objective import (
    LossBreakdown,
    ground_truth_matrix,
    loss_bt,
    loss_con,
    loss_vrt,
    mixup,
    trimix_step_loss,
)
from .stats import cross_correlation, row_softmax, standardize
from .tensor import Tape, Tensor, backward
from .train import AdamState, Checkpoint, adam_step, load_checkpoint, pretrain, save_checkpoint

__version__ = "0.1.0"
