"""Graph-based transducer objective at desk scale.

Build an alignment lattice for a label sequence, score it against a
posterior tensor with exact log-space forward/backward marginalization,
differentiate the loss analytically, search with a prefix beam, and train
a toy encoder/predictor/joiner end to end.  Brute-force oracles verify
every production path.
"""

from .decode import (
    CountsLm,
    DecodeConfig,
    ModelPosteriors,
    TensorPosteriors,
    beam_search,
    edit_distance,
    greedy_search,
    prune,
)
from .lattice import (
    BLANK,
    CTC_LIKE,
    MONO_RNNT,
    TOPOLOGIES,
    Edge,
    InvalidSpecError,
    Lattice,
    LatticeFormatError,
    Node,
    TopologySpec,
    build_lattice,
    deserialize,
    serialize,
    to_dot,
    validate,
)
from .loss import (
    InfeasibleLengthError,
    LossResult,
    backward_vars,
    batch_loss_and_grad,
    forward_vars,
    log_marginal,
    loss_and_grad,
    marginal,
)
from .model import (
    ToyModel,
    Utterance,
    forward_logits,
    load_model,
    make_synthetic_task,
    save_model,
    train_step,
    utterance_loss,
)
from .oracle import (
    AlignmentPath,
    SizeLimitError,
    brute_force_marginal,
    enumerate_paths,
    finite_diff_grad,
    reference_ctc,
    reference_monornnt,
)
from .posteriors import (
    TENSOR_MAGIC,
    PosteriorTensor,
    load_posterior_tensor,
    read_tensor,
    write_tensor,
)

__version__ = "0.1.0"
