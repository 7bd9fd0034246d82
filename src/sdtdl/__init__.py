"""Structured discriminative tensor dictionary learning for unsupervised
domain adaptation."""

from .dataio import (
    SyntheticSpec,
    generate_synthetic,
    load_model,
    read_labels,
    read_tensor,
    save_model,
    write_labels,
    write_tensor,
)
from .hooi import TuckerResult, eig_sym_topk, hooi, hosvd
from .pseudolabel import PseudoLabels, centroid_probs, fidelity_probs, predict, predict_labels, select
from .solver import (
    ClassSubproblem,
    Hyperparams,
    LabeledTensorSet,
    SdtdlCodes,
    SdtdlModel,
    build_phi,
    class_means,
    digit_preset,
    fit,
    nearest_centroid_labels,
    object_preset,
    objective,
    update_class_dict,
    update_domain_source,
    update_domain_target,
)
from .tensor import (
    core_of,
    frobenius_norm,
    mode_flatten,
    mode_product,
    mode_unflatten,
    multi_product,
    multi_product_skip,
    stack_last,
    tucker_reconstruct,
)

__version__ = "0.1.0"
