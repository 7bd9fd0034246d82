"""Structured discriminative tensor dictionary learning for unsupervised
domain adaptation.

The package namespace holds what a fit needs; every other name lives in
its submodule: ``tensor``, ``hooi``, ``solver``, ``pseudolabel``,
``dataio`` and ``cli``."""

from .dataio import SyntheticSpec, generate_synthetic
from .hooi import hooi
from .solver import Hyperparams, LabeledTensorSet, digit_preset, fit, object_preset

__version__ = "0.1.0"
