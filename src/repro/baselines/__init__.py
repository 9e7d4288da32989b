"""``repro.baselines`` — every comparison model from Table III.

Unimodal: TransE, DistMult, ComplEx, ConvE, CompGCN, RotatE/a-RotatE,
DualE, PairRE.  Multimodal: IKRL, MTAKGR, TransAE, MKGformer
(M-Encoder).  Plus a registry that pairs each model with the training
regime the paper used (a :class:`repro.train.TrainingEngine` objective).
"""

from .base import EmbeddingModel
from .complex_ import ComplEx
from .compgcn_lp import CompGCNLinkPredictor
from .conve import ConvE
from .distmult import DistMult
from .duale import DualE
from .ikrl import IKRL
from .mkgformer import MKGformer
from .mtakgr import MTAKGR
from .pairre import PairRE
from .registry import MODEL_REGISTRY, ModelSpec, build_model, get_spec, model_names
from .rotate import RotatE
from .transae import TransAE
from .transe import TransE

__all__ = [
    "EmbeddingModel",
    "TransE",
    "DistMult",
    "ComplEx",
    "ConvE",
    "CompGCNLinkPredictor",
    "RotatE",
    "PairRE",
    "DualE",
    "IKRL",
    "MTAKGR",
    "TransAE",
    "MKGformer",
    "MODEL_REGISTRY",
    "ModelSpec",
    "build_model",
    "get_spec",
    "model_names",
]
