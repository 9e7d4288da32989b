"""``repro.core`` — the paper's contribution: CamE.

The TCA operator (:mod:`repro.core.tca`), exchanging fusion
(:mod:`repro.core.exchange`), the MMF and RIC modules
(:mod:`repro.core.mmf`, :mod:`repro.core.ric`), the assembled CamE model
(:mod:`repro.core.came`) and its configuration/ablation switches
(:mod:`repro.core.config`).  CamE trains through
:class:`repro.train.TrainingEngine` with a
:class:`repro.train.OneToNObjective` (Eqn. 16, 1-to-N BCE).
"""

from .came import CamE, reshape_to_2d_shape
from .config import CamEConfig
from .exchange import ExchangeFusion
from .mmf import MultimodalTCAFusion, SimpleFusion
from .ric import RelationInteractiveTCA
from .tca import TCAHead, TCAOperator

__all__ = [
    "CamE",
    "CamEConfig",
    "reshape_to_2d_shape",
    "TCAOperator",
    "TCAHead",
    "ExchangeFusion",
    "MultimodalTCAFusion",
    "SimpleFusion",
    "RelationInteractiveTCA",
]
