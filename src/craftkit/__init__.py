"""Concept extraction from nonnegative activations.

Factorize pooled activations into a nonnegative concept bank by ADMM,
re-express new inputs by NNLS, differentiate the solution implicitly for
concept attribution maps, score concepts with total Sobol' indices, refine
them recursively at earlier layers, and evaluate rankings with
insertion/deletion fidelity curves.
"""

from .core import Rng, global_average_pool
from .errors import (CraftError, DataError, DegeneracyError, EmptySetError,
                     FormatError, InsufficientDataError, NumericalError,
                     UnsupportedError)
from .implicit import ConceptJacobian, jacobian_u_wrt_a
from .nmf import FactorizationState, NmfParams, fit_nmf, init_factors, transform
from .nnls import AdmmParams, NnlsSolution, kkt_residual, nnls_objective, solve_nnls
from .npyio import load_npy, save_npy
from .pipeline import (ConceptBank, CropSpec, FidelityCurve, Heatmap,
                       bilinear_resize, build_concept_bank,
                       concept_attribution_map, concept_attribution_maps,
                       extract_crops, fidelity_curves, fit_bank, load_bank,
                       recursive_decompose, save_bank, select_class_set)
from .sobol import (AffineHead, MaskBatch, SobolEstimate, concept_importance,
                    mask_designs, perturb, sobol_sequence, tcav_importance,
                    total_sobol_jansen)
from .toy import (SyntheticDataset, ToyBackbone, load_backbone,
                  make_synthetic_dataset, pair_backbone, save_backbone,
                  standard_backbone, two_layer_backbone)

__version__ = "0.1.0"
