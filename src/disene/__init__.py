"""Disentangled, dimension-wise interpretable node embeddings.

Train non-negative skip-gram embeddings whose dimensions behave like soft
community affiliations, extract a per-dimension explanation subgraph, score
the explanations (comprehensibility, sparsity, overlap consistency,
positional coherence) and evaluate downstream link prediction and node
classification with attribution-based plausibility.
"""

from .graph_core import (EdgeSplit, Graph, GroundTruth, build_graph,
                         communities_from_labels, load_edge_list,
                         load_ground_truth, split_edges, train_subgraph)
from .synth import KINDS, SynthSpec, default_spec, generate_synthetic
from .sampling import PairBatch, WalkConfig, build_pair_batch, generate_walks, pairs_from_walks, sample_negatives
from .model import (EncoderParams, init_params,
                    load_embedding_binary, normalized_adjacency,
                    save_embedding_binary, save_embedding_text)
from .training import (AdamState, GradBuffer, LossConfig, TrainResult,
                       adam_step, loss_breakdown, total_loss_and_grads, train)
from .explain import (Explanation, build_explanations, edge_features,
                      node_support)
from .metrics import (auc_pr, comprehensibility, compute_report, fpc_matrix,
                      jaccard, overlap_consistency, pearson,
                      positional_coherence, sparsity)
from .downstream import (LogRegModel, TaskResult, build_task_masks,
                         fit_logreg, linear_shap, plausibility)

__version__ = "0.1.0"
