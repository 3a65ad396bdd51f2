"""Eigenvector-guided neighbor selection for consensus networks.

The library builds reduced interaction networks in which every agent keeps
only the neighbors whose state changes more slowly than its own, verifies
the reachability and convergence-rate guarantees of the construction, and
provides the distributed, data-driven counterpart in which agents rank
their neighbors from sampled trajectories alone.
"""

__version__ = "0.1.0"

from .graphs import (Arc, DirectedNetwork, Edge, GraphError, LeaderLink,
                     Network, SemiAutonomousConfig, augmented_signed_network,
                     is_connected, laplacian, perturbed_laplacian,
                     reduced_laplacian, structural_balance_partition)
from .spectral import (EigenPair, SpectralError, entry_ratio, fiedler_pair,
                       principal_pair_perturbed, sign_normalize,
                       smallest_eigenpairs, symmetric_eigh)
from .blocks import (BlockDecomposition, ClassificationError,
                     FiedlerClassification, block_cut_tree, classify_fiedler)
from .selection import (ffn_san, fsn_fan, fsn_san, reachable_from,
                        reachable_from_inputs, reduced_spectrum)
from .dynamics import (SimulationConfig, SimulationError, Trajectory,
                       empirical_rate, fan_fsn_consensus_value, simulate,
                       steady_state_san)
from .model import Model
from .tempo import (TempoError, TempoEstimate, TempoReport, distributed_select,
                    g_ratio_series)
from .netfile import (FIXTURE_NAMES, NetworkFileError, emit_trajectory,
                      load_fixture, parse_arc_file, parse_network_file,
                      parse_trajectory, serialize_arcs, serialize_network)

# Older names of four functions, which the benchmark harness
# (perfbench/workloads.py) still imports; nothing else uses them.
fsn_signed_san = fsn_san
signed_laplacian = laplacian
signed_perturbed_laplacian = perturbed_laplacian
signed_reduced_laplacian = reduced_laplacian
