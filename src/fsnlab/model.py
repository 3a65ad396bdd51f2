"""The model front door: a network, its leader wiring, and its kind.

The paper applies one rule, follow the slower neighbor, to leader-driven
(SAN), autonomous (FAN) and signed networks.  :class:`Model` settles which
of these a network is once and supplies what depends on it: the linear
system x' = f - G x that the simulations and the distributed engine step
(the generator G and the forcing f = B u, none without leaders), the
eigenpairs, the selections and the limits.  So the command-line front end
does not choose them by kind itself.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from .blocks import (BlockDecomposition, FiedlerClassification,
                     block_cut_tree, classify_fiedler)
from .dynamics import as_columns, fan_fsn_consensus_value, steady_state_san
from .graphs import (DirectedNetwork, GraphError, Network,
                     SemiAutonomousConfig, _bump_leaders,
                     augmented_signed_network, is_connected, laplacian,
                     perturbed_laplacian, reduced_laplacian,
                     structural_balance_partition)
from .selection import (_check_balanced, ffn_san, fsn_fan, fsn_san,
                        reachable_from, reachable_from_inputs, reduced_spectrum)
from .spectral import (EigenPair, SpectralError, fiedler_pair,
                       principal_pair_perturbed, smallest_eigenpairs)
from .thresholds import EIG_TOL

MODES = ("san-fsn", "san-ffn", "fan-fsn", "signed-san-fsn")   # selection modes


def _q(value: float, tol: float) -> dict:
    return {"value": float(value), "tolerance": float(tol)}


class Model:
    """A network and its leader wiring, with the model kind settled once.

    The kind is signed or unsigned (negative edge weights or repelling
    leader links) and leader-driven (SAN) or autonomous (FAN, ``cfg`` is
    None).  Every kind-dependent choice the commands make comes from here:
    the dynamics generator, the forcing, the selection eigenpair and the
    vector the sampled tempo approaches, the reduction for a selection
    mode, and the predicted limit.
    """

    def __init__(self, net: Network, cfg: Optional[SemiAutonomousConfig]):
        self.net, self.cfg = net, cfg
        self.signed = net.is_signed or (cfg is not None and cfg.is_signed)
        self.tag = (("signed-" if self.signed else "")
                    + ("SAN" if cfg is not None else "FAN"))
        self.mode = ("fan-fsn" if cfg is None
                     else "signed-san-fsn" if self.signed else "san-fsn")
        self._pairs: dict[str, EigenPair] = {}
        # (L, its smallest eigenpairs) once spectrum() has decomposed the
        # Laplacian of an unsigned network, the matrix of the Fiedler pair.
        self._laplacian_pairs: Optional[tuple[np.ndarray, list[EigenPair]]] = None

    def generator(self, dnet: Optional[DirectedNetwork] = None) -> np.ndarray:
        """Dynamics matrix of the network, or of its reduction ``dnet``."""
        G = laplacian(self.net) if dnet is None else reduced_laplacian(dnet)
        return G if self.cfg is None else _bump_leaders(G, self.cfg)

    @property
    def forcing(self) -> Optional[np.ndarray]:
        """The n-by-d forcing B u of a leader-driven network, the leaders'
        inputs u wired in by B; None for an autonomous one."""
        if self.cfg is None:
            return None
        return self.cfg.input_matrix(self.net.n) @ self.cfg.input_vectors()

    def spectrum(self, k: int) -> list[EigenPair]:
        """The k smallest eigenpairs of the network's Laplacian.  On an
        unsigned network, with k >= 2, the Fiedler pair of :meth:`pair` is
        then taken from them; a signed one's comes from L(|W|)."""
        L = laplacian(self.net)
        pairs = smallest_eigenpairs(L, k)
        if k >= 2 and not self.net.is_signed:
            self._laplacian_pairs = L, pairs
        return pairs

    def pair(self, mode: Optional[str] = None) -> EigenPair:
        """Selection eigenpair of a mode, by default of the model's own.
        Refuses a mode not in ``MODES``; the unsigned leader-driven modes
        refuse a signed network, then a signed leader wiring."""
        mode = mode or self.mode
        if mode not in self._pairs:
            net, cfg = self.net, self.cfg
            if mode not in MODES:
                raise GraphError(f"unknown mode {mode!r}; valid modes: "
                                 + ", ".join(MODES))
            if mode == "fan-fsn":
                L, pairs = (self._laplacian_pairs
                            or (laplacian(net.absolute()), None))
                pair = fiedler_pair(L, pairs)
            elif cfg is None:
                raise GraphError(f"mode {mode} needs leaders in the input file")
            else:
                if mode == "signed-san-fsn":
                    self.check_balanced()
                elif net.is_signed:
                    raise GraphError("network has negative weights; "
                                     "use the signed variant")
                elif cfg.is_signed:
                    raise GraphError("leader link with negative sign; "
                                     "use the signed variant")
                pair = principal_pair_perturbed(perturbed_laplacian(net, cfg))
            self._pairs[mode] = pair
        return self._pairs[mode]

    def check_balanced(self) -> None:
        """Refuse an unbalanced signed leader wiring by name, before a solve
        whose eigen checks would fail on it first; a disconnected wiring is
        left to the solve, which names the missing leader."""
        if self.signed and self.cfg is not None and is_connected(
                augmented := augmented_signed_network(self.net, self.cfg)):
            _check_balanced(augmented)

    @cached_property
    def gauge(self) -> np.ndarray:
        """The balance gauge sigma = +-1 as a column; refuses an unbalanced network."""
        if (partition := structural_balance_partition(self.net)) is None:
            raise GraphError("signed network is not structurally balanced; "
                             "its consensus limit is undefined")
        sigma = np.ones((self.net.n, 1))
        sigma[[i - 1 for i in partition[1]]] = -1.0
        return sigma

    def simple_pair(self, mode: Optional[str] = None) -> EigenPair:
        """:meth:`pair`, refused when its value repeats: no one vector to read."""
        if not (pair := self.pair(mode)).is_simple:
            raise SpectralError("selection eigenvalue repeated; the selection "
                                "rule and the tempo limit are undefined")
        return pair

    @property
    def tempo_vector(self) -> np.ndarray:
        """The eigenvector whose entry ratios the sampled tempo approaches:
        that of :meth:`simple_pair`, on a signed autonomous network times
        :attr:`gauge` (so this refuses an unbalanced one), as its states are
        the gauge image of those of |W|, whose Fiedler vector that is."""
        vec = self.simple_pair().vector
        if self.cfg is None and self.net.is_signed:
            vec = self.gauge[:, 0] * vec
        return vec

    @cached_property
    def blocks(self) -> BlockDecomposition:
        return block_cut_tree(self.net)

    @cached_property
    def classification(self) -> FiedlerClassification:
        return classify_fiedler(self.blocks, self.pair("fan-fsn").vector)

    def select(self, mode: Optional[str] = None) -> DirectedNetwork:
        """The reduced network a selection mode (by default the model's own)
        keeps: the centralized construction."""
        mode = mode or self.mode
        pair = self.pair(mode)
        if mode == "fan-fsn":
            if self.net.is_signed:
                self.gauge      # refuses an unbalanced network
            return fsn_fan(self.net, self.simple_pair(mode).vector, self.classification)
        rule = ffn_san if mode == "san-ffn" else fsn_san
        return rule(self.net, self.cfg, pair.vector)

    def reduce(self, mode: Optional[str] = None) -> tuple[DirectedNetwork, dict]:
        """:meth:`select` plus the before/after report of the reduction."""
        mode = mode or self.mode
        dnet, pair = self.select(mode), self.pair(mode)
        checks: dict[str, bool] = {}
        extra = {}
        if mode == "fan-fsn":
            key, lam = "lambda2", float(reduced_spectrum(dnet)[1])
            cls = self.classification
            extra["classification"] = {"case": cls.case,
                                       "core": sorted(cls.core_nodes)}
            reach = reachable_from(dnet, cls.core_nodes)
            checks["all_reachable_from_core"] = all(reach.values())
        else:
            key = "lambda1"
            lam = float(reduced_spectrum(dnet, cfg=self.cfg)[0])
            reach = reachable_from_inputs(dnet, self.cfg)
            if mode != "san-ffn":
                checks["all_reachable"] = all(reach.values())
                checks["rate_not_worse"] = lam >= pair.value - EIG_TOL
        kept = dnet.arc_set
        report = {
            "mode": mode, "network": self.net.name, "checks": checks,
            "original": {key: _q(pair.value, EIG_TOL)},
            "reduced": {key: _q(lam, EIG_TOL)},
            "eigenvector": {"entries": [float(v) for v in pair.vector],
                            "tolerance": EIG_TOL},
            **extra,
            "reachable": {str(k): bool(v) for k, v in reach.items()},
            "arcs": [[a.follower, a.followed, a.w] for a in dnet.arcs],
            "removed": [[a, b] for e in self.net.edges
                        for a, b in ((e.i, e.j), (e.j, e.i))
                        if (a, b) not in kept]}
        return dnet, report

    def limit(self, G: np.ndarray, x0: np.ndarray) -> np.ndarray:
        """Predicted final state: the steady state of a leader-driven
        generator G, or for an autonomous network the consensus value its
        slower-neighbor reduction reaches from x0; on a signed one, gauged
        by :attr:`gauge`, one row per node: sigma * (that value from
        sigma * x0)."""
        if self.cfg is not None:
            return steady_state_san(G, self.forcing)
        if not self.net.is_signed:
            return fan_fsn_consensus_value(x0, self.classification)
        sigma = self.gauge
        return sigma * fan_fsn_consensus_value(sigma * as_columns(x0),
                                               self.classification)
