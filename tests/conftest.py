import math

import numpy as np
import pytest

from fsnlab import (LeaderLink, Network, SemiAutonomousConfig, Edge,
                    load_fixture)

# Arc sets transcribed from the reference drawings of the bundled fixtures,
# as (follower, followed) pairs.
G6_FSN = frozenset({(2, 1), (3, 2), (4, 3), (5, 2), (6, 5)})
G8_FSN = frozenset({(2, 3), (5, 6), (1, 6), (6, 2), (6, 7), (6, 3),
                    (7, 3), (7, 8), (3, 8), (3, 4)})
G8_FFN = frozenset((b, a) for a, b in G8_FSN)
G12_FSN = frozenset({(1, 2), (1, 3), (1, 4), (11, 1), (12, 1), (2, 4), (3, 4),
                     (4, 5), (5, 4), (4, 6), (6, 4), (5, 6), (6, 5),
                     (7, 6), (8, 6), (9, 6), (10, 6)})
T12_FSN = frozenset({(1, 4), (11, 1), (12, 1), (2, 4), (3, 4), (5, 4),
                     (4, 6), (6, 4), (7, 6), (8, 6), (9, 6), (10, 6)})

T12_V2 = (0.333, 0.101, 0.101, 0.079, 0.101, -0.257,
          -0.327, -0.327, -0.327, -0.327, 0.424, 0.424)
G8_V1 = (0.46, 0.38, 0.30, 0.16, 0.46, 0.40, 0.32, 0.22)


@pytest.fixture(scope="session")
def g6():
    return load_fixture("g6")


@pytest.fixture(scope="session")
def g8():
    return load_fixture("g8")


@pytest.fixture(scope="session")
def g8_signed():
    return load_fixture("g8-signed")


@pytest.fixture(scope="session")
def g12():
    return load_fixture("g12")


@pytest.fixture(scope="session")
def t12():
    return load_fixture("t12")


def random_tree(rng, n, weights=None):
    """Uniform-attachment tree on nodes 1..n."""
    edges = []
    for k in range(2, n + 1):
        p = int(rng.integers(1, k))
        w = 1.0 if weights is None else float(weights(rng))
        edges.append(Edge(p, k, w))
    return Network(n, tuple(edges))


def random_connected_net(rng, n, extra=None, weights=None):
    """Random connected graph: a random tree plus extra chords."""
    tree = random_tree(rng, n, weights=weights)
    edges = list(tree.edges)
    present = {e.key() for e in edges}
    n_extra = int(rng.integers(0, n)) if extra is None else extra
    for _ in range(n_extra):
        a = int(rng.integers(1, n + 1))
        b = int(rng.integers(1, n + 1))
        if a == b or (min(a, b), max(a, b)) in present:
            continue
        w = 1.0 if weights is None else float(weights(rng))
        edges.append(Edge(min(a, b), max(a, b), w))
        present.add((min(a, b), max(a, b)))
    return Network(n, tuple(edges))


def edge_weight(net, a, b):
    """The weight of the edge joining a and b, in either orientation."""
    return next(e.w for e in net.edges if {e.i, e.j} == {a, b})


def random_leader_cfg(rng, n, d=1, homogeneous=False):
    """Random nonempty leader set, one input per leader."""
    k = int(rng.integers(1, n + 1))
    nodes = sorted(int(v) for v in rng.choice(np.arange(1, n + 1), size=k,
                                              replace=False))
    links = tuple(LeaderLink(node, idx + 1) for idx, node in enumerate(nodes))
    if homogeneous:
        u0 = tuple(float(v) for v in rng.random(d))
        inputs = tuple(u0 for _ in nodes)
    else:
        inputs = tuple(tuple(float(v) for v in rng.random(d)) for _ in nodes)
    return SemiAutonomousConfig(len(nodes), links, inputs)


def random_balanced_signed_net(rng, n):
    """Connected signed graph made balanced by a random two-sided gauge."""
    sides = rng.integers(0, 2, size=n + 1)  # index 0 unused
    sides[1] = 0  # anchor node 1
    base = random_connected_net(rng, n)
    edges = tuple(
        Edge(e.i, e.j, e.w if sides[e.i] == sides[e.j] else -e.w)
        for e in base.edges)
    return Network(n, edges), sides[1:]


def same_json_value(got, want) -> bool:
    """Whether ``got``, a value read back from JSON, is ``want``: of the
    same JSON types, with its dict keys in the same order, its floats bit
    for bit (any NaN matches any NaN) and its tuples as lists."""
    if type(want) is float:
        return type(got) is float and (
            got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
            or math.isnan(got) and math.isnan(want))
    if isinstance(want, (list, tuple)):
        return (type(got) is list and len(got) == len(want)
                and all(map(same_json_value, got, want)))
    if isinstance(want, dict):
        return (type(got) is dict and list(got) == list(want)
                and all(map(same_json_value, got.values(), want.values())))
    return type(got) is type(want) and got == want
