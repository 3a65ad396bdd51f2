import numpy as np
import pytest

from fsnlab import (FIXTURE_NAMES, NetworkFileError, SimulationConfig,
                    emit_trajectory, laplacian, load_fixture,
                    parse_arc_file, parse_network_file, parse_trajectory,
                    serialize_arcs, serialize_network, simulate)
from fsnlab.graphs import Edge, Network
from fsnlab.netfile import fixture_text


class TestFixtures:
    def test_all_fixtures_load(self):
        for name in FIXTURE_NAMES:
            net, _, _ = load_fixture(name)
            assert net.name == name

    @pytest.mark.parametrize("name,n,edges", [
        ("g6", 6, 5), ("g8", 8, 10), ("g8-signed", 8, 10),
        ("g12", 12, 16), ("t12", 12, 11)])
    def test_fixture_counts(self, name, n, edges):
        net, _, _ = load_fixture(name)
        assert net.n == n
        assert len(net.edges) == edges

    def test_g8_leader_wiring(self):
        _, cfg, _ = load_fixture("g8")
        assert cfg.m == 2
        assert cfg.leader_nodes == frozenset({4, 8})
        assert cfg.inputs == ((0.7, 0.8, 0.9), (0.7, 0.8, 0.9))

    def test_t12_initial_state(self):
        _, cfg, x0 = load_fixture("t12")
        assert cfg is None
        assert x0.shape == (12, 1)
        assert x0[0, 0] == 0.973

    def test_unknown_fixture(self):
        with pytest.raises(NetworkFileError, match="unknown fixture"):
            fixture_text("g99")


class TestParsing:
    def test_self_loop_diagnostic(self):
        doc = '{"n": 2, "edges": [{"i": 1, "j": 1}]}'
        with pytest.raises(NetworkFileError, match="self-loop"):
            parse_network_file(doc)

    def test_duplicate_edge_diagnostic(self):
        doc = '{"n": 2, "edges": [{"i": 1, "j": 2}, {"i": 2, "j": 1}]}'
        with pytest.raises(NetworkFileError, match="duplicate"):
            parse_network_file(doc)

    def test_node_out_of_range(self):
        doc = '{"n": 2, "edges": [{"i": 1, "j": 5}]}'
        with pytest.raises(NetworkFileError, match="outside"):
            parse_network_file(doc)

    def test_repeated_leader(self):
        doc = ('{"n": 2, "edges": [{"i": 1, "j": 2}], '
               '"leaders": [{"node": 1, "input": 1}, {"node": 1, "input": 1}]}')
        with pytest.raises(NetworkFileError, match="twice"):
            parse_network_file(doc)

    def test_malformed_number_names_field(self):
        doc = '{"n": 2, "edges": [{"i": 1, "j": 2, "w": "heavy"}]}'
        with pytest.raises(NetworkFileError, match=r"edges\[0\].w"):
            parse_network_file(doc)

    def test_unknown_key_rejected(self):
        doc = '{"n": 2, "edges": [], "weighted": true}'
        with pytest.raises(NetworkFileError, match="unknown keys"):
            parse_network_file(doc)

    def test_directed_true_rejected(self):
        doc = '{"n": 2, "directed": true, "edges": [{"i": 1, "j": 2}]}'
        with pytest.raises(NetworkFileError, match="undirected"):
            parse_network_file(doc)

    def test_syntax_error_carries_line(self):
        with pytest.raises(NetworkFileError, match="line 2"):
            parse_network_file('{"n": 2,\n "edges": }')

    def test_inputs_without_leaders_rejected(self):
        doc = '{"n": 2, "edges": [{"i": 1, "j": 2}], "inputs": [[1.0]]}'
        with pytest.raises(NetworkFileError, match="without any leaders"):
            parse_network_file(doc)

    def test_x0_dimension_checked_against_inputs(self):
        doc = ('{"n": 2, "edges": [{"i": 1, "j": 2}], '
               '"leaders": [{"node": 1, "input": 1}], "inputs": [[1.0, 2.0]], '
               '"x0": [[1.0], [2.0]]}')
        with pytest.raises(NetworkFileError, match="dimension"):
            parse_network_file(doc)

    def test_default_weight_is_one(self):
        net, _, _ = parse_network_file('{"n": 2, "edges": [{"i": 1, "j": 2}]}')
        assert net.edges[0].w == 1.0


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_round_trips(self, name):
        net, cfg, x0 = load_fixture(name)
        text = serialize_network(net, cfg, x0)
        net2, cfg2, x02 = parse_network_file(text)
        assert net2 == net
        assert cfg2 == cfg
        if x0 is None:
            assert x02 is None
        else:
            assert np.array_equal(x02, x0)

    def test_arc_file_round_trip(self):
        from fsnlab import Arc, DirectedNetwork
        dnet = DirectedNetwork(3, (Arc(1, 2, 1.0), Arc(3, 2, -0.5)), name="x")
        again = parse_arc_file(serialize_arcs(dnet))
        assert again == dnet

    def test_arc_file_rejects_duplicates(self):
        doc = ('{"n": 2, "arcs": [{"follower": 1, "followed": 2}, '
               '{"follower": 1, "followed": 2}]}')
        with pytest.raises(NetworkFileError, match="duplicate"):
            parse_arc_file(doc)

    def test_arc_file_rejects_overflowing_degree(self):
        doc = ('{"n": 3, "arcs": [{"follower": 1, "followed": 2, "w": 1e308}, '
               '{"follower": 1, "followed": 3, "w": 1e308}]}')
        with pytest.raises(NetworkFileError, match="^arcs: node 1: .*finite"):
            parse_arc_file(doc)

    @pytest.mark.parametrize("doc,field", [
        ('{"n": 2, "arcs": 5}', "arcs"),
        ('{"n": 2, "arcs": {"follower": 1, "followed": 2}}', "arcs"),
        ('{"n": 2, "arcs": [], "name": 7}', "name"),
    ])
    def test_arc_file_type_errors_name_field(self, doc, field):
        with pytest.raises(NetworkFileError, match=f"^{field}: "):
            parse_arc_file(doc)


@pytest.mark.parametrize("parse", [parse_network_file, parse_arc_file])
def test_non_utf8_document_is_network_file_error(parse):
    with pytest.raises(NetworkFileError, match="not UTF-8"):
        parse(b"\xff{}")


class TestTrajectoryCsv:
    def test_single_step_row_count(self):
        net = Network(2, (Edge(1, 2),))
        traj = simulate(laplacian(net), None, np.array([0.0, 1.0]),
                        SimulationConfig(dt=0.5, horizon=0.5))
        text = emit_trajectory(traj)
        lines = text.strip().splitlines()
        assert lines[0] == "t,agent,dim,value"
        assert len(lines) == 1 + 2 * traj.n * traj.d

    def test_reparse_is_bit_exact(self):
        net = Network(3, (Edge(1, 2), Edge(2, 3)))
        x0 = np.random.default_rng(0).random((3, 2))
        traj = simulate(laplacian(net), None, x0,
                        SimulationConfig(dt=0.07, horizon=1.4))
        again = parse_trajectory(emit_trajectory(traj))
        assert np.array_equal(again.states, traj.states)

    def test_sample_count_at_reference_settings(self):
        net, cfg, _ = load_fixture("g8")
        from fsnlab import perturbed_laplacian
        traj = simulate(perturbed_laplacian(net, cfg),
                        (cfg.input_matrix(8), cfg.input_vectors()),
                        np.zeros((8, 3)), SimulationConfig(dt=0.01, horizon=60.0))
        assert len(traj.times) == 6001

    def test_bad_header_rejected(self):
        with pytest.raises(NetworkFileError, match="header|start"):
            parse_trajectory("time,agent,dim,value\n0,1,1,0.5")

    def test_header_only_rejected(self):
        with pytest.raises(NetworkFileError, match="and rows"):
            parse_trajectory("t,agent,dim,value\n")

    def test_agent_zero_rejected(self):
        with pytest.raises(NetworkFileError, match="at least 1"):
            parse_trajectory("t,agent,dim,value\n0,0,1,0.5\n0,1,1,0.5\n")

    def test_block_with_two_times_rejected(self):
        with pytest.raises(NetworkFileError, match="sample 1: "):
            parse_trajectory("t,agent,dim,value\n0,1,1,0.5\n0.1,2,1,0.5\n")

    def test_repeated_and_missing_pair_rejected(self):
        with pytest.raises(NetworkFileError, match="sample 2: "):
            parse_trajectory("t,agent,dim,value\n0,1,1,0.5\n0,2,1,0.5\n"
                             "1,2,1,0.5\n1,2,1,0.5\n")
