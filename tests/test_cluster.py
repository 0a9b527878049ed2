"""Tests for BestChoice clustering."""

import numpy as np
import pytest

from repro.cluster import bestchoice_cluster
from repro.geometry import Rect
from repro.netlist import Netlist, Pin
from repro.place import BonnPlaceFBP, BonnPlaceOptions
from repro.workloads import NetlistSpec, generate_netlist
from tests.conftest import build_random_netlist

DIE = Rect(0, 0, 100, 100)


def _netlist(seed=0, num_cells=200):
    spec = NetlistSpec("cl", num_cells, utilization=0.5, num_pads=8)
    nl, _ = generate_netlist(spec, seed=seed)
    return nl


class TestClustering:
    def test_reaches_ratio(self):
        nl = _netlist()
        clustering = bestchoice_cluster(nl, cluster_ratio=4.0)
        assert clustering.ratio == pytest.approx(4.0, rel=0.3)

    def test_area_preserved(self):
        nl = _netlist(seed=1)
        clustering = bestchoice_cluster(nl, cluster_ratio=5.0)
        assert clustering.clustered.total_cell_area() == pytest.approx(
            nl.total_cell_area(), rel=1e-6
        )

    def test_members_partition_cells(self):
        nl = _netlist(seed=2)
        clustering = bestchoice_cluster(nl, cluster_ratio=3.0)
        flat = sorted(i for group in clustering.members for i in group)
        assert flat == list(range(nl.num_cells))
        for i in range(nl.num_cells):
            k = clustering.cluster_of[i]
            assert i in clustering.members[k]

    def test_fixed_cells_stay_singleton(self):
        nl = Netlist(DIE)
        nl.add_cell("f", 2, 2, fixed=True)
        for i in range(8):
            nl.add_cell(f"c{i}", 1, 1, x=10 + i, y=10)
        for i in range(8):
            nl.add_net(f"n{i}", [Pin(0), Pin(1 + i)])
        clustering = bestchoice_cluster(nl, cluster_ratio=4.0)
        k_fixed = clustering.cluster_of[0]
        assert clustering.members[k_fixed] == [0]
        assert clustering.clustered.cells[k_fixed].fixed

    def test_movebounds_never_mix(self):
        nl = Netlist(DIE)
        for i in range(6):
            mb = "a" if i < 3 else "b"
            nl.add_cell(f"c{i}", 1, 1, x=10 + i, y=10, movebound=mb)
        # heavy connectivity across the movebound boundary
        for i in range(3):
            nl.add_net(f"x{i}", [Pin(i), Pin(i + 3)])
        clustering = bestchoice_cluster(nl, cluster_ratio=3.0)
        for group in clustering.members:
            bounds = {nl.cells[i].movebound for i in group}
            assert len(bounds) == 1

    def test_connected_cells_cluster_first(self):
        """A tightly connected pair clusters before unrelated cells."""
        nl = Netlist(DIE)
        for i in range(4):
            nl.add_cell(f"c{i}", 1, 1, x=10 + i, y=10)
        for _ in range(5):  # strong 0-1 connection
            nl.add_net(f"s{_}", [Pin(0), Pin(1)])
        nl.add_net("w", [Pin(2), Pin(3)])
        clustering = bestchoice_cluster(nl, cluster_ratio=4 / 3)
        assert clustering.cluster_of[0] == clustering.cluster_of[1]

    def test_induced_nets_collapse(self):
        nl = Netlist(DIE)
        for i in range(4):
            nl.add_cell(f"c{i}", 1, 1, x=10 + i, y=10)
        nl.add_net("ab", [Pin(0), Pin(1)])
        nl.add_net("ab2", [Pin(0), Pin(1)])
        nl.add_net("abc", [Pin(0), Pin(1), Pin(2)])
        # cap cluster size so only the {0, 1} pair can merge
        clustering = bestchoice_cluster(
            nl, cluster_ratio=4 / 3, max_cluster_size=2.0
        )
        assert clustering.cluster_of[0] == clustering.cluster_of[1]
        assert clustering.cluster_of[2] != clustering.cluster_of[0]
        names = [n.name for n in clustering.clustered.nets]
        # fully internal nets disappear; abc keeps 2 pins
        assert "ab" not in names and "ab2" not in names
        abc = next(
            n for n in clustering.clustered.nets if n.name == "abc"
        )
        assert abc.degree == 2

    def test_uncluster_positions(self):
        nl = _netlist(seed=3)
        cx, cy = nl.die.center
        clustering = bestchoice_cluster(nl, cluster_ratio=4.0)
        clustering.clustered.x[:] = cx
        clustering.clustered.y[:] = cy
        clustering.uncluster()
        movable = [c.index for c in nl.cells if not c.fixed]
        assert np.allclose(nl.x[movable], cx, atol=2.0)
        assert np.allclose(nl.y[movable], cy, atol=2.0)

    def test_placer_integration(self):
        nl = _netlist(seed=4, num_cells=300)
        from repro.movebounds import MoveBoundSet

        res = BonnPlaceFBP(
            BonnPlaceOptions(cluster_ratio=4.0)
        ).place(nl, MoveBoundSet(nl.die))
        assert res.legality.is_legal

    def test_infeasible_flat_refinement_raises(self, monkeypatch):
        """The flat refinement after unclustering checks its FBP report
        like every level does: an infeasible pass is a PlacementError,
        never an unpartitioned placement returned as a result."""
        from repro.movebounds import MoveBoundSet
        from repro.place import PlacementError
        from repro.place import bonnplace

        nl = _netlist(seed=4, num_cells=300)
        real = bonnplace.fbp_partition

        def infeasible_on_flat(netlist, *args, **kwargs):
            report = real(netlist, *args, **kwargs)
            if netlist is nl:  # the refinement, not the clustered levels
                report.feasible = False
            return report

        monkeypatch.setattr(bonnplace, "fbp_partition", infeasible_on_flat)
        placer = BonnPlaceFBP(
            BonnPlaceOptions(cluster_ratio=4.0, legalize=False)
        )
        with pytest.raises(PlacementError, match="infeasible"):
            placer.place(nl, MoveBoundSet(nl.die))
