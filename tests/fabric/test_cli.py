"""repro-fabric command-line tool."""

import pytest

from repro.fabric import build_fabric, dumps, loads, save
from repro.fabric.cli import main
from repro.topology import pgft


@pytest.fixture
def topo_file(tmp_path):
    path = tmp_path / "f.topo"
    save(build_fabric(pgft(2, [4, 4], [1, 4], [1, 1])), path)
    return str(path)


class TestGenerate:
    def test_generate_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "gen.topo")
        assert main(["generate", "2; 4,4; 1,2; 1,2", out]) == 0
        fab = loads(open(out).read())
        assert fab.num_endports == 16
        assert "PGFT(2; 4,4; 1,2; 1,2)" in capsys.readouterr().out

    def test_bad_spec(self):
        with pytest.raises(SystemExit):
            main(["generate", "2; 4,4", "/tmp/x.topo"])


class TestDescribe:
    def test_describe(self, topo_file, capsys):
        assert main(["describe", topo_file]) == 0
        out = capsys.readouterr().out
        assert "end-ports : 16" in out
        assert "switches  : 8" in out


class TestDiscover:
    def test_valid(self, topo_file, capsys):
        assert main(["discover", topo_file]) == 0
        assert "valid PGFT" in capsys.readouterr().out

    def test_miswired_fails(self, tmp_path, capsys):
        fab = build_fabric(pgft(2, [4, 4], [1, 4], [1, 1]))
        lines = [l for l in dumps(fab).splitlines()
                 if not l.startswith("pgft")]
        ups = [i for i, l in enumerate(lines) if l.startswith("link SW1-")]
        a_head, a_tail = lines[ups[0]].rsplit(" ", 1)
        b_head, b_tail = lines[ups[5]].rsplit(" ", 1)
        lines[ups[0]] = f"{a_head} {b_tail}"
        lines[ups[5]] = f"{b_head} {a_tail}"
        path = tmp_path / "bad.topo"
        path.write_text("\n".join(lines))
        assert main(["discover", str(path)]) == 1
        assert "NOT a valid PGFT" in capsys.readouterr().out

    def test_declared_mismatch_flagged(self, tmp_path, capsys):
        fab = build_fabric(pgft(2, [4, 4], [1, 4], [1, 1]))
        text = dumps(fab).replace("pgft 2; 4,4; 1,4; 1,1",
                                  "pgft 2; 4,4; 1,2; 1,2")
        path = tmp_path / "lie.topo"
        path.write_text(text)
        assert main(["discover", str(path)]) == 1
        assert "WARNING" in capsys.readouterr().out


class TestValidate:
    def test_full_battery(self, topo_file, capsys):
        assert main(["validate", topo_file]) == 0
        out = capsys.readouterr().out
        for marker in ("reachability", "up*/down*", "deadlock", "theorem-2"):
            assert marker in out

    def test_generic_fabric_uses_minhop(self, tmp_path, capsys):
        path = tmp_path / "generic.topo"
        path.write_text(
            "hca A ports=1\nhca B ports=1\nswitch S ports=2\n"
            "link A[0] S[0]\nlink B[0] S[1]\n"
        )
        assert main(["validate", str(path)]) == 0
        assert "minhop" in capsys.readouterr().out


class TestHsd:
    def test_topology_order_clean(self, topo_file, capsys):
        assert main(["hsd", topo_file, "--cps", "shift"]) == 0
        assert "congestion-free" in capsys.readouterr().out

    def test_random_order_blocks(self, topo_file, capsys):
        main(["hsd", topo_file, "--order", "random", "--seed", "1"])
        assert "BLOCKING" in capsys.readouterr().out

    def test_hier_rd(self, topo_file, capsys):
        assert main(["hsd", topo_file, "--cps", "recdbl-hier"]) == 0

    def test_unknown_cps(self, topo_file):
        with pytest.raises(ValueError):
            main(["hsd", topo_file, "--cps", "warp-speed"])
