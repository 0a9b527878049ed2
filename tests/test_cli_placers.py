"""CLI coverage: every placer choice end-to-end over Bookshelf files."""

import pytest

from repro.bookshelf import load_instance
from repro.cli import main


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli"))
    assert main(["generate", "Dagmar", "--out", out, "--seed", "2"]) == 0
    return out


class TestPlacerChoices:
    @pytest.mark.parametrize(
        "placer", ["fbp", "rql", "kraftwerk", "recursive"]
    )
    def test_place_each(self, instance_dir, placer, tmp_path):
        out = str(tmp_path)
        code = main([
            "place", "Dagmar", "--dir", instance_dir,
            "--out", out, "--placer", placer,
        ])
        assert code == 0
        nl, _ = load_instance(out, "Dagmar")
        assert nl.hpwl() > 0

    @pytest.mark.parametrize(
        "flag", [["--relax-infeasible"], ["--shard-tiles", "2"]]
    )
    @pytest.mark.parametrize("placer", ["rql", "kraftwerk", "recursive"])
    def test_fbp_only_option_refused(
        self, instance_dir, placer, flag, tmp_path
    ):
        # the option would be set on options nothing reads: refused
        # before placing, and nothing is written
        with pytest.raises(SystemExit, match="only supported by the fbp"):
            main([
                "place", "Dagmar", "--dir", instance_dir,
                "--out", str(tmp_path), "--placer", placer,
            ] + flag)
        assert not list(tmp_path.iterdir())

    def test_score_after_place(self, instance_dir, tmp_path):
        out = str(tmp_path)
        main(["place", "Dagmar", "--dir", instance_dir, "--out", out])
        assert main(["score", "Dagmar", "--dir", out]) == 0

    def test_check_reports_feasible(self, instance_dir):
        assert main(["check", "Dagmar", "--dir", instance_dir]) == 0

    def test_exclusive_generate(self, tmp_path):
        out = str(tmp_path)
        code = main([
            "generate", "Rabe", "--movebounds", "--exclusive",
            "--suite", "movebound", "--out", out,
        ])
        assert code == 0
        _nl, bounds = load_instance(out, "Rabe")
        assert all(b.is_exclusive for b in bounds)
