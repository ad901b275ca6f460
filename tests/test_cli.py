import csv
import json
import time

import pytest

from treebsm import cli
from treebsm.cli import main
from treebsm.analytic import ENGINE_VERSION
from treebsm.montecarlo import STREAM_VERSION


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSweep:
    def test_loss_sweep_rows_and_lossfree_value(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--protocol", "static", "--b", "15,15,2",
            "--eta", "0.7:1.0:61", "--output", str(out),
        ])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 61
        assert float(rows[-1]["pr_complete"]) == pytest.approx(1 - 2.0**-15, abs=1e-12)
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["params"]["b"] == "15,15,2"

    def test_dynamic_beats_pair_ceiling_at_high_eta(self, tmp_path):
        out = tmp_path / "dyn.csv"
        assert main([
            "sweep", "--protocol", "dynamic", "--b", "15,15,2",
            "--eta", "0.5:1.0:51", "--output", str(out),
        ]) == 0
        # The pair ceiling eta^2 reaches 1 at eta = 1 while any finite tree
        # saturates at 1 - 2^-b0, so the comparison excludes that endpoint.
        for row in read_csv(out):
            if 0.85 <= float(row["eta"]) < 0.9999:
                assert float(row["pr_complete"]) > float(row["eta_sq"])

    def test_error_sweep_hits_correction_milestone(self, tmp_path):
        out = tmp_path / "err.csv"
        assert main([
            "sweep", "--protocol", "static", "--b", "74,15",
            "--eps", "1e-6:1e-3", "--eta", "0.95", "--output", str(out),
        ]) == 0
        rows = read_csv(out)
        assert len(rows) == 25
        at_target = [r for r in rows if float(r["eps"]) == pytest.approx(1e-5, rel=1e-9)]
        assert at_target
        row = at_target[0]
        assert float(row["err_complete"]) < float(row["eps_bsm"])

    def test_rerun_reproduces_identical_file(self, tmp_path):
        out = tmp_path / "s.csv"
        args = ["sweep", "--protocol", "dynamic", "--b", "3,2",
                "--eta", "0.5:0.9:5", "--output", str(out)]
        main(args)
        first = out.read_bytes()
        main(args)
        assert out.read_bytes() == first

    def test_malformed_vector_is_usage_error(self, tmp_path):
        rc = main(["sweep", "--protocol", "static", "--b", "2,x",
                   "--output", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_scientific_notation_count(self, tmp_path):
        out = tmp_path / "sci.csv"
        assert main(["sweep", "--protocol", "static", "--b", "2",
                     "--eta", "0.5:1:1e1", "--output", str(out)]) == 0
        assert len(read_csv(out)) == 10

    @pytest.mark.parametrize("eta", ["0.5:1:2.5", "0.5:1:5:7"])
    def test_non_integer_or_extra_count_is_usage_error(self, tmp_path, capsys, eta):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--protocol", "static", "--b", "2",
                  "--eta", eta, "--output", str(tmp_path / "x.csv")])
        assert exc.value.code == 1
        assert "malformed range" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["1e15", "1000000000000000"])
    def test_huge_count_is_usage_error(self, tmp_path, capsys, count):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--protocol", "static", "--b", "2",
                  "--eta", f"0.5:1:{count}", "--output", str(tmp_path / "x.csv")])
        assert exc.value.code == 1
        assert f"cap of {cli.MAX_RANGE_COUNT}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_thousand_branch_shape(self, tmp_path):
        out = tmp_path / "wide.csv"
        assert main(["sweep", "--protocol", "dynamic", "--b", "1100,2",
                     "--eta", "0.5:1:6", "--eps", "0:1e-3:3", "--output", str(out)]) == 0
        for row in read_csv(out):
            assert 0.0 <= float(row["pr_complete"]) <= 1.0
            assert 0.0 <= float(row["err_complete"]) <= 0.75

    def test_manifest_keys(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--protocol", "static", "--b", "2", "--output", str(out)]) == 0
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert set(manifest) == {"command", "params", "version", "stream_version",
                                 "engine_version", "outputs", "wall_time_s"}
        assert manifest["outputs"] == [str(out)]
        assert manifest["stream_version"] == STREAM_VERSION == 3
        assert manifest["engine_version"] == ENGINE_VERSION == 3


@pytest.mark.parametrize("command", [
    ["sweep", "--protocol", "static", "--b", "2"],
    ["threshold", "--protocol", "static", "--target", "0.7", "--family", "2,2"],
    ["search", "--protocol", "static", "--eta", "0.9", "--max-depth", "2", "--max-n", "20"],
], ids=["sweep", "threshold", "search"])
def test_unwritable_output_is_io_error(tmp_path, capsys, command):
    out = str(tmp_path / "missing-dir" / "x.out")
    assert main(command + ["--output", out]) == 1
    assert out in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["sweep", "--b", "2"],
    ["search", "--eta", "0.9"],
])
def test_closed_form_commands_refuse_loss_only(tmp_path, capsys, command):
    # Only validate samples the loss-only protocol; the closed-form commands
    # do not offer it as a choice.
    with pytest.raises(SystemExit) as exc:
        main(command + ["--protocol", "loss-only", "--output", str(tmp_path / "x.csv")])
    assert exc.value.code == 1
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["sweep", "--protocol", "static", "--b", "2,2", "--eps", "0.1:0.8:3"],
    ["search", "--protocol", "dynamic", "--eta", "0.9", "--eps", "0.7", "--max-n", "20"],
    ["validate", "--protocol", "dynamic", "--b", "2,2", "--eta", "0.9", "--eps", "0.9",
     "--n", "100", "--seed", "1"],
    ["validate", "--protocol", "loss-only", "--b", "2,2", "--eta", "0.9", "--eps", "0.9",
     "--n", "100", "--seed", "1"],
])
def test_eps_beyond_a_channel_exits_1(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    extra = ["--output", str(out)] if command[0] != "validate" else []
    assert main(command + extra) == 1
    assert "eps must be at most 2/3" in capsys.readouterr().err
    assert not out.exists()


class TestThreshold:
    def test_static_defaults(self, capsys):
        assert main(["threshold", "--protocol", "static"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.806 <= report["eta_star"] <= 0.84
        assert report["bracket"][0] <= report["eta_star"] <= report["bracket"][1]

    def test_dynamic_defaults(self, capsys):
        assert main(["threshold", "--protocol", "dynamic"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.50 <= report["eta_star"] <= 0.60

    def test_unreachable_target_exit_code(self):
        assert main(["threshold", "--protocol", "static", "--target", "1.0"]) == 2

    @pytest.mark.parametrize("flags", [["--target", "nan"], ["--tol", "nan"], ["--tol", "2"]])
    def test_unusable_target_or_tol_is_refused(self, capsys, flags):
        assert main(["threshold", "--protocol", "static", "--family", "2,2", *flags]) == 1
        assert "must be" in capsys.readouterr().err

    def test_manifest_times_the_bisection(self, tmp_path, monkeypatch):
        # The manifest's wall time must cover find_threshold itself.
        real = cli.find_threshold

        def slow(*args, **kwargs):
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "find_threshold", slow)
        out = tmp_path / "t.json"
        assert main(["threshold", "--protocol", "static", "--target", "0.7",
                     "--family", "2,2;4,2", "--output", str(out)]) == 0
        manifest = json.loads((tmp_path / "t.json.manifest.json").read_text())
        assert manifest["wall_time_s"] >= 0.2
        assert manifest["stream_version"] == STREAM_VERSION
        assert manifest["engine_version"] == ENGINE_VERSION

    def test_explicit_family(self, capsys):
        assert main([
            "threshold", "--protocol", "static", "--target", "0.7",
            "--family", "2,2;4,2",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["family_size"] == 2


class TestValidate:
    def test_static_known_point_passes(self, capsys):
        rc = main(["validate", "--protocol", "static", "--b", "2", "--eta", "0.9",
                   "--n", "100000", "--seed", "5"])
        assert rc == 0
        assert "ok" in capsys.readouterr().out

    def test_dynamic_with_errors_passes(self):
        rc = main(["validate", "--protocol", "dynamic", "--b", "3,2", "--eta", "0.8",
                   "--eps", "1e-3", "--n", "100000", "--seed", "6"])
        assert rc == 0

    def test_oversized_tree_is_refused(self, capsys):
        rc = main(["validate", "--protocol", "static", "--b", "120,120,24,11,8,4,1",
                   "--eta", "0.9", "--n", "1000", "--seed", "1"])
        assert rc == 1
        assert "GB" in capsys.readouterr().err

    def test_footer_reports_run_metrics(self, capsys):
        assert main(["validate", "--protocol", "static", "--b", "2", "--eta", "0.9",
                     "--n", "1000", "--seed", "5"]) == 0
        footer = capsys.readouterr().out.strip().splitlines()[-1]
        assert "world_bytes=" in footer and "samples_per_s=" in footer
        assert "draw_s=" in footer and "eval_s=" in footer
        assert f"stream_version={STREAM_VERSION}" in footer and "workers=" not in footer
        assert f"engine_version={ENGINE_VERSION}" in footer

    def test_eps_too_small_to_draw_is_usage_error(self, capsys):
        # Below 2^-31 no 32-bit word would be a fault: a fault-free run
        # would pass for one with faults.
        rc = main(["validate", "--protocol", "static", "--b", "2", "--eta", "0.9",
                   "--eps", "1e-10", "--n", "1000", "--seed", "5"])
        assert rc == 1
        assert "eps 1e-10 is below 4.657e-10 (2^-31)" in capsys.readouterr().err

    def test_loss_only_reports_sample_only(self, capsys):
        rc = main(["validate", "--protocol", "loss-only", "--b", "2,2", "--eta", "0.8",
                   "--n", "20000", "--seed", "8"])
        assert rc == 0
        assert "sampled only" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    def test_seed_outside_64_bits_is_usage_error(self, capsys, seed):
        rc = main(["validate", "--protocol", "static", "--b", "2", "--eta", "0.9",
                   "--n", "1000", "--seed", seed])
        assert rc == 1
        assert f"seed must be in 0 to 2^64 - 1 (18446744073709551615), got {seed}" \
            in capsys.readouterr().err

    def test_largest_seed_runs(self, capsys):
        assert main(["validate", "--protocol", "static", "--b", "2", "--eta", "0.9",
                     "--n", "1000", "--seed", "18446744073709551615"]) == 0
        assert "seed=18446744073709551615" in capsys.readouterr().out


class TestVerifyGeneration:
    def test_pass_and_report(self, capsys):
        assert main(["verify-generation", "--b", "2,2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "instructions=27" in out

    def test_seeded_random_outcomes(self, capsys):
        assert main(["verify-generation", "--b", "3,2", "--seed", "4"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    def test_seed_outside_64_bits_is_usage_error(self, capsys, seed):
        assert main(["verify-generation", "--b", "2,2", "--seed", seed]) == 1
        assert "seed must be in 0 to 2^64 - 1" in capsys.readouterr().err

    def test_largest_seed_runs(self, capsys):
        assert main(["verify-generation", "--b", "2,2", "--seed", "18446744073709551615"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestSearch:
    def test_dynamic_reference_point(self, tmp_path):
        out = tmp_path / "front.csv"
        rc = main([
            "search", "--protocol", "dynamic", "--eta", "0.95", "--eps", "1e-5",
            "--max-depth", "3", "--max-branch", "20", "--max-n", "700",
            "--output", str(out),
        ])
        assert rc == 0
        rows = read_csv(out)
        ec = [r for r in rows if r["error_correcting"] == "1"]
        assert ec and ec[0]["b"] == "15,15,2" and ec[0]["n"] == "691"

    def test_manifest_records_min_depth(self, tmp_path):
        manifests = []
        for extra in ([], ["--min-depth", "1"]):
            out = tmp_path / f"front{len(extra)}.csv"
            assert main(["search", "--protocol", "static", "--eta", "0.9",
                         "--max-depth", "2", "--max-n", "60", "--output", str(out)] + extra) == 0
            manifests.append(json.loads((tmp_path / f"{out.name}.manifest.json").read_text()))
        assert [m["params"]["bounds"]["min_depth"] for m in manifests] == [2, 1]
        assert [m["stream_version"] for m in manifests] == [STREAM_VERSION] * 2
        assert [m["engine_version"] for m in manifests] == [ENGINE_VERSION] * 2

    def test_static_small_bound_has_no_error_correction(self, tmp_path):
        out = tmp_path / "front.csv"
        rc = main([
            "search", "--protocol", "static", "--eta", "0.95", "--eps", "1e-5",
            "--max-n", "100", "--output", str(out),
        ])
        assert rc == 0
        assert all(r["error_correcting"] == "0" for r in read_csv(out))
