import json
import os

import numpy as np
import pytest

from choicenet.cli import EXIT_BAD_INPUT, EXIT_ERROR, EXIT_OK, main
from choicenet import data as D
from choicenet import oracle as O


def run(argv):
    return main([str(a) for a in argv])


class TestEndToEnd:
    def test_gen_train_eval_predict_attention(self, tmp_path, capsys):
        data = tmp_path / "boost.csv"
        assert run(["gen-synthetic", "--samples", 200, "--out-file", data]) == EXIT_OK
        assert data.exists()

        out = tmp_path / "runs"
        rc = run(
            [
                "train", "--task", "sequential", "--data", data,
                "--out", out, "--run-id", "smoke",
                "--epochs", 2, "--batch-size", 32,
                "--hidden-dim", 8, "--heads", 2, "--dropout", "0.0",
            ]
        )
        assert rc == EXIT_OK
        run_dir = out / "smoke"
        ckpt = run_dir / "best.ckpt.npz"
        assert ckpt.exists()
        assert (run_dir / "report_0.txt").exists()
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["metric"] == "ce"
        assert summary["repeats"] == 1

        rc = run(
            ["eval", "--task", "sequential", "--data", data, "--checkpoint", ckpt]
        )
        assert rc == EXIT_OK
        assert "ce:" in capsys.readouterr().out

        rc = run(
            [
                "predict", "--task", "sequential", "--checkpoint", ckpt,
                "--items", "A;A';B;L", "--assortment", "A;B;L",
                "--candidates", "A;L",
            ]
        )
        assert rc == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if "\t" in l]
        assert len(lines) == 2
        probs = [float(l.split("\t")[1]) for l in lines]
        assert sum(probs) == pytest.approx(1.0, abs=1e-5)

        att_dir = tmp_path / "attention"
        rc = run(
            [
                "attention", "--checkpoint", ckpt,
                "--items", "A;A';B;L", "--assortment", "A;B;L",
                "--out-dir", att_dir, "--no-svg",
            ]
        )
        assert rc == EXIT_OK
        files = os.listdir(att_dir)
        assert files and all(f.endswith(".csv") for f in files)

    def test_repeats_summary(self, tmp_path):
        data = tmp_path / "boost.csv"
        run(["gen-synthetic", "--samples", 120, "--out-file", data])
        out = tmp_path / "runs"
        rc = run(
            [
                "train", "--task", "sequential", "--data", data,
                "--out", out, "--run-id", "rep", "--repeats", 2,
                "--epochs", 1, "--batch-size", 32,
                "--hidden-dim", 8, "--heads", 2, "--dropout", "0.0",
            ]
        )
        assert rc == EXIT_OK
        summary = json.loads((out / "rep" / "summary.json").read_text())
        assert summary["repeats"] == 2
        assert (out / "rep" / "report_1.txt").exists()

    def test_repeats_keep_lowest_validation_loss(self, tmp_path):
        data = tmp_path / "boost.csv"
        run(["gen-synthetic", "--samples", 120, "--out-file", data])
        out = tmp_path / "runs"
        train = [
            "train", "--task", "sequential", "--data", data, "--out", out,
            "--epochs", 2, "--batch-size", 32,
            "--hidden-dim", 8, "--heads", 2, "--dropout", "0.0",
        ]
        assert run([*train, "--run-id", "rep", "--repeats", 2]) == EXIT_OK
        best_val = []
        for k in range(2):
            lines = (out / "rep" / f"report_{k}.txt").read_text().splitlines()
            epoch = int(next(l for l in lines if l.startswith("best_epoch")).split("\t")[1])
            best_val.append(float(lines[1 + epoch].split("\t")[2]))
        winner = int(np.argmin(best_val))
        # at the default seed the second repeat wins, so saving the first one
        # regardless fails here
        assert winner == 1
        assert run(["--seed", winner, *train, "--run-id", "one"]) == EXIT_OK
        with np.load(out / "rep" / "best.ckpt.npz") as a, np.load(out / "one" / "best.ckpt.npz") as b:
            assert sorted(a.files) == sorted(b.files)
            for name in a.files:
                np.testing.assert_array_equal(a[name], b[name])
        assert (out / "rep" / "config.json").read_text() == (out / "one" / "config.json").read_text()

    def test_multi_pipeline(self, tmp_path, capsys):
        data = tmp_path / "multi.csv"
        run(["gen-synthetic", "--multi", "--samples", 120, "--out-file", data])
        out = tmp_path / "runs"
        rc = run(
            [
                "train", "--task", "multi", "--data", data,
                "--out", out, "--run-id", "m",
                "--epochs", 2, "--batch-size", 32,
                "--hidden-dim", 8, "--heads", 2, "--dropout", "0.0",
            ]
        )
        assert rc == EXIT_OK
        summary = json.loads((out / "m" / "summary.json").read_text())
        assert summary["metric"] == "f1_loss"
        ckpt = out / "m" / "best.ckpt.npz"
        rc = run(
            [
                "predict", "--task", "multi", "--checkpoint", ckpt,
                "--items", "A;A';B;L", "--assortment", "A;A';L",
                "--size", 2,
            ]
        )
        assert rc == EXIT_OK
        basket = capsys.readouterr().out.strip().split(";")
        assert len(basket) == 2


class TestTheoryCheck:
    def test_random_models_pass(self, capsys):
        rc = run(["theory-check", "--n", 3, "--models", 2])
        assert rc == EXIT_OK
        assert "worst error" in capsys.readouterr().out

    def test_saved_model_file(self, tmp_path):
        m = O.TabularSequentialModel.random(3, np.random.default_rng(1))
        path = tmp_path / "tab.txt"
        m.save(path)
        assert run(["theory-check", "--tabular", path]) == EXIT_OK

    def test_impossible_tolerance_fails(self):
        assert run(["theory-check", "--n", 2, "--models", 1, "--tol", 0.0]) == EXIT_ERROR


class TestConvert:
    def test_to_multi_csv(self, tmp_path):
        trans = tmp_path / "t.txt"
        trans.write_text("1, 1, 2\n2, 2, 3\n3, 1\n")
        out = tmp_path / "m.csv"
        assert run(["convert", "--data", trans, "--to", "multi-csv", "--out-file", out]) == EXIT_OK
        ds = D.load_csv(out)
        assert ds.kind == D.MULTI
        assert len(ds) == 3

    def test_to_sequential_with_stop(self, tmp_path):
        trans = tmp_path / "t.txt"
        trans.write_text("1, 1, 2\n2, 2, 3\n3, 1\n")
        out = tmp_path / "s.csv"
        rc = run(
            [
                "convert", "--data", trans, "--to", "sequential-csv",
                "--append-stop", "--out-file", out,
            ]
        )
        assert rc == EXIT_OK
        ds = D.load_csv(out)
        assert ds.kind == D.SEQUENTIAL
        # each basket contributes |B| + 1 samples with the stop choice last
        assert len(ds) == (2 + 1) + (2 + 1) + (1 + 1)


class TestExitCodes:
    def test_missing_file_is_bad_input(self, tmp_path):
        assert (
            run(["eval", "--task", "sequential", "--data", tmp_path / "nope.csv",
                 "--checkpoint", tmp_path / "nope.npz"])
            == EXIT_BAD_INPUT
        )

    def test_malformed_csv_is_bad_input(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("obs_id,kind,assortment,candidates,choice,basket\n0,single,A,,B,\n")
        out = tmp_path / "runs"
        rc = run(
            ["train", "--task", "single", "--data", bad, "--out", out,
             "--epochs", 1]
        )
        assert rc == EXIT_BAD_INPUT

    def test_bad_item_name_is_bad_input(self, tmp_path):
        ckpt = tmp_path / "c.npz"
        from choicenet import model as M

        cfg = M.TCNetConfig(input_dim=2, hidden_dim=8, n_heads=2)
        M.save_checkpoint(ckpt, M.init_params(cfg), cfg)
        rc = run(
            ["predict", "--task", "sequential", "--checkpoint", ckpt,
             "--items", "a;b", "--assortment", "a;zzz"]
        )
        assert rc == EXIT_BAD_INPUT
