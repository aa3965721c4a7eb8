import json
import os

import numpy as np
import pytest

from choicenet import cli
from choicenet.cli import EXIT_BAD_INPUT, EXIT_ERROR, EXIT_OK, build_parser, main
from choicenet import data as D
from choicenet import inference as I
from choicenet import model as M
from choicenet import oracle as O
from choicenet import training as T
from choicenet.tensor import Tensor


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
        assert run(["--seed", 1, *train, "--run-id", "rep", "--repeats", 2]) == EXIT_OK
        # every repeat trains on the one split of --seed and differs only in
        # its training seed (--seed + repeat), so their validation losses
        # compare
        args = build_parser().parse_args([str(a) for a in ["--seed", 1, *train]])
        splits = [
            D.reduce_split(part, "sequential", 1, k)
            for k, part in enumerate(D.split(D.load_csv(str(data)), seed=1))
        ]
        best_val, trained = [], []
        for k in range(2):
            mc = cli._model_config(args, D.effective_feature_dim(splits[0]))
            tc = cli._train_config(args)
            mc.seed = tc.seed = 1 + k
            params, report = T.train(mc, splits, tc)
            written = (out / "rep" / f"report_{k}.txt").read_text().splitlines()
            assert written[:3] == report.to_text().splitlines()[:3]
            best_val.append(report.val_losses[report.best_epoch])
            trained.append(params)
        winner = int(np.argmin(best_val))
        # at this seed the second repeat wins, so saving the first one
        # regardless fails here
        assert winner == 1
        with np.load(out / "rep" / "best.ckpt.npz") as ckpt:
            assert sorted(ckpt.files) == sorted(["config_json", *(f"param:{n}" for n in trained[winner])])
            for name, p in trained[winner].items():
                np.testing.assert_array_equal(ckpt[f"param:{name}"], p.data)
        assert json.loads((out / "rep" / "config.json").read_text())["seed"] == 1 + winner

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


    def test_eval_multi_checkpoint(self, tmp_path, capsys):
        data = tmp_path / "multi.csv"
        run(["gen-synthetic", "--multi", "--samples", 120, "--out-file", data])
        out = tmp_path / "runs"
        rc = run(
            [
                "train", "--task", "multi", "--data", data,
                "--out", out, "--run-id", "m", "--epochs", 2, "--batch-size", 32,
                "--hidden-dim", 8, "--heads", 2,
            ]
        )
        assert rc == EXIT_OK
        capsys.readouterr()
        ckpt = out / "m" / "best.ckpt.npz"
        rc = run(
            ["eval", "--task", "multi", "--data", data, "--checkpoint", ckpt,
             "--threshold", 0.3]
        )
        assert rc == EXIT_OK
        params, config = M.load_checkpoint(ckpt)
        f1 = I.evaluate(params, config, D.load_csv(data), D.MULTI, mu=0.3)["f1_loss"]
        assert capsys.readouterr().out.splitlines() == [f"f1_loss: {f1}", "threshold: 0.3"]


    @pytest.mark.parametrize("task", ["sequential", "single"])
    def test_eval_basket_file_for_sequential_tasks(self, tmp_path, capsys, task):
        # eval expands the baskets as train expands its test split
        data = tmp_path / "baskets.txt"
        rng = np.random.default_rng(0)
        data.write_text("".join(
            " ".join(map(str, rng.choice(6, rng.integers(1, 4), replace=False) + 1)) + "\n"
            for _ in range(60)
        ))
        out = tmp_path / "runs"
        rc = run(
            [
                "train", "--task", "sequential", "--format", "transactions", "--data", data,
                "--out", out, "--run-id", "b", "--epochs", 1, "--batch-size", 32,
                "--hidden-dim", 8, "--heads", 2,
            ]
        )
        assert rc == EXIT_OK
        capsys.readouterr()
        rc = run(
            ["eval", "--task", task, "--format", "transactions", "--data", data,
             "--checkpoint", out / "b" / "best.ckpt.npz"]
        )
        assert rc == EXIT_OK
        (line,) = capsys.readouterr().out.splitlines()
        key, value = line.split(": ")
        assert key == "ce" and np.isfinite(float(value))


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

    @pytest.mark.parametrize(
        "flag,value,field",
        [("--heads", 0, "n_heads"), ("--hidden-dim", 0, "hidden_dim"),
         ("--batch-size", 0, "batch_size"), ("--heads", -4, "n_heads"),
         ("--repeats", 0, "repeats"), ("--lr", 0, "--lr"), ("--lr", -1, "--lr"),
         ("--weight-decay", -1, "weight_decay")],
    )
    def test_non_positive_size_is_bad_input(self, tmp_path, capsys, flag, value, field):
        data = tmp_path / "boost.csv"
        run(["gen-synthetic", "--samples", 40, "--out-file", data])
        rc = run(["train", "--task", "sequential", "--data", data, "--out", tmp_path / "runs",
                  "--epochs", 1, flag, value])
        assert rc == EXIT_BAD_INPUT
        assert field in capsys.readouterr().err

    def test_bad_threshold_fails_before_training(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "multi.csv"
        run(["gen-synthetic", "--multi", "--samples", 40, "--out-file", data])

        def must_not_train(*args, **kwargs):
            raise AssertionError("trained despite a bad threshold")

        monkeypatch.setattr(T, "train", must_not_train)
        rc = run(["train", "--task", "multi", "--data", data, "--out", tmp_path / "runs",
                  "--epochs", 1, "--threshold", 1.5])
        assert rc == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "--threshold" in err and "1.5" in err

    def test_divergence_exits_1_naming_the_op_epoch_and_batch(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "boost.csv"
        run(["gen-synthetic", "--samples", 200, "--out-file", data])
        network_utilities = T.network_utilities

        def diverging(mc):
            utilities, steps = network_utilities(mc), []

            def forward(batch, params, training=False, rng=None):
                u = utilities(batch, params, training, rng)
                steps.append(training)
                if training and steps.count(True) == 3:
                    with np.errstate(over="ignore", invalid="ignore"):
                        return u * Tensor(np.full(u.shape, np.inf))
                return u

            return forward

        monkeypatch.setattr(T, "network_utilities", diverging)
        rc = run(["train", "--task", "sequential", "--data", data, "--out", tmp_path / "runs",
                  "--epochs", 1, "--batch-size", 32, "--hidden-dim", 8, "--heads", 2])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: training diverged: non-finite values produced by 'mul' at epoch 0, batch 2\n"
        )

    def test_multi_task_on_sequential_data_is_bad_input(self, tmp_path, capsys):
        data = tmp_path / "boost.csv"
        run(["gen-synthetic", "--samples", 300, "--out-file", data])
        rc = run(["train", "--task", "multi", "--data", data, "--out", tmp_path / "runs",
                  "--epochs", 1])
        assert rc == EXIT_BAD_INPUT
        assert "task multi needs basket data, got sequential" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "task, extra, named",
        [("multi", ["--candidates", "a", "--size", 1], "--candidates"),
         ("single", ["--size", 2], "--size"),
         ("sequential", ["--method", "sample"], "--method sample"),
         ("sequential", ["--size", 1, "--method", "sample"], "--size or --method sample")],
    )
    def test_predict_refuses_a_flag_its_task_ignores(
        self, tmp_path, capsys, monkeypatch, task, extra, named
    ):
        def must_not_load(path):
            raise AssertionError("loaded the checkpoint despite an ignored flag")

        monkeypatch.setattr(M, "load_checkpoint", must_not_load)
        rc = run(["predict", "--task", task, "--checkpoint", tmp_path / "c.npz",
                  "--items", "a;b", "--assortment", "a;b", *extra])
        assert rc == EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: --task {task} does not use {named}\n"

    @pytest.mark.parametrize("task, rows, named", [
        ("multi", ["0,multi,a;b;c,,,a;b", "1,multi,a;b;c,a,,b;c"], "line 3"),
        ("multi", ["0,multi,a;b;c,,a,a;b", "1,multi,a;b;c,,b,b;c"], "line 2"),
        ("single", ["0,single,a;b;c,,a,", "1,single,a;b;c,b;c,b,"], "line 3"),
    ])
    def test_a_field_the_kind_does_not_use_is_bad_input(self, tmp_path, capsys, task, rows, named):
        data = tmp_path / "d.csv"
        data.write_text("\n".join(["obs_id,kind,assortment,candidates,choice,basket", *rows]))
        rc = run(["train", "--task", task, "--data", data, "--out", tmp_path / "runs",
                  "--epochs", 1])
        assert rc == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert f"d.csv, {named}: a {task} observation takes no" in err

    def test_non_finite_inputs_are_bad_input(self, tmp_path, capsys):
        # a nan context cell, an infinite item feature, a non-finite parameter
        data = tmp_path / "d.csv"
        rows = [f"{k},single,a;b;c,,{'abc'[k % 3]},,{k / 10}" for k in range(30)]
        rows[17] = "17,single,a;b;c,,c,,nan"
        data.write_text("\n".join(["obs_id,kind,assortment,candidates,choice,basket,f_0", *rows]))
        train = ["train", "--task", "single", "--data", data, "--out", tmp_path / "runs",
                 "--epochs", 1, "--hidden-dim", 8, "--heads", 2]
        assert run(train) == EXIT_BAD_INPUT
        assert "d.csv, line 19: context (nan,) is not finite" in capsys.readouterr().err

        data.write_text("\n".join(["obs_id,kind,assortment,candidates,choice,basket",
                                   *(f"{k},single,a;b;c,,{'abc'[k % 3]}," for k in range(30))]))
        feats = tmp_path / "items.csv"
        feats.write_text("name,f_0,f_1\na,1.0,0.0\nb,0.0,inf\nc,1.0,1.0\n")
        assert run([*train, "--item-features", feats]) == EXIT_BAD_INPUT
        assert "items.csv: item 'b' has non-finite features" in capsys.readouterr().err

        ckpt = tmp_path / "c.npz"
        cfg = M.TCNetConfig(input_dim=3, hidden_dim=8, n_heads=2)
        params = M.init_params(cfg)
        params["dec.0.W"].data[0, 0] = np.nan
        M.save_checkpoint(ckpt, params, cfg)
        assert run(["eval", "--task", "single", "--data", data, "--checkpoint", ckpt]) == EXIT_BAD_INPUT
        assert run(["predict", "--task", "single", "--checkpoint", ckpt,
                    "--items", "a;b;c", "--assortment", "a;b"]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err.count("checkpoint parameters are not finite: dec.0.W") == 2

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


class TestPredictMultiStopRule:
    @pytest.fixture
    def ckpt(self, tmp_path):
        path = tmp_path / "c.npz"
        cfg = M.TCNetConfig(input_dim=3, hidden_dim=8, n_heads=2)
        M.save_checkpoint(path, M.init_params(cfg), cfg)
        return path

    def predict(self, ckpt, items, *extra):
        return run(["predict", "--task", "multi", "--checkpoint", ckpt,
                    "--items", items, "--assortment", items, *extra])

    def test_size_zero_is_a_size(self, ckpt, capsys):
        assert self.predict(ckpt, "a;b;c", "--size", 0) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "fixed size 0" in err and "stop item" not in err

    def test_missing_size_without_stop_item(self, ckpt, capsys):
        assert self.predict(ckpt, "a;b;c") == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "--size is required because the catalog has no stop item" in err

    def test_missing_size_stops_at_the_stop_item(self, ckpt, capsys):
        assert self.predict(ckpt, f"a;b;{D.STOP_ITEM_NAME}") == EXIT_OK
        assert D.STOP_ITEM_NAME not in capsys.readouterr().out
