"""CLI commands over the run-directory contract, exit codes included."""

import json
import shutil

import numpy as np
import pytest

from craftkit import cli
from craftkit.cli import build_parser, main
from craftkit.errors import DataError
from craftkit.npyio import load_npy, save_npy
from craftkit.toy import two_layer_backbone
from oracles import affine_total_indices


def run_dir_files(path):
    return sorted(p.relative_to(path).as_posix() for p in path.rglob("*") if p.is_file())


class TestFit:
    def test_toy_fit_writes_bank_with_expected_shape(self, tmp_path):
        out = tmp_path / "run"
        code = main(["fit", "--model", "toy:7", "--class", "1", "--rank", "4",
                     "--n-images", "40", "--out", str(out)])
        assert code == 0
        W = load_npy(out / "bank" / "W.npy")
        assert W.shape == (4, 4)
        assert (out / "coeffs.npy").exists()
        assert (out / "crops.npy").exists()
        assert (out / "provenance.json").exists()
        meta = json.loads((out / "bank" / "meta.json").read_text())
        assert meta["rank"] == 4
        assert set(meta) >= {"rank", "layer_tag", "objective", "column_norms",
                             "created_by", "converged", "kkt_residual", "outer_iters",
                             "nnls_steps"}
        assert meta["converged"] is True
        assert 0.0 <= meta["kkt_residual"] < np.inf
        assert meta["outer_iters"] >= 1
        # at least one pivoting step per solve, two solves per outer iteration
        assert type(meta["nnls_steps"]) is int and meta["nnls_steps"] >= 2 * meta["outer_iters"]

    def test_missing_rank_is_usage_error(self, tmp_path):
        out = tmp_path / "r"
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--model", "toy:7", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [
        (["fit", "--model", "toy:7", "--rank", "0"], 2),
        (["fit", "--model", "toy:7", "--rank", "2", "--crop-fraction", "2"], 2),
        (["fit", "--model", "toy:7", "--rank", "2", "--crops-per-image", "0"], 2),
        (["fit", "--activations", "missing.npy", "--rank", "2"], 3),
        (["sanity", "--model", "toy:7", "--rank", "0"], 2),
        # --activations replaces the image route, so its flags are rejected
        # before the matrix is read (the missing file would exit 3)
        (["fit", "--activations", "missing.npy", "--rank", "2", "--images", "I.npy"], 2),
        (["fit", "--activations", "missing.npy", "--rank", "2", "--class", "0"], 2),
        (["fit", "--activations", "missing.npy", "--rank", "2", "--crop-mode", "random"], 2),
        (["fit", "--activations", "missing.npy", "--rank", "2", "--crop-fraction", "0.9"], 2),
        (["fit", "--activations", "missing.npy", "--rank", "2", "--crops-per-image", "4"], 2),
        # 12 x 12 images for the 16 x 16 toy, and no images at all
        (["fit", "--model", "toy:7", "--rank", "2", "--images", "small.npy"], 2),
        (["fit", "--model", "toy:7", "--rank", "2", "--n-images", "0"], 2),
        (["fit", "--model", "toy:abc", "--rank", "2"], 2),
        # toy2 has two final features, so fit_nmf rejects rank 3, but only
        # after every crop has been cut and streamed to a temporary file
        (["fit", "--model", "toy2:7", "--rank", "3"], 2),
        (["fit", "--model", "toy:7", "--rank", "2", "--outer-iters", "0"], 2),
        # a 4-D stack, such as fit --model's crops.npy, is not a matrix
        (["fit", "--activations", "small.npy", "--rank", "2"], 2),
    ], ids=["fit_rank_0", "crop_fraction_2", "crops_per_image_0", "missing_activations",
            "sanity_rank_0", "activations_images", "activations_class",
            "activations_crop_mode", "activations_crop_fraction",
            "activations_crops_per_image", "images_of_another_size", "n_images_0",
            "bad_toy_seed", "rank_above_features", "outer_iters_0", "activations_4d"])
    def test_rejected_run_writes_nothing(self, tmp_path, monkeypatch, argv, code):
        monkeypatch.chdir(tmp_path)
        save_npy(np.zeros((3, 12, 12, 1)), tmp_path / "small.npy")
        out = tmp_path / "run"
        # a --n-images in argv comes later, so it overrides the default 20 here
        assert main(argv[:1] + ["--n-images", "20"] + argv[1:]
                    + ["--out", str(out)]) == code
        assert not out.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["small.npy"]

    def test_rejected_fit_leaves_an_existing_run_as_it_was(self, tmp_path):
        out = tmp_path / "run"
        base = ["--model", "toy2:7", "--n-images", "40", "--out", str(out)]
        assert main(["fit", "--rank", "2"] + base) == 0
        before = {rel: (out / rel).read_bytes() for rel in run_dir_files(out)}
        assert main(["fit", "--rank", "3", "--crop-mode", "random"] + base) == 2
        assert {rel: (out / rel).read_bytes() for rel in run_dir_files(out)} == before
        # no temporary file or directory beside the run or inside it
        assert [p.name for p in tmp_path.iterdir()] == ["run"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            {rel.split("/")[0] for rel in before})

    def test_crafted_activations_header_is_data_error(self, tmp_path, capsys):
        # a bool dimension, which escaped the reader as a TypeError (exit 1)
        header = b"{'descr': '<f8', 'fortran_order': False, 'shape': (True,), }"
        acts_path = tmp_path / "A.npy"
        acts_path.write_bytes(b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little")
                              + header + bytes(8))
        out = tmp_path / "run"
        assert main(["fit", "--activations", str(acts_path), "--rank", "1",
                     "--out", str(out)]) == 3
        assert "malformed shape" in capsys.readouterr().err
        assert not out.exists()

    def test_crops_as_activations_names_the_file_and_the_matrix_it_needs(self, tmp_path,
                                                                        capsys):
        # a run's own crops.npy is a 4-D stack of windows, not an (n, p) matrix
        run = tmp_path / "run"
        assert main(["fit", "--model", "toy2:7", "--rank", "2", "--n-images", "20",
                     "--out", str(run)]) == 0
        crops = run / "crops.npy"
        shape = load_npy(crops).shape
        capsys.readouterr()
        out = tmp_path / "not_a_matrix"
        assert main(["fit", "--activations", str(crops), "--rank", "2",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {crops} has shape {shape}, but --activations needs an "
                       "(n, p) matrix: one row of p features per crop\n")
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["-0.5", "nan", "inf"])
    def test_bad_noise_is_usage_error(self, tmp_path, noise):
        out = tmp_path / "run"
        code = main(["fit", "--model", "toy:7", "--rank", "2", "--n-images", "20",
                     f"--noise={noise}", "--out", str(out)])
        assert code == 2
        assert not (out / "bank").exists()

    def test_fit_from_activations_fixture(self, tmp_path):
        U_true = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        W_true = np.array([[1.0, 0.0], [0.0, 2.0]])
        acts = U_true @ W_true.T
        acts_path = tmp_path / "A.npy"
        save_npy(acts, acts_path)
        out = tmp_path / "run"
        code = main(["fit", "--activations", str(acts_path), "--rank", "2",
                     "--out", str(out)])
        assert code == 0
        # no copy of the input matrix: the bank and its coefficients only
        assert run_dir_files(out) == ["bank/W.npy", "bank/meta.json", "coeffs.npy"]
        meta = json.loads((out / "bank" / "meta.json").read_text())
        assert meta["objective"] < 1e-6
        assert meta["converged"] is True
        assert 0.0 <= meta["kkt_residual"] < np.inf
        assert meta["outer_iters"] >= 1

    def test_fit_converges_on_dense_planted_activations(self, tmp_path):
        # 300 x 512 with dense rank-10 factors, the CI fixture's dense twin
        g = np.random.default_rng(0)
        acts_path = tmp_path / "A.npy"
        save_npy(g.uniform(size=(300, 10)) @ g.uniform(size=(10, 512)), acts_path)
        out = tmp_path / "run"
        assert main(["fit", "--activations", str(acts_path), "--rank", "10",
                     "--out", str(out)]) == 0
        meta = json.loads((out / "bank" / "meta.json").read_text())
        assert meta["converged"] is True
        assert meta["outer_iters"] < 200

    def test_fit_writes_what_build_concept_bank_returns(self, tmp_path):
        from craftkit.nmf import NmfParams
        from craftkit.pipeline import (CropSpec, bilinear_resize, build_concept_bank,
                                       save_bank)
        from craftkit.toy import make_synthetic_dataset, two_layer_backbone
        out = tmp_path / "cli"
        assert main(["fit", "--model", "toy2:5", "--rank", "2", "--n-images", "80",
                     "--out", str(out)]) == 0
        model = two_layer_backbone()
        images = make_synthetic_dataset(model, 80, noise=0.02, seed=5).images
        bank, U, ctx = build_concept_bank(
            images, model, 1, 2,
            spec=CropSpec(resize_to=tuple(model.input_shape[:2]), seed=5),
            nmf_params=NmfParams(rank=2, outer_iters=200, objective_tol=1e-4),
            layer="final")
        ref = tmp_path / "library"
        save_bank(bank, ref / "bank")
        save_npy(U, ref / "coeffs.npy")
        save_npy(ctx["activations"], ref / "activations.npy")
        prov = ctx["provenance"]
        # crops.npy holds each window as cut, and resized they are the crop stack
        save_npy(np.stack([images[i, y:y + h, x:x + w]
                           for i, y, x, h, w in prov[["image", "y0", "x0", "h", "w"]]]),
                 ref / "crops.npy")
        windows = load_npy(out / "crops.npy")
        assert bilinear_resize(windows, 16, 16).tobytes() == ctx["crops"].tobytes()
        (ref / "provenance.json").write_text(json.dumps(
            [{name: int(row[name]) for name in prov.dtype.names} for row in prov],
            indent=2, sort_keys=True) + "\n")
        assert run_dir_files(out) == run_dir_files(ref)
        for rel in run_dir_files(ref):
            assert (out / rel).read_bytes() == (ref / rel).read_bytes(), rel

    def test_nonexistent_model_dir(self, tmp_path):
        code = main(["fit", "--model", str(tmp_path / "missing"), "--rank", "2",
                     "--out", str(tmp_path / "run")])
        assert code == 2

    def test_saved_model_directory_works_end_to_end(self, tmp_path):
        from craftkit.toy import save_backbone, two_layer_backbone
        model_dir = tmp_path / "model"
        save_backbone(two_layer_backbone(), model_dir)
        out = tmp_path / "run"
        assert main(["fit", "--model", str(model_dir), "--rank", "2",
                     "--seed", "3", "--n-images", "40", "--out", str(out)]) == 0
        assert main(["importance", "--model", str(model_dir), "--seed", "3",
                     "--n-samples", "64", "--out", str(out)]) == 0
        records = json.loads((out / "importance.json").read_text())
        assert len(records) == 2

    @pytest.mark.parametrize("name, value, message", [
        ("input_shape", [16, 16, 3], "channels"),
        ("input_shape", [4, 4, 1], "larger than input_shape"),
        ("input_shape", [16.0, 16, 1], "input_shape must be"),
        ("templates.npy", np.zeros((4, 25)), "templates must be 4-D"),
        ("head_weights.npy", np.zeros((1, 3)), "head_weights"),
        ("mixing.npy", np.ones((3, 2)), "mixing must be"),
        ("mixing.npy", -np.eye(4, 2), "mixing has negative"),
        ("head_bias", float("nan"), "head_bias has NaN or infinite entries"),
    ])
    def test_inconsistent_saved_model_is_usage_error(self, tmp_path, capsys,
                                                     name, value, message):
        from craftkit.toy import save_backbone, two_layer_backbone
        model_dir = tmp_path / "model"
        save_backbone(two_layer_backbone(), model_dir)
        if not name.endswith(".npy"):
            manifest = json.loads((model_dir / "manifest.json").read_text())
            manifest[name] = value
            (model_dir / "manifest.json").write_text(json.dumps(manifest))
        else:
            save_npy(value, model_dir / name)
        out = tmp_path / "run"
        code = main(["fit", "--model", str(model_dir), "--rank", "2",
                     "--n-images", "40", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert run_dir_files(out) == []  # rejected before any image was made

    @pytest.mark.parametrize("key", ["head_bias", "input_shape", "has_mixing"])
    def test_saved_model_missing_manifest_key_is_data_error(self, tmp_path, capsys, key):
        from craftkit.toy import save_backbone, two_layer_backbone
        model_dir = tmp_path / "model"
        save_backbone(two_layer_backbone(), model_dir)
        manifest = json.loads((model_dir / "manifest.json").read_text())
        del manifest[key]
        (model_dir / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "run"
        code = main(["fit", "--model", str(model_dir), "--rank", "2",
                     "--n-images", "40", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "manifest.json" in err and repr(key) in err
        assert run_dir_files(out) == []

    @pytest.mark.parametrize("key, value", [
        ("head_bias", [1]), ("head_bias", None), ("head_bias", "abc"),
        ("input_shape", None), ("input_shape", 16), ("has_mixing", "no"),
    ], ids=["head_bias_list", "head_bias_null", "head_bias_string",
            "input_shape_null", "input_shape_number", "has_mixing_string"])
    def test_saved_model_mistyped_manifest_value_is_data_error(self, tmp_path, capsys,
                                                               key, value):
        from craftkit.toy import save_backbone, two_layer_backbone
        model_dir = tmp_path / "model"
        save_backbone(two_layer_backbone(), model_dir)
        manifest = json.loads((model_dir / "manifest.json").read_text())
        manifest[key] = value
        (model_dir / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "run"
        code = main(["fit", "--model", str(model_dir), "--rank", "2",
                     "--n-images", "40", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "manifest.json" in err and f"the key {key!r} holds" in err
        assert run_dir_files(out) == []

    def test_saved_model_unparseable_manifest_is_data_error(self, tmp_path, capsys):
        from craftkit.toy import save_backbone, two_layer_backbone
        model_dir = tmp_path / "model"
        save_backbone(two_layer_backbone(), model_dir)
        (model_dir / "manifest.json").write_text('{"head_bias": 0.5,')
        out = tmp_path / "run"
        code = main(["fit", "--model", str(model_dir), "--rank", "2",
                     "--n-images", "40", "--out", str(out)])
        assert code == 3
        assert "manifest.json: not valid JSON" in capsys.readouterr().err
        assert run_dir_files(out) == []

    def test_external_images_match_generated_dataset(self, tmp_path):
        from craftkit.toy import make_synthetic_dataset, standard_backbone
        model = standard_backbone()
        data = make_synthetic_dataset(model, 40, noise=0.02, seed=6)
        images_path = tmp_path / "images.npy"
        save_npy(data.images, images_path)
        before = images_path.read_bytes()
        out_gen = tmp_path / "generated"
        out_ext = tmp_path / "external"
        assert main(["fit", "--model", "toy:6", "--rank", "2", "--seed", "6",
                     "--n-images", "40", "--noise", "0.02",
                     "--out", str(out_gen)]) == 0
        assert main(["fit", "--model", "toy:6", "--rank", "2", "--seed", "6",
                     "--images", str(images_path), "--out", str(out_ext)]) == 0
        assert ((out_gen / "bank" / "W.npy").read_bytes()
                == (out_ext / "bank" / "W.npy").read_bytes())
        assert images_path.read_bytes() == before  # inputs are never mutated


class TestImportance:
    @pytest.fixture()
    def fitted_run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["fit", "--model", "toy:3", "--rank", "2", "--n-images", "60",
                     "--out", str(out)]) == 0
        return out

    def test_importance_json_schema(self, fitted_run):
        code = main(["importance", "--model", "toy:3", "--n-samples", "128",
                     "--out", str(fitted_run)])
        assert code == 0
        records = json.loads((fitted_run / "importance.json").read_text())
        assert len(records) == 2
        for rec in records:
            assert set(rec) == {"concept_id", "total_sobol", "tcav",
                                "n_samples", "degenerate"}
            assert rec["n_samples"] == 128

    def test_total_indices_match_the_affine_oracle(self, tmp_path):
        # toy2's head is affine, so the indices approach c_i^2 / sum_j c_j^2;
        # the largest error measured on this run was 0.0018
        out = tmp_path / "run"
        base = ["--model", "toy2:7", "--seed", "7", "--out", str(out)]
        assert main(["fit", "--class", "1", "--rank", "2"] + base) == 0
        assert main(["importance", "--n-samples", "1024"] + base) == 0
        records = json.loads((out / "importance.json").read_text())
        expected = affine_total_indices(load_npy(out / "coeffs.npy"),
                                        load_npy(out / "bank" / "W.npy"),
                                        two_layer_backbone().head_weights)
        np.testing.assert_allclose([rec["total_sobol"] for rec in records], expected,
                                   rtol=0, atol=0.0025)

    def test_zero_samples_is_usage_error(self, fitted_run):
        code = main(["importance", "--model", "toy:3", "--n-samples", "0",
                     "--out", str(fitted_run)])
        assert code == 2

    def test_samples_beyond_sobol_points_are_usage_error(self, fitted_run, capsys):
        # checked before any mask is built, so nothing is allocated
        code = main(["importance", "--model", "toy:3", "--n-samples", str(2**32),
                     "--out", str(fitted_run)])
        assert code == 2
        assert "at most 4294967295" in capsys.readouterr().err
        assert not (fitted_run / "importance.json").exists()

    def test_external_gradients_feed_tcav(self, fitted_run, tmp_path):
        grads = np.tile([1.0, -1.0, 0.5, 0.0], (5, 1))
        grads_path = tmp_path / "g.npy"
        save_npy(grads, grads_path)
        code = main(["importance", "--model", "toy:3", "--n-samples", "64",
                     "--gradients", str(grads_path), "--out", str(fitted_run)])
        assert code == 0
        records = json.loads((fitted_run / "importance.json").read_text())
        assert all(rec["tcav"] is not None for rec in records)

    def test_gradients_of_another_width_are_usage_error(self, fitted_run, tmp_path,
                                                        capsys):
        grads_path = tmp_path / "g.npy"
        save_npy(np.ones((5, 3)), grads_path)  # the bank has 4 features
        code = main(["importance", "--model", "toy:3", "--n-samples", "64",
                     "--gradients", str(grads_path), "--out", str(fitted_run)])
        assert code == 2
        assert "grads_A must be n x p" in capsys.readouterr().err
        assert not (fitted_run / "importance.json").exists()

    def test_tcav_equals_per_row_tcav_of_the_head_gradients(self, fitted_run):
        # an affine head's gradient is its weight row for every crop
        from craftkit.pipeline import load_bank
        from craftkit.sobol import tcav_importance
        from craftkit.toy import standard_backbone
        assert main(["importance", "--model", "toy:3", "--n-samples", "64",
                     "--out", str(fitted_run)]) == 0
        records = json.loads((fitted_run / "importance.json").read_text())
        n = len(load_npy(fitted_run / "coeffs.npy"))
        per_row = tcav_importance(np.tile(standard_backbone().head_weights, (n, 1)),
                                  load_bank(fitted_run / "bank").W)
        assert [rec["tcav"] for rec in records] == per_row.tolist()

    def test_zero_coefficients_are_degenerate(self, fitted_run):
        coeffs = load_npy(fitted_run / "coeffs.npy")
        save_npy(np.zeros_like(coeffs), fitted_run / "coeffs.npy")
        code = main(["importance", "--model", "toy:3", "--n-samples", "64",
                     "--out", str(fitted_run)])
        assert code == 0
        records = json.loads((fitted_run / "importance.json").read_text())
        assert all(rec["degenerate"] for rec in records)
        assert all(rec["total_sobol"] == 0.0 for rec in records)

    def test_rank_beyond_sobol_table_is_usage_error(self, tmp_path):
        from craftkit.pipeline import ConceptBank, save_bank
        out = tmp_path / "run"
        W = np.abs(np.random.default_rng(0).normal(size=(4, 33)))
        save_bank(ConceptBank(W=W, layer_tag="final", fit_objective=0.0,
                              column_norms=np.ones(33)), out / "bank")
        save_npy(np.ones((5, 33)), out / "coeffs.npy")
        code = main(["importance", "--model", "toy:3", "--n-samples", "8",
                     "--out", str(out)])
        assert code == 2

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta.update(rank=3), "gives rank 3 but W.npy has shape"),
        (lambda meta: meta.update(rank=None), "gives rank None but W.npy has shape"),
        (lambda meta: meta.pop("objective"), "lacks the key 'objective'"),
        (lambda meta: meta.update(objective=[1]), "the key 'objective' holds list"),
        (lambda meta: meta.update(objective="abc"), "the key 'objective' holds str"),
        (lambda meta: meta.update(layer_tag=1.5), "the key 'layer_tag' holds float"),
        (lambda meta: meta.update(column_norms=[1.0]), "the key 'column_norms' holds"),
        (lambda meta: meta.update(column_norms=[1.0, "x"]),
         "the key 'column_norms' holds"),
        (lambda meta: meta.update(parent=5), "the key 'parent' holds int"),
        (lambda meta: meta.update(nnls_steps="12"), "the key 'nnls_steps' holds str"),
        (lambda meta: meta.update(nnls_steps=12.5), "the key 'nnls_steps' holds float"),
        (lambda meta: meta.update(nnls_steps=True), "the key 'nnls_steps' holds bool"),
    ], ids=["rank_mismatch", "null_rank", "missing_objective", "list_objective",
            "string_objective", "float_layer_tag", "short_column_norms",
            "string_column_norm", "number_parent", "string_nnls_steps",
            "float_nnls_steps", "bool_nnls_steps"])
    def test_corrupt_bank_sidecar_is_data_error(self, fitted_run, capsys, edit, message):
        path = fitted_run / "bank" / "meta.json"
        meta = json.loads(path.read_text())
        edit(meta)
        path.write_text(json.dumps(meta))
        code = main(["importance", "--model", "toy:3", "--n-samples", "64",
                     "--out", str(fitted_run)])
        assert code == 3
        err = capsys.readouterr().err
        assert "meta.json" in err and message in err
        assert not (fitted_run / "importance.json").exists()

    @pytest.mark.parametrize("text, message", [
        ("{\"rank\": 2,", "not valid JSON"),
        ("[2]", "top level is list, expected dict"),
    ], ids=["truncated", "not_an_object"])
    def test_unparseable_bank_sidecar_is_data_error(self, fitted_run, capsys,
                                                    text, message):
        (fitted_run / "bank" / "meta.json").write_text(text)
        code = main(["importance", "--model", "toy:3", "--n-samples", "64",
                     "--out", str(fitted_run)])
        assert code == 3
        err = capsys.readouterr().err
        assert "meta.json" in err and message in err
        assert not (fitted_run / "importance.json").exists()

    def test_corrupt_activations_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.npy"
        bad.write_bytes(b"\x93NUMPY\x01\x00" + b"\x00" * 64)
        code = main(["fit", "--activations", str(bad), "--rank", "2",
                     "--out", str(tmp_path / "run")])
        assert code == 3


def _fit_external(run):
    # a bank fitted from activations is tagged "external", a layer toy2 lacks
    assert main(["fit", "--activations", str(run / "activations.npy"),
                 "--rank", "2", "--out", str(run)]) == 0


def _three_images(run):
    # the first three crops, as the model saw them
    from craftkit.pipeline import bilinear_resize
    save_npy(bilinear_resize(load_npy(run / "crops.npy")[:3], 16, 16), run / "three.npy")


def _equal_columns(run):
    W = load_npy(run / "bank" / "W.npy")
    W[:, 1] = W[:, 0]
    save_npy(W, run / "bank" / "W.npy")


class TestExplainFidelityRecurse:
    @pytest.fixture()
    def full_run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["fit", "--model", "toy2:5", "--rank", "2", "--n-images",
                     "80", "--out", str(out)]) == 0
        assert main(["importance", "--model", "toy2:5", "--n-samples", "128",
                     "--out", str(out)]) == 0
        return out

    def test_explain_writes_heatmaps(self, full_run):
        code = main(["explain", "--model", "toy2:5", "--n-images", "80",
                     "--image-index", "3", "--out", str(full_run)])
        assert code == 0
        files = sorted(p.name for p in (full_run / "heatmaps").iterdir())
        assert files == ["3_0.npy", "3_1.npy"]
        hm = load_npy(full_run / "heatmaps" / "3_0.npy")
        assert hm.shape == (16, 16)

    def test_explain_generates_only_the_images_it_reads(self, full_run, monkeypatch):
        import craftkit.cli as cli_module
        from craftkit.pipeline import concept_attribution_maps, load_bank
        from craftkit.toy import make_synthetic_dataset, two_layer_backbone
        sizes = []
        monkeypatch.setattr(cli_module, "make_synthetic_dataset",
                            lambda model, n, **kw: sizes.append(n)
                            or make_synthetic_dataset(model, n, **kw))
        assert main(["explain", "--model", "toy2:5", "--n-images", "80",
                     "--image-index", "3", "--out", str(full_run)]) == 0
        assert main(["explain", "--model", "toy2:5", "--n-images", "80",
                     "--image-index", "6", "2", "--out", str(full_run)]) == 0
        assert sizes == [4, 7]
        model = two_layer_backbone()
        images = make_synthetic_dataset(model, 80, noise=0.02, seed=5).images
        bank = load_bank(full_run / "bank")
        for index in (3, 6, 2):
            for hm in concept_attribution_maps(images[index], bank, model, range(bank.r),
                                               seed=5):
                np.testing.assert_array_equal(
                    load_npy(full_run / "heatmaps" / f"{index}_{hm.concept_index}.npy"),
                    hm.values)

    @pytest.mark.parametrize("method", ["gradient", "smoothgrad", "occlusion"])
    def test_several_indices_write_the_maps_of_single_index_runs(self, full_run,
                                                                 tmp_path, method):
        # one process, one explain over three images: every map holds the
        # bytes of the run that explains its image alone
        runs = {}
        for name, indices in (("all", ["0", "3", "5"]), ("0", ["0"]), ("3", ["3"]),
                              ("5", ["5"])):
            runs[name] = tmp_path / name
            shutil.copytree(full_run, runs[name])
            assert main(["explain", "--model", "toy2:5", "--n-images", "80",
                         "--method", method, "--image-index", *indices,
                         "--out", str(runs[name])]) == 0
        written = run_dir_files(runs["all"] / "heatmaps")
        assert written == [f"{i}_{c}.npy" for i in (0, 3, 5) for c in (0, 1)]
        for name in written:
            single = runs[name.split("_")[0]] / "heatmaps" / name
            assert (runs["all"] / "heatmaps" / name).read_bytes() == single.read_bytes()

    @pytest.mark.parametrize("method", ["gradient", "smoothgrad", "occlusion"])
    def test_a_model_of_another_width_is_a_usage_error_naming_both(self, full_run, capsys,
                                                                   method):
        # toy:3's final layer is 4 features wide, the toy2 bank's 2
        assert main(["explain", "--model", "toy:3", "--n-images", "80", "--method", method,
                     "--image-index", "0", "3", "--out", str(full_run)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: the bank fit at layer 'final' is 2 features wide, but the "
                       "model's features there are 4 wide\n")
        assert not (full_run / "heatmaps").exists()

    @pytest.mark.parametrize("flags, prepare, code", [
        (["--image-index", "80"], None, 2),
        (["--image-index", "-1"], None, 2),
        (["--image-index", "0", "3", "0"], None, 2),
        (["--image-index", "3", "80"], None, 2),
        (["--concept", "5"], None, 2),
        ([], _fit_external, 2),
        (["--images", "three.npy", "--image-index", "3"], _three_images, 2),
        # a singular bank fails the NNLS solve: the numerical error exit
        ([], _equal_columns, 4),
    ], ids=["80", "-1", "repeated", "one_past_n_images", "concept_5", "external_layer",
            "past_the_given_images", "equal_bank_columns"])
    def test_rejected_explain_writes_no_heatmaps(self, full_run, monkeypatch, flags,
                                                 prepare, code):
        monkeypatch.chdir(full_run)
        if prepare is not None:
            prepare(full_run)
        assert main(["explain", "--model", "toy2:5", "--n-images", "80"] + flags
                    + ["--out", str(full_run)]) == code
        assert not (full_run / "heatmaps").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("command", ["importance", "fidelity"])
    def test_non_finite_baseline_is_data_error(self, full_run, command, mu):
        # rejected before any head call, so no invalid-value warning escapes
        # and nothing is written
        before = sorted(full_run.rglob("*"))
        records = (full_run / "importance.json").read_bytes()
        assert main([command, "--model", "toy2:5", f"--mu={mu}",
                     "--out", str(full_run)]) == 3
        assert sorted(full_run.rglob("*")) == before
        assert (full_run / "importance.json").read_bytes() == records

    def test_fidelity_two_rankings_two_files(self, full_run):
        assert main(["fidelity", "--model", "toy2:5", "--ranking", "sobol",
                     "--out", str(full_run)]) == 0
        assert main(["fidelity", "--model", "toy2:5", "--ranking", "random",
                     "--seed", "1", "--out", str(full_run)]) == 0
        sobol_csv = (full_run / "curves.csv").read_text()
        random_csv = (full_run / "curves_random.csv").read_text()
        assert sobol_csv.splitlines()[0] == "fraction,mean_output"
        assert len(sobol_csv.splitlines()) == 4  # header + r+1 points
        assert random_csv.splitlines()[0] == "fraction,mean_output"

    def test_fidelity_insertion_gets_its_own_file(self, full_run):
        assert main(["fidelity", "--model", "toy2:5", "--ranking", "sobol",
                     "--direction", "insertion", "--out", str(full_run)]) == 0
        text = (full_run / "curves_insertion.csv").read_text()
        rows = [line.split(",") for line in text.splitlines()[1:]]
        # insertion starts from the empty reconstruction and rises
        assert float(rows[0][1]) <= float(rows[-1][1])

    def test_fidelity_nan_baseline_is_data_error(self, full_run):
        # importance --mu nan already exits 3; the curve must not be written
        code = main(["fidelity", "--model", "toy2:5", "--mu", "nan",
                     "--out", str(full_run)])
        assert code == 3
        assert not (full_run / "curves.csv").exists()

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), None, True])
    def test_fidelity_non_finite_importance_is_data_error(self, full_run, capsys, score):
        # json.dumps writes NaN and Infinity, and json.loads reads them back;
        # true is an int to isinstance and would rank as a score of 1.0
        path = full_run / "importance.json"
        records = json.loads(path.read_text())
        records[0]["total_sobol"] = score
        path.write_text(json.dumps(records))
        code = main(["fidelity", "--model", "toy2:5", "--out", str(full_run)])
        assert code == 3
        assert "lacks finite total_sobol scores" in capsys.readouterr().err
        assert not (full_run / "curves.csv").exists()

    def test_fidelity_unparseable_importance_is_data_error(self, full_run, capsys):
        (full_run / "importance.json").write_text("[{\"concept_id\": 0")
        code = main(["fidelity", "--model", "toy2:5", "--out", str(full_run)])
        assert code == 3
        assert "importance.json: not valid JSON" in capsys.readouterr().err
        assert not (full_run / "curves.csv").exists()

    @pytest.mark.parametrize("edit", [
        lambda records: records[0].pop("concept_id"),
        lambda records: records[1].update(concept_id=0),
        lambda records: records[1].update(concept_id=2),
        lambda records: records[1].update(concept_id=1.0),
        lambda records: records[1].update(concept_id=True),
        lambda records: records.pop(),
        lambda records: records.append(dict(records[0], concept_id=2)),
    ], ids=["missing", "duplicate", "out_of_range", "float", "bool", "too_few",
            "too_many"])
    def test_fidelity_bad_concept_ids_are_data_error(self, full_run, capsys, edit):
        path = full_run / "importance.json"
        records = json.loads(path.read_text())
        edit(records)
        path.write_text(json.dumps(records))
        code = main(["fidelity", "--model", "toy2:5", "--out", str(full_run)])
        assert code == 3
        assert "concept_id 0..1" in capsys.readouterr().err
        assert not (full_run / "curves.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["sanity", "--rank", "0"],
        ["recurse", "--concept", "0", "--rank-sub", "0"],
        ["recurse", "--concept", "5", "--rank-sub", "2"],
    ], ids=["sanity", "recurse", "recurse_concept_5"])
    def test_out_of_range_argument_is_usage_error(self, full_run, argv):
        before = {p: p.read_bytes() for p in full_run.rglob("*") if p.is_file()}
        assert main(argv + ["--model", "toy2:5", "--n-images", "80",
                            "--out", str(full_run)]) == 2
        assert {p: p.read_bytes() for p in full_run.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("command, missing, named", [
        (command, "bank", "bank/meta.json")
        for command in ("importance", "explain", "fidelity", "recurse")] + [
        (command, "coeffs.npy", "coeffs.npy")
        for command in ("importance", "fidelity", "recurse")])
    def test_missing_bank_view_is_data_error(self, full_run, capsys, command, missing,
                                             named):
        path = full_run / missing
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
        before = {p: p.is_file() and p.read_bytes() for p in full_run.rglob("*")}
        capsys.readouterr()
        flags = ["--concept", "0"] if command == "recurse" else []
        assert main([command, "--model", "toy2:5", "--n-images", "80", "--out",
                     str(full_run)] + flags) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert f"{full_run / named} is missing: the fit command writes it" in err
        assert {p: p.is_file() and p.read_bytes() for p in full_run.rglob("*")} == before

    @pytest.mark.parametrize("missing, named", [
        ("bank_concept0", "bank_concept0/meta.json"),
        ("coeffs_concept0.npy", "coeffs_concept0.npy")])
    def test_missing_sub_bank_view_names_recurse(self, full_run, missing, named):
        assert main(["recurse", "--model", "toy2:5", "--concept", "0",
                     "--out", str(full_run)]) == 0
        path = full_run / missing
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
        with pytest.raises(DataError, match="the recurse --concept 0 command writes it") as err:
            cli._bank_view(full_run, 0)
        assert str(err.value).startswith(f"{full_run / named} is missing")

    @pytest.mark.parametrize("command", ["importance", "fidelity"])
    def test_bank_of_another_width_than_the_head_is_usage_error(self, tmp_path, capsys,
                                                                monkeypatch, command):
        # a layer1 bank under toy2's two-feature head; unchecked, both failed
        # inside the head with only "activations must be (batch, 2)"
        out = tmp_path / "run"
        base = ["--model", "toy2:7", "--seed", "7", "--out", str(out)]
        assert main(["fit", "--rank", "2", "--layer", "layer1"] + base) == 0
        width = load_npy(out / "bank" / "W.npy").shape[0]
        assert width != 2
        for name in ("concept_importance", "fidelity_curves"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("masks built"))
        before = sorted(out.rglob("*"))
        capsys.readouterr()
        flags = ["--ranking", "random"] if command == "fidelity" else []
        assert main([command] + flags + base) == 2
        err = capsys.readouterr().err
        assert "'layer1'" in err and f"{width} features wide" in err and "reads 2" in err
        assert sorted(out.rglob("*")) == before

    def test_fidelity_without_importance_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["fit", "--model", "toy:3", "--rank", "2", "--n-images",
                     "40", "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["fidelity", "--model", "toy:3", "--ranking", "sobol",
                     "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (f"data error: {out / 'importance.json'} is missing: "
                                           f"the importance command writes it\n")

    def test_recurse_writes_sub_bank(self, full_run):
        records = json.loads((full_run / "importance.json").read_text())
        top = max(records, key=lambda r: r["total_sobol"])["concept_id"]
        code = main(["recurse", "--model", "toy2:5", "--concept", str(top),
                     "--rank-sub", "2", "--out", str(full_run)])
        assert code == 0
        sub = full_run / f"bank_concept{top}"
        assert (sub / "W.npy").exists()
        meta = json.loads((sub / "meta.json").read_text())
        assert meta["parent"] == ["bank", top]
        assert meta["converged"] is True
        assert 0.0 <= meta["kkt_residual"] < np.inf
        assert meta["outer_iters"] >= 1

    def test_recurse_unconverged_exits_4_and_flags_sub_bank(self, full_run, capsys):
        code = main(["recurse", "--model", "toy2:5", "--concept", "0",
                     "--rank-sub", "2", "--outer-iters", "1", "--out", str(full_run)])
        assert code == 4
        assert "recurse: not converged" in capsys.readouterr().err
        meta = json.loads((full_run / "bank_concept0" / "meta.json").read_text())
        assert meta["converged"] is False
        assert (full_run / "coeffs_concept0.npy").exists()

    @pytest.mark.parametrize("reshape", [
        lambda U: U[:, :1],
        lambda U: U[:, 0],
        lambda U: np.hstack([U, U]),
    ], ids=["one_column", "one_dimensional", "four_columns"])
    def test_recurse_coefficients_of_another_width_are_usage_error(self, full_run,
                                                                   capsys, reshape):
        # unchecked, a narrower U fails on the index or refines the wrong columns
        save_npy(reshape(load_npy(full_run / "coeffs.npy")), full_run / "coeffs.npy")
        code = main(["recurse", "--model", "toy2:5", "--concept", "0",
                     "--rank-sub", "2", "--out", str(full_run)])
        assert code == 2
        assert "U must be n x 2" in capsys.readouterr().err
        assert not list(full_run.glob("bank_concept*"))

    @pytest.mark.parametrize("resize", [
        lambda U: U[:len(U) // 2],
        lambda U: np.vstack([U, U[:len(U) // 4]]),
    ], ids=["half_the_rows", "extra_rows"])
    def test_recurse_coefficients_of_another_length_are_usage_error(self, full_run,
                                                                    capsys, resize):
        # unchecked, fewer rows refine the wrong crops and more rows index
        # past the last crop (an uncaught IndexError)
        U = load_npy(full_run / "coeffs.npy")
        save_npy(resize(U), full_run / "coeffs.npy")
        code = main(["recurse", "--model", "toy2:5", "--concept", "0",
                     "--rank-sub", "2", "--out", str(full_run)])
        assert code == 2
        assert f"there are {len(U)} crops" in capsys.readouterr().err
        assert not list(full_run.glob("bank_concept*"))

    def test_recurse_all_equal_coefficients_exit_3(self, tmp_path):
        out = tmp_path / "run"
        assert main(["fit", "--model", "toy:3", "--rank", "2", "--n-images",
                     "40", "--out", str(out)]) == 0
        save_npy(np.ones_like(load_npy(out / "coeffs.npy")), out / "coeffs.npy")
        code = main(["recurse", "--model", "toy:3", "--concept", "0",
                     "--rank-sub", "2", "--out", str(out)])
        assert code == 3

    def test_recurse_on_an_activations_run_is_data_error(self, tmp_path, capsys):
        # fit --activations writes no crops.npy for recurse to re-encode
        g = np.random.default_rng(0)
        save_npy(g.uniform(size=(40, 3)) @ g.uniform(size=(3, 8)), tmp_path / "A.npy")
        out = tmp_path / "run"
        assert main(["fit", "--activations", str(tmp_path / "A.npy"), "--rank", "2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["recurse", "--model", "toy2:5", "--concept", "0",
                     "--rank-sub", "2", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(out / "crops.npy") in err
        assert "fit --activations writes no crops" in err
        assert run_dir_files(out) == ["bank/W.npy", "bank/meta.json", "coeffs.npy"]

    def test_recurse_reads_only_its_crops(self, tmp_path):
        # 6400 crops: recurse reads the windows of its top decile, so its
        # peak stays below crops.npy, which the whole stack used to exceed
        import tracemalloc
        out = tmp_path / "run"
        base = ["--model", "toy2:1", "--n-images", "800", "--out", str(out)]
        assert main(["fit", "--rank", "2"] + base) == 0
        tracemalloc.start()
        try:
            assert main(["recurse", "--concept", "0", "--rank-sub", "2"] + base) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(json.loads((out / "selected_concept0.json").read_text())) == 640
        assert peak < (out / "crops.npy").stat().st_size, peak


class TestSanity:
    def test_report_has_angles_in_range(self, tmp_path):
        out = tmp_path / "run"
        code = main(["sanity", "--model", "toy:7", "--rank", "2", "--n-images",
                     "40", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "sanity.json").read_text())
        angles = report["principal_angles_rad"]
        assert len(angles) == 2
        assert all(0.0 <= a <= np.pi / 2 + 1e-12 for a in angles)
        assert report["max_angle_rad"] > 0.0


    @pytest.mark.parametrize("outer_iters, code, converged", [
        ("200", 0, True), ("1", 4, False)])
    def test_report_records_convergence(self, tmp_path, capsys, outer_iters, code,
                                        converged):
        out = tmp_path / "run"
        assert main(["sanity", "--model", "toy:7", "--rank", "2", "--n-images", "40",
                     "--outer-iters", outer_iters, "--out", str(out)]) == code
        assert json.loads((out / "sanity.json").read_text())["converged"] is converged
        assert ("sanity: not converged" in capsys.readouterr().err) is not converged


class TestDeterminism:
    def test_identical_seeds_give_byte_identical_runs(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["fit", "--model", "toy:9", "--rank", "2", "--seed", "4",
                         "--n-images", "50", "--out", str(out)]) == 0
            assert main(["importance", "--model", "toy:9", "--seed", "4",
                         "--n-samples", "64", "--out", str(out)]) == 0
            assert main(["fidelity", "--model", "toy:9", "--seed", "4",
                         "--out", str(out)]) == 0
            outputs.append(out)
        a, b = outputs
        assert run_dir_files(a) == run_dir_files(b)
        for rel in run_dir_files(a):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_rerun_into_same_directory_is_idempotent(self, tmp_path):
        out = tmp_path / "run"
        args = ["fit", "--model", "toy:9", "--rank", "2", "--seed", "4",
                "--n-images", "40", "--out", str(out)]
        assert main(args) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(args) == 0
        after = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert before.keys() == after.keys()
        for path, blob in before.items():
            assert after[path] == blob, path

    def test_threads_environment_variable_is_not_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CRAFT_KIT_THREADS", "abc")
        out = tmp_path / "run"
        assert main(["fit", "--model", "toy:3", "--rank", "2", "--n-images",
                     "40", "--out", str(out)]) == 0

    @pytest.mark.parametrize("method", ["gradient", "smoothgrad", "occlusion"])
    def test_explain_output_independent_of_thread_count(self, tmp_path, method):
        outs = []
        for tag, threads in (("a", "1"), ("b", "3")):
            out = tmp_path / tag
            assert main(["fit", "--model", "toy:3", "--rank", "2", "--seed", "2",
                         "--n-images", "40", "--out", str(out)]) == 0
            assert main(["explain", "--model", "toy:3", "--seed", "2",
                         "--n-images", "40", "--threads", threads,
                         "--method", method, "--out", str(out)]) == 0
            outs.append(out)
        for name in ("0_0.npy", "0_1.npy"):
            a = (outs[0] / "heatmaps" / name).read_bytes()
            b = (outs[1] / "heatmaps" / name).read_bytes()
            assert a == b


class TestFlagContract:
    """Each command parses only the flags it reads, plus the run flags."""

    @pytest.mark.parametrize("argv", [
        ["importance", "--rank", "2"],
        ["fidelity", "--n-samples", "8"],
        ["explain", "--rank", "2"],
        ["recurse", "--concept", "0", "--mu", "0.3"],
        ["sanity", "--ranking", "sobol"],
        ["fit", "--rank", "2", "--direction", "insertion"],
        # only explain takes --threads, which has no effect there either
        *(pytest.param(argv + ["--threads", "2"], id=f"{argv[0]}_threads")
          for argv in (["fit", "--rank", "2"], ["importance"], ["fidelity"],
                       ["recurse", "--concept", "0"], ["sanity"])),
    ], ids=lambda argv: argv[0])
    def test_flag_the_command_ignores_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        assert main(["fit", "--model", "toy:3", "--rank", "2", "--n-images", "40",
                     "--out", str(out)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--model", "toy:3", "--n-images", "40", "--out", str(out)])
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("command", ["fit", "importance", "explain", "fidelity",
                                         "recurse", "sanity"])
    def test_chain_base_argv_parses_on_every_command(self, command):
        # the benchmark chain's shared argv, plus the --seed that CI passes
        # to every command; fit and recurse add the flag each of them
        # requires, and explain the --threads the chain passes to it alone
        base = ["--model", "toy2:7", "--n-images", "60", "--out", "run",
                "--seed", "7"]
        own = {"fit": ["--rank", "2"], "recurse": ["--concept", "0"],
               "explain": ["--threads", "2"]}.get(command, [])
        args = build_parser().parse_args([command] + own + base)
        assert (args.command, args.model, args.n_images, args.out,
                args.seed) == (command, "toy2:7", 60, "run", 7)
        assert getattr(args, "threads", None) == (2 if command == "explain" else None)

    @pytest.mark.parametrize("argv", [
        ["importance"], ["explain"], ["fidelity"], ["recurse", "--concept", "0"],
        ["sanity"],
    ], ids=lambda argv: argv[0])
    def test_missing_model_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "7", "--out", str(out)])
        assert exc.value.code == 2
        assert "--model" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", [["--model", "toy2:7", "--activations", "A.npy"],
                                        []], ids=["both", "neither"])
    def test_fit_takes_exactly_one_source(self, tmp_path, capsys, source):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--rank", "2"] + source + ["--out", str(out)])
        assert exc.value.code == 2
        assert "--activations" in capsys.readouterr().err
        assert not out.exists()


def chain(model, out):
    """The benchmark chain's commands on a smaller dataset."""
    base = ["--model", model, "--n-images", "40", "--out", str(out)]
    return [["fit", "--rank", "2"] + base,
            ["importance", "--n-samples", "64"] + base,
            ["fidelity", "--ranking", "sobol"] + base,
            ["fidelity", "--ranking", "random"] + base,
            ["explain"] + base,
            ["recurse", "--concept", "0", "--rank-sub", "2"] + base]


class TestInProcessReuse:
    """main keeps one parser for the process."""

    def test_chains_in_one_process_match_fresh_commands(self, tmp_path, monkeypatch):
        specs = ["toy2:1", "toy:3", "toy2:1"]
        for i, spec in enumerate(specs):
            for argv in chain(spec, tmp_path / f"shared{i}"):
                assert main(argv) == 0
        # the reference: a new parser on every command
        monkeypatch.setattr(cli, "_main_parser", build_parser)
        for i, spec in enumerate(specs):
            for argv in chain(spec, tmp_path / f"fresh{i}"):
                assert main(argv) == 0
        for i in range(len(specs)):
            shared, fresh = tmp_path / f"shared{i}", tmp_path / f"fresh{i}"
            assert run_dir_files(shared) == run_dir_files(fresh)
            for rel in run_dir_files(shared):
                assert (shared / rel).read_bytes() == (fresh / rel).read_bytes(), (i, rel)

    def test_flags_do_not_carry_over_between_calls(self, tmp_path):
        from craftkit.pipeline import concept_attribution_maps, load_bank
        from craftkit.toy import make_synthetic_dataset, two_layer_backbone
        out = tmp_path / "run"
        base = ["--model", "toy2:5", "--n-images", "40", "--out", str(out)]
        assert main(["fit", "--rank", "2"] + base) == 0
        assert main(["importance", "--n-samples", "64"] + base) == 0
        assert main(["explain", "--method", "occlusion"] + base) == 0
        occlusion = [load_npy(out / "heatmaps" / f"0_{c}.npy") for c in range(2)]
        assert main(["explain"] + base) == 0
        model = two_layer_backbone()
        image = make_synthetic_dataset(model, 1, noise=0.02, seed=5).images[0]
        bank = load_bank(out / "bank")
        for hm in concept_attribution_maps(image, bank, model, range(bank.r), seed=5):
            written = load_npy(out / "heatmaps" / f"0_{hm.concept_index}.npy")
            np.testing.assert_array_equal(written, hm.values)
            assert not np.array_equal(written, occlusion[hm.concept_index])

        assert main(["fidelity", "--direction", "insertion"] + base) == 0
        assert main(["fidelity"] + base) == 0
        assert sorted(p.name for p in out.glob("curves*.csv")) == [
            "curves.csv", "curves_insertion.csv"]
        deletion = (out / "curves.csv").read_bytes()
        args = build_parser().parse_args(["fidelity"] + base)
        assert args.direction == "deletion"
        assert args.func(args) == 0
        assert (out / "curves.csv").read_bytes() == deletion

    def test_one_parser_for_main_and_a_new_one_per_build(self):
        assert cli._main_parser() is cli._main_parser()
        assert build_parser() is not build_parser()
        assert build_parser() is not cli._main_parser()

    def test_toy_models_are_built_on_every_call(self):
        model, seed = cli._load_model("toy2:1")
        again, other_seed = cli._load_model("toy2:9")
        assert model is not again and (seed, other_seed) == (1, 9)
        np.testing.assert_array_equal(model.head_weights, again.head_weights)
        assert model.templates.flags.writeable

    def test_saved_model_directory_is_read_on_every_call(self, tmp_path):
        from craftkit.toy import save_backbone, standard_backbone, two_layer_backbone
        path = tmp_path / "model"
        save_backbone(two_layer_backbone(), path)
        first, _ = cli._load_model(str(path))
        assert first.mixing is not None
        save_backbone(standard_backbone(), path)
        second, _ = cli._load_model(str(path))
        assert second.mixing is None
        np.testing.assert_array_equal(second.head_weights, standard_backbone().head_weights)
