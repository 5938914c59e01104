import concurrent.futures
import dataclasses
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape as xml_escape

import numpy as np
import pytest

from gtslatent import cli, data, graphs, harness, linalg, lstm, spectral
from gtslatent.rng import Rng


def _tiny_config(**overrides):
    cfg = {
        "dataset": {"type": "moving_crop",
                    "source": {"type": "textured", "count": 10,
                               "height": 12, "width": 12},
                    "crop": 6, "frames": 6, "sequences": 10},
        "methods": ["gft-grid", "gft-geo", "ae", "raw"],
        "latent_dims": [4, 9, 18, 36],
        "train_fraction": 0.7,
        "warmup": 2,
        "seed": 11,
        "ae_schedule": {"epochs": 15, "batch_size": 10, "lr0": 0.01,
                        "wd0": 1e-5, "wd_milestones": [[4, 10]]},
        "lstm_schedule": {"epochs": 3, "batch_size": 3, "lr0": 0.001},
    }
    cfg.update(overrides)
    return cfg


def _crop_block(count=10, height=12, width=12, **fields):
    """The tiny moving-crop dataset block with some fields replaced."""
    source = {"type": "textured", "count": count, "height": height,
              "width": width}
    return {"type": "moving_crop", "source": source, "crop": 6, "frames": 6,
            "sequences": 10, **fields}


def _sprite_block(**fields):
    return {"type": "moving_sprite", "canvas": 8, "sprite": 3, "frames": 4,
            "sequences": 6, **fields}


def _schedule(**overrides):
    return {"epochs": 3, "batch_size": 3, "lr0": 0.001, **overrides}


class TestConfig:
    def test_missing_keys(self):
        with pytest.raises(ValueError, match="dataset"):
            harness.config_from_dict({"methods": [], "latent_dims": [],
                                      "seed": 1})

    def test_unknown_method(self):
        cfg = _tiny_config(methods=["gft-grid", "pca"])
        with pytest.raises(ValueError, match="pca"):
            harness.config_from_dict(cfg)

    def test_duplicate_method(self):
        with pytest.raises(ValueError, match="duplicate"):
            harness.config_from_dict(_tiny_config(methods=["ae", "ae"]))

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            harness.config_from_dict(_tiny_config(train_fraction=1.0))

    @pytest.mark.parametrize("key, value, message", [
        ("methods", [], "config needs at least one method"),
        ("latent_dims", [4, 0], "latent dimension 0 must be a positive int"),
        ("warmup", 0, "warmup must be at least 1"),
    ])
    def test_out_of_range_values_rejected(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            harness.config_from_dict(_tiny_config(**{key: value}))

    def test_bad_latent_scale(self):
        # latents are always scaled: "auto" may be spelt out, and nothing
        # else, null included, is an option
        for bad in ("always", -1.0, 2.5, 1, float("nan"), None):
            with pytest.raises(ValueError, match=re.escape(
                    f'latent_scale must be "auto", got {bad!r}')):
                harness.config_from_dict(_tiny_config(latent_scale=bad))
        harness.config_from_dict(_tiny_config(latent_scale="auto"))
        assert "latent_scale" not in {
            f.name for f in dataclasses.fields(harness.ExperimentConfig)}

    def test_unknown_dataset_type(self):
        with pytest.raises(ValueError,
                           match="^unknown dataset type 'mystery'$"):
            harness.config_from_dict(_tiny_config(dataset={"type": "mystery"}))

    @pytest.mark.parametrize("key, value", [
        ("latent_dims", 4), ("latent_dims", [4.7]), ("latent_dims", [True]),
        ("latent_dims", ["4"]), ("seed", None), ("seed", 1.5),
        ("seed", False), ("warmup", 2.0), ("warmup", True),
        # malformed types other than integers, and schedule entries
        ("ae_schedule", _schedule(epochs=2.5)),
        ("ae_schedule", _schedule(batch_size=True)),
        ("ae_schedule", _schedule(epochs=None)),
        ("lstm_schedule", _schedule(lr_milestones=[[1.7, 0.5]])),
        ("lstm_schedule", _schedule(wd_milestones=[[2, "10"]])),
        ("lstm_schedule", _schedule(lr_milestones=3)),
        ("ae_schedule", _schedule(lr0="0.01")),
        ("ae_schedule", 3), ("dataset", 3), ("methods", 5), ("methods", "ae"),
        ("train_fraction", None), ("keep_fraction", "0.5"),
        ("grad_clip", True),  # not a key any more: rejected by name
        ("latent_scale", True), ("codec_cache_dir", 5),
        # an empty path would name the working directory
        ("codec_cache_dir", ""),
    ])
    def test_malformed_integers_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            harness.config_from_dict(_tiny_config(**{key: value}))

    @pytest.mark.parametrize("block, label", [
        (_crop_block(crop=6.9), "dataset crop"),
        (_crop_block(frames=True), "dataset frames"),
        (_crop_block(sequences="10"), "dataset sequences"),
        ({**_crop_block(sequences="10"), "source": {"type": "textured"}},
         "dataset sequences"),  # the source count defaults to it
        (_sprite_block(canvas=16.0), "dataset canvas"),
        (_sprite_block(sprite="6"), "dataset sprite"),
        (_crop_block(count=10.0), "dataset source count"),
        (_crop_block(height="12"), "dataset source height"),
        (_crop_block(width=None), "dataset source width"),
    ])
    def test_malformed_dataset_fields_rejected(self, block, label):
        with pytest.raises(ValueError, match=f"^{label} must be"):
            harness.config_from_dict(_tiny_config(dataset=block))

    @pytest.mark.parametrize("block, message", [
        ({"type": "file"}, "dataset is missing key 'path'"),
        ({"type": "csv", "frames": 6}, "dataset is missing key 'path'"),
        ({**_crop_block(), "source": {"type": "stl10"}},
         "dataset source is missing key 'path'"),
        # an integer path would open that file descriptor
        ({"type": "file", "path": 5}, "dataset path must be a string, got 5"),
        ({"type": "csv", "path": None},
         "dataset path must be a string, got None"),
        ({**_crop_block(), "source": {"type": "stl10", "path": ["x"]}},
         "dataset source path must be a string, got ['x']"),
        ({"type": "file", "path": ""},
         "dataset path must be a non-empty path, got ''"),
        ({"type": "csv", "path": ""},
         "dataset path must be a non-empty path, got ''"),
        ({**_crop_block(), "source": {"type": "stl10", "path": ""}},
         "dataset source path must be a non-empty path, got ''"),
    ])
    def test_dataset_path_checked(self, block, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            harness.config_from_dict(_tiny_config(dataset=block))

    def test_hash_ignores_formatting_only(self):
        a = harness.config_from_dict(_tiny_config())
        b = harness.config_from_dict(json.loads(json.dumps(_tiny_config())))
        assert harness.config_hash(a) == harness.config_hash(b)


def _crop_source(**source):
    return {**_crop_block(), "source": source}


class TestConfigSchema:
    @pytest.mark.parametrize("cfg, label, key", [
        # the three misspellings that used to run with defaults instead
        (_tiny_config(lstm_shedule=_schedule()), "config", "lstm_shedule"),
        (_tiny_config(lstm_schedule=_schedule(lr_milestone=[[1, 10]])),
         "lstm_schedule", "lr_milestone"),
        (_tiny_config(dataset=_crop_block(sequencs=9)), "dataset",
         "sequencs"),
        (_tiny_config(ae_schedule=_schedule(wd_milestone=[[1, 10]])),
         "ae_schedule", "wd_milestone"),
        (_tiny_config(dataset=_sprite_block(count=6)), "dataset", "count"),
        (_tiny_config(dataset={"type": "file", "path": "x.npy", "frames": 6}),
         "dataset", "frames"),
        (_tiny_config(dataset={"type": "csv", "path": "x.csv",
                               "sequences": 6}), "dataset", "sequences"),
        (_tiny_config(dataset=_crop_source(type="textured", heigth=12)),
         "dataset source", "heigth"),
        (_tiny_config(dataset=_crop_source(type="stl10", path="x.bin",
                                           count=5)),
         "dataset source", "count"),
        # keys that are gone: --out names the output directory, and
        # every prediction run keeps its scored samples
        (_tiny_config(out_dir=5), "config", "out_dir"),
        (_tiny_config(out_dir=""), "config", "out_dir"),
        (_tiny_config(dump_predictions="no"), "config", "dump_predictions"),
        (_tiny_config(dump_predictions=1), "config", "dump_predictions"),
    ])
    def test_unknown_key_rejected(self, cfg, label, key):
        message = f"{label} has unknown key {key!r}; expected one of ["
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            harness.config_from_dict(cfg)

    def test_unknown_key_message_lists_the_table(self):
        with pytest.raises(ValueError) as info:
            harness.config_from_dict(
                _tiny_config(ae_schedule=_schedule(lr_milestone=[])))
        assert str(info.value) == (
            "ae_schedule has unknown key 'lr_milestone'; expected one of "
            "['batch_size', 'epochs', 'lr0', 'lr_milestones', 'wd0', "
            "'wd_milestones']")

    def test_duplicate_latent_dims_rejected(self):
        with pytest.raises(ValueError, match="^duplicate latent_dims in config$"):
            harness.config_from_dict(_tiny_config(latent_dims=[4, 9, 4]))

    @pytest.mark.parametrize("key, value, message", [
        ("latent_scale", float("nan"), 'latent_scale must be "auto", got nan'),
        ("latent_scale", float("inf"), 'latent_scale must be "auto", got inf'),
        ("latent_scale", float("-inf"),
         'latent_scale must be "auto", got -inf'),
        ("keep_fraction", float("nan"), "keep_fraction must be in"),
        ("ae_schedule", _schedule(lr0=float("nan")), "lr0 must be positive"),
        ("lstm_schedule", _schedule(lr0=float("inf")),
         "lr0 must be positive"),
        ("ae_schedule", _schedule(wd0=float("nan")),
         "wd0 must be nonnegative"),
        ("ae_schedule", _schedule(wd0=float("inf")),
         "wd0 must be nonnegative"),
        ("lstm_schedule", _schedule(lr_milestones=[[1, float("nan")]]),
         "lr milestone divisors must be positive"),
        ("ae_schedule", _schedule(wd_milestones=[[1, float("inf")]]),
         "wd milestone divisors must be positive"),
    ])
    def test_non_finite_numbers_rejected(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            harness.config_from_dict(_tiny_config(**{key: value}))

    @pytest.mark.parametrize("key, value, message", [
        ("ae_schedule", _schedule(lr0=0),
         "ae_schedule lr0 must be positive and finite, got 0.0"),
        ("lstm_schedule", _schedule(wd_milestones=[[1, 0]]),
         "lstm_schedule wd milestone divisors must be positive and finite, "
         "got 0.0"),
    ])
    def test_schedule_range_error_names_the_schedule(self, key, value,
                                                     message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            harness.config_from_dict(_tiny_config(**{key: value}))

    @pytest.mark.parametrize("methods, keep_fraction", [
        (["gft-grid"], -3), (["gft-corr"], 2.0), (["gft-corr"], 0.0),
    ])
    def test_keep_fraction_out_of_range_rejected(self, methods,
                                                 keep_fraction):
        with pytest.raises(ValueError,
                           match=re.escape("keep_fraction must be in (0, 1]")):
            harness.config_from_dict(_tiny_config(
                methods=methods, keep_fraction=keep_fraction))

    def test_defaults_filled_in(self):
        config = harness.config_from_dict(
            {"dataset": {"type": "moving_sprite"}, "methods": ["raw"],
             "latent_dims": [], "seed": 3,
             "ae_schedule": {"epochs": 1, "batch_size": 2, "lr0": 0.1}})
        assert (config.train_fraction, config.warmup, config.keep_fraction,
                config.codec_cache_dir, config.lstm_schedule) == (
            0.7, 10, graphs.DEFAULT_KEEP_FRACTION, None, None)
        assert config.ae_schedule == harness.TrainSchedule(1, 2, 0.1)
        dataset = harness.build_dataset(config)
        assert (dataset.count, dataset.num_frames) == (100, 20)
        assert dataset.frame_shape == (64, 64)

    def test_textured_count_defaults_to_sequences(self):
        block = {"type": "moving_crop", "source": {"height": 12, "width": 12},
                 "crop": 6, "frames": 3, "sequences": 7}
        dataset = harness.build_dataset(
            harness.config_from_dict(_tiny_config(dataset=block)))
        assert dataset.count == 7

    def test_shipped_configs_use_known_keys(self):
        assert _SHIPPED_CONFIGS
        for path in _SHIPPED_CONFIGS:
            _load_config(path)

    def test_full_scale_config_holds_published_recipe(self):
        config = _load_config(Path(__file__).resolve().parent.parent
                              / "configs" / "full_scale_stl10.json")
        # image AE: lr 1e-5, weight decay 1e-5 divided by 10 at epochs
        # 4 and 120; predictor: lr 1e-3 halved at epochs 200 and 400
        assert config.ae_schedule == harness.TrainSchedule(
            epochs=400, batch_size=100, lr0=1e-5, wd0=1e-5,
            wd_milestones=((4, 10.0), (120, 10.0)))
        assert config.lstm_schedule == harness.TrainSchedule(
            epochs=600, batch_size=6, lr0=1e-3,
            lr_milestones=((200, 2.0), (400, 2.0)))

    def test_readme_schema_lists_exactly_the_table_keys(self):
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text()
        section = readme.split("## Config schema", 1)[1]
        block = section.split("```jsonc", 1)[1].split("```", 1)[0]
        documented = set(re.findall(r'"(\w+)"\s*:', block))
        tables = [harness._CONFIG_KEYS, harness._SCHEDULE_KEYS,
                  *harness._DATASET_KEYS.values(),
                  *harness._SOURCE_KEYS.values()]
        assert documented == set().union(*tables)

    def test_shipped_config_digests_unchanged(self, tmp_path):
        # the config hash of earlier releases, so existing reports stay
        # valid, and the codec-cache names of this key, so caches do;
        # desk_predict's hash changed once, when it lost the
        # dump_predictions key (every predict run now dumps)
        root = Path(__file__).resolve().parent.parent / "configs"
        frames = np.arange(2 * 3 * 256, dtype=np.float64).reshape(2, 3, 256)
        expected = {
            "desk_predict": (
                "e13380e3f55e42b917808725c18980d7bf2b60865e242102f16d086945210509",
                ["ae_n256_m64_50c44ae302e6faca.npy"]),
            "full_scale_stl10": (
                "e7544b2f2df3938dbbed5a6d2e2ce3868bb4fc81686061de933496450b428e20",
                ["ae_n256_m500_689e41713ab23411.npy",
                 "ae_n256_m1000_689e41713ab23411.npy"]),
        }
        for name, (digest, cache_names) in expected.items():
            raw = json.loads((root / f"{name}.json").read_text())
            assert harness.config_hash(harness.config_from_dict(raw)) == digest
            config = harness.config_from_dict(
                dict(raw, codec_cache_dir=str(tmp_path)))
            assert [path.name for path in harness._cache_files(
                config, frames).values()] == cache_names


class TestCompatibility:
    def test_grid_method_needs_frame_shape(self, tmp_path):
        path = tmp_path / "series.csv"
        data.save_csv_series(path, np.random.RandomState(0).rand(24, 5))
        cfg = _tiny_config(dataset={"type": "csv", "path": str(path),
                                    "frames": 6},
                           methods=["gft-grid"], latent_dims=[2], warmup=2)
        with pytest.raises(ValueError, match="grid-shaped"):
            harness.run_reconstruction_experiment(harness.config_from_dict(cfg))

    def test_corr_method_works_without_frame_shape(self, tmp_path):
        path = tmp_path / "series.csv"
        data.save_csv_series(path, np.random.RandomState(1).rand(60, 6))
        cfg = _tiny_config(dataset={"type": "csv", "path": str(path),
                                    "frames": 6},
                           methods=["gft-corr"], latent_dims=[2, 4],
                           keep_fraction=0.5)
        report = harness.run_reconstruction_experiment(
            harness.config_from_dict(cfg))
        assert all(np.isfinite(c.recon_mse) for c in report.cells)

    def test_one_column_series_runs_at_m_1(self, tmp_path):
        # one node: the correlation graph has no pair to keep, so its
        # Laplacian is [[0]] and the m=1 basis is exact
        path = tmp_path / "series.csv"
        data.save_csv_series(path, np.random.RandomState(2).rand(60, 1))
        config = harness.config_from_dict(_tiny_config(
            dataset={"type": "csv", "path": str(path), "frames": 6},
            methods=["gft-corr", "ae", "raw"], latent_dims=[1]))
        recon = harness.run_reconstruction_experiment(config)
        pred = harness.run_prediction_experiment(config)
        for report in (recon, pred):
            assert [(c.method, c.m) for c in report.cells] == [
                ("gft-corr", 1), ("ae", 1), ("raw", 1)]
            corr = report.cells[0]
            assert corr.recon_mse == 0.0
            assert (corr.eig_gap, corr.eig_multiplicity) == (None, 1)
            assert all(np.isfinite(c.recon_mse) for c in report.cells)
        assert all(np.isfinite(c.pred_mse) for c in pred.cells)

    def test_latent_dim_exceeding_n(self):
        cfg = _tiny_config(latent_dims=[37])
        with pytest.raises(ValueError, match="exceeds"):
            harness.run_reconstruction_experiment(harness.config_from_dict(cfg))

    def test_warmup_too_large_for_sequences(self):
        cfg = _tiny_config(warmup=6)
        with pytest.raises(ValueError, match="warmup"):
            harness.run_prediction_experiment(harness.config_from_dict(cfg))

    def test_prediction_needs_two_frames(self):
        cfg = _tiny_config(dataset=_crop_block(frames=1), warmup=1)
        with pytest.raises(ValueError, match="^prediction needs sequences "
                                             "of at least 2 frames$"):
            harness.run_prediction_experiment(harness.config_from_dict(cfg))

    @pytest.mark.parametrize("key, value, runner, message", [
        ("latent_dims", [], harness.run_reconstruction_experiment,
         "latent_dims must be non-empty"),
        ("ae_schedule", None, harness.run_reconstruction_experiment,
         "method 'ae' needs an ae_schedule"),
        ("lstm_schedule", None, harness.run_prediction_experiment,
         "prediction experiments need an lstm_schedule"),
    ])
    def test_config_only_checks_come_before_the_data(self, monkeypatch, key,
                                                     value, runner, message):
        cfg = _tiny_config(**{key: value})
        if value is None:  # a schedule left out
            del cfg[key]
        config = harness.config_from_dict(cfg)
        assert harness.build_dataset(config).count == 10  # gen-data takes it

        def no_data(config):
            raise AssertionError("build_dataset was called")
        monkeypatch.setattr(harness, "build_dataset", no_data)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            runner(config)


class TestReconstructionExperiment:
    def test_full_basis_recon_near_zero_and_monotone(self):
        config = harness.config_from_dict(_tiny_config(methods=["gft-grid",
                                                                "gft-geo"]))
        report = harness.run_reconstruction_experiment(config)
        for method in ("gft-grid", "gft-geo"):
            errors = [c.recon_mse for c in report.cells if c.method == method]
            assert errors[-1] < 1e-10  # m = n
            for prev, cur in zip(errors, errors[1:]):
                assert cur <= prev

    def test_reported_equals_direct_spectral_round_trip(self):
        config = harness.config_from_dict(_tiny_config(methods=["gft-geo"],
                                                       latent_dims=[5]))
        report = harness.run_reconstruction_experiment(config)
        # rebuild the pipeline by hand from the training split only
        dataset = harness.build_dataset(config)
        train, test = data.split(
            dataset, config.train_fraction,
            harness._stream(config.seed, harness._STREAM_SPLIT))
        lap = graphs.laplacian(
            graphs.semi_geometric_graph(train.frames(), 6, 6))
        basis = spectral.truncate(
            spectral.LinearCodec(linalg.sym_eig(lap)[1]), 5)
        direct = spectral.reconstruction_mse(basis, test.frames())
        assert abs(report.cells[0].recon_mse - direct) < 1e-12

    def test_raw_method_reports_zero(self):
        config = harness.config_from_dict(_tiny_config(methods=["raw"]))
        report = harness.run_reconstruction_experiment(config)
        assert len(report.cells) == 1
        assert report.cells[0].m == 36
        assert report.cells[0].recon_mse == 0.0

    def test_ae_history_recorded(self):
        config = harness.config_from_dict(_tiny_config(methods=["ae"],
                                                       latent_dims=[4]))
        report = harness.run_reconstruction_experiment(config)
        hist = report.cells[0].ae_loss_history
        assert len(hist) == 15
        assert hist[-1] < hist[0]


class TestPredictionExperiment:
    def test_zero_epoch_schedule_still_well_formed(self):
        cfg = _tiny_config(lstm_schedule={"epochs": 0, "batch_size": 3,
                                          "lr0": 0.001},
                           latent_dims=[4])
        report = harness.run_prediction_experiment(harness.config_from_dict(cfg))
        assert len(report.cells) == 4  # 3 compressed cells + raw
        for cell in report.cells:
            assert np.isfinite(cell.pred_mse) and cell.pred_mse >= 0.0
            assert np.isfinite(cell.recon_mse)
            assert cell.lstm_loss_history == []

    def test_raw_cell_scores_the_scaled_frames_bit_for_bit(self):
        # raw's identity codec changes no bit of what the LSTM sees or of
        # what it scores: the cell equals an LSTM trained on the scaled
        # frames and decoded by scaling back
        config = harness.config_from_dict(_tiny_config(methods=["raw"]))
        cell, = harness.run_prediction_experiment(config).cells
        assert cell.recon_mse == 0.0
        train, test = data.split(
            harness.build_dataset(config), config.train_fraction,
            harness._stream(config.seed, harness._STREAM_SPLIT))
        scale = float(np.max(np.abs(train.sequences)))
        method_ix, m = harness.METHODS.index("raw"), 36
        trained, _ = lstm.train(
            lstm.init_cell(m, harness._stream(
                config.seed, harness._STREAM_LSTM_INIT, method_ix, m)),
            train.sequences / scale, config.lstm_schedule, config.warmup,
            harness._stream(config.seed, harness._STREAM_LSTM_TRAIN,
                            method_ix, m))
        pred_mse, decoded = lstm.evaluate_prediction(
            trained, test.sequences / scale, test.sequences, config.warmup,
            lambda z: z * scale)
        assert cell.pred_mse == pred_mse
        assert cell.sample_prediction.tobytes() == decoded[0].tobytes()

    def test_latent_scale_auto_and_dump(self, tmp_path):
        cfg = _tiny_config(latent_dims=[4], latent_scale="auto",
                           methods=["gft-grid", "raw"])
        report = harness.run_prediction_experiment(harness.config_from_dict(cfg))
        paths = harness.emit_report(report, tmp_path)
        assert paths["predictions"] == str(tmp_path / "predictions.npy")
        values = data.load_array(tmp_path / "predictions.npy")[0]
        assert values.shape == (4, 36)  # T - warmup free-run frames, n pixels
        # the dump holds the prediction bit for bit
        cell = report.cells[0]
        assert values.tobytes() == cell.sample_prediction.tobytes()

    def test_latents_always_scaled_into_lstm_range(self, monkeypatch):
        # the LSTM's output o*tanh(c) lies in (-1, 1), so with no
        # latent_scale key every cell still trains on latents that
        # peak at exactly 1
        peaks = []
        real = lstm.train

        def recording(cell, sequences, *args):
            peaks.append(float(np.max(np.abs(sequences))))
            return real(cell, sequences, *args)

        config = harness.config_from_dict(_tiny_config(latent_dims=[4, 9]))
        with monkeypatch.context() as mp:  # one CPU: the cells run here
            mp.setattr(os, "sched_getaffinity", lambda pid: {0},
                       raising=False)
            mp.setattr(lstm, "train", recording)
            report = harness.run_prediction_experiment(config)
        assert peaks == [1.0] * len(report.cells)

    def test_dumped_prediction_is_the_scored_one(self, monkeypatch):
        scored = []
        real = lstm.evaluate_prediction

        def recording(*args):
            mse, decoded = real(*args)
            scored.append(decoded)
            return mse, decoded

        config = harness.config_from_dict(_tiny_config(latent_dims=[4]))
        with monkeypatch.context() as mp:  # one CPU: the cells run here
            mp.setattr(os, "sched_getaffinity", lambda pid: {0},
                       raising=False)
            mp.setattr(lstm, "evaluate_prediction", recording)
            report = harness.run_prediction_experiment(config)
        assert len(scored) == len(report.cells) == 4
        for cell, decoded in zip(report.cells, scored):
            assert decoded.shape == (3, 4, 36)  # test sequences, T - warmup, n
            assert cell.sample_prediction.tobytes() == decoded[0].tobytes()
            assert not np.shares_memory(cell.sample_prediction, decoded)

    def test_determinism_byte_identical_csv(self, tmp_path):
        cfg = _tiny_config(latent_dims=[4, 9])
        config = harness.config_from_dict(cfg)
        r1 = harness.run_prediction_experiment(config)
        r2 = harness.run_prediction_experiment(config)
        harness.emit_report(r1, tmp_path / "a")
        harness.emit_report(r2, tmp_path / "b")
        assert ((tmp_path / "a" / "report.csv").read_bytes()
                == (tmp_path / "b" / "report.csv").read_bytes())


class TestCodecCache:
    def test_cache_reuse_keeps_results_identical(self, tmp_path):
        cfg = _tiny_config(methods=["ae", "gft-geo"], latent_dims=[4],
                           codec_cache_dir=str(tmp_path / "cache"))
        config = harness.config_from_dict(cfg)
        r1 = harness.run_reconstruction_experiment(config)
        cache_files = list((tmp_path / "cache").iterdir())
        assert cache_files
        r2 = harness.run_reconstruction_experiment(config)  # cache hit
        for c1, c2 in zip(r1.cells, r2.cells):
            assert c1.recon_mse == c2.recon_mse

    def test_cached_runs_report_what_uncached_runs_do(self, tmp_path,
                                                      monkeypatch):
        raw = _tiny_config(methods=["gft-grid", "gft-geo", "gft-corr", "ae"],
                           latent_dims=[2, 4, 9], keep_fraction=0.3)
        cache = tmp_path / "cache"
        cached = dict(raw, codec_cache_dir=str(cache))
        run = harness.run_reconstruction_experiment
        for cpus in (1, 2):
            runs = [_run_on_cpus(monkeypatch, cpus, run,
                                 harness.config_from_dict(cfg),
                                 tmp_path / f"{cpus}-{state}")[:2]
                    for cfg, state in ((raw, "none"), (cached, "cold"),
                                       (cached, "warm"))]
            # the cache holds the trained AE matrices and nothing else
            assert sorted(re.fullmatch(r"ae_n36_m(\d)_[0-9a-f]{16}\.npy",
                                       p.name)[1]
                          for p in cache.iterdir()) == ["2", "4", "9"]
            shutil.rmtree(cache)
            for d, _ in runs:  # the echo names the cache, and so its hash
                d["config"].pop("codec_cache_dir", None)
                del d["config_hash"]
            (none, none_files), (cold, cold_files), (warm, warm_files) = runs
            assert none_files == cold_files == warm_files  # report.csv
            assert none == cold
            # a warm run reads each AE instead of training it, so it has
            # no loss history for it; every other field is the same
            for cell in none["cells"]:
                if cell["method"] == "ae":
                    assert cell["ae_loss_history"]
                    cell["ae_loss_history"] = None
            assert none == warm

    def test_cache_key_holds_only_determining_fields(self, tmp_path):
        base = _tiny_config(methods=["ae"], latent_dims=[4])
        runs = itertools.count()

        def entry(raw):
            """The name of the m=4 AE entry a run of ``raw`` writes."""
            cache = tmp_path / f"key{next(runs)}"  # the dir is not keyed
            harness.run_reconstruction_experiment(harness.config_from_dict(
                dict(raw, codec_cache_dir=str(cache))))
            return next(cache.glob("ae_n36_m4_*.npy")).name

        key = entry(base)
        assert re.fullmatch(r"ae_n36_m4_[0-9a-f]{16}\.npy", key)
        # nothing the AE training does not read changes its key
        assert entry(dict(
            base, methods=["ae", "raw"], latent_dims=[4, 9],
            keep_fraction=0.3, warmup=3, latent_scale="auto",
            lstm_schedule=dict(base["lstm_schedule"], epochs=5))) == key
        # and each field it reads does: the seed, the AE schedule, and
        # the training frames, which the split and the dataset determine
        for change in ({"ae_schedule": dict(base["ae_schedule"], epochs=3)},
                       {"seed": 12}, {"train_fraction": 0.6},
                       {"dataset": _crop_block(sequences=9)}):
            assert entry(dict(base, **change)) != key
        filled = _tiny_config(methods=["gft-grid", "ae"], latent_dims=[4],
                              codec_cache_dir=str(tmp_path / "cache"))
        a = harness.config_from_dict(filled)
        # a cache filled under another ae_schedule serves b like a cold run
        other = dict(filled,
                     ae_schedule=dict(filled["ae_schedule"], epochs=3))
        b = harness.config_from_dict(other)
        harness.run_reconstruction_experiment(a)
        warm = harness.run_reconstruction_experiment(b)
        cold = harness.run_reconstruction_experiment(harness.config_from_dict(
            dict(other, codec_cache_dir=str(tmp_path / "cold"))))
        harness.emit_report(warm, tmp_path / "warm")
        harness.emit_report(cold, tmp_path / "cold-out")
        assert ((tmp_path / "warm" / "report.csv").read_bytes()
                == (tmp_path / "cold-out" / "report.csv").read_bytes())

    def test_regenerated_file_gets_a_fresh_codec(self, tmp_path):
        # a file dataset's config holds only its path: rewriting the
        # file must not serve the AE trained on its old frames
        path = tmp_path / "frames.npy"
        raw = _tiny_config(dataset={"type": "file", "path": str(path)},
                           methods=["ae"], latent_dims=[4],
                           codec_cache_dir=str(tmp_path / "cache"))

        def recon_mse(cfg):
            report = harness.run_reconstruction_experiment(
                harness.config_from_dict(cfg))
            return report.cells[0].recon_mse

        for seed in (11, 7):  # the same path, other frames
            data.save_dataset(path, harness.build_dataset(
                harness.config_from_dict(_tiny_config(seed=seed))))
            cached = recon_mse(raw)
            assert cached == recon_mse(dict(raw, codec_cache_dir=None))
            assert recon_mse(raw) == cached  # the warm rerun
        assert len(list((tmp_path / "cache").iterdir())) == 2

    def test_truncated_entries_are_recomputed(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        config = harness.config_from_dict(_tiny_config(
            methods=["gft-grid", "ae"], latent_dims=[4],
            codec_cache_dir=str(cache)))
        harness.emit_report(harness.run_reconstruction_experiment(config),
                            tmp_path / "cold")
        entries = sorted(cache.iterdir())
        assert [e.name.split("_")[0] for e in entries] == ["ae"]
        whole = entries[0].read_bytes()
        archive = io.BytesIO()
        np.savez(archive, a=np.zeros((36, 4)))
        # cut short or empty, as an interrupted write would leave it, or
        # the other format np.load reads
        for i, damaged in enumerate((whole[:len(whole) // 2], b"",
                                     archive.getvalue())):
            entries[0].write_bytes(damaged)
            capsys.readouterr()
            harness.emit_report(harness.run_reconstruction_experiment(config),
                                tmp_path / f"rerun-{i}")
            assert capsys.readouterr().err.count("warning: ignoring") == 1
            assert entries[0].read_bytes() == whole
            assert sorted(cache.iterdir()) == entries  # no temp files left
            assert ((tmp_path / "cold" / "report.csv").read_bytes()
                    == (tmp_path / f"rerun-{i}" / "report.csv").read_bytes())

    @pytest.mark.parametrize("values, problem", [
        (np.zeros((36, 5)), "shape (36, 5)"),
        (np.zeros((36, 4), dtype=np.float32), "float32"),
        (np.full((36, 4), np.inf), "non-finite"),
    ])
    def test_entry_not_a_finite_float64_matrix_is_a_miss(self, tmp_path,
                                                         capsys, values,
                                                         problem):
        path = tmp_path / "entry.npy"
        np.save(path, values)
        assert harness._read_cache(path, (36, 4)) is None
        err = capsys.readouterr().err
        assert err.startswith(f"warning: ignoring codec cache entry {path}: ")
        assert problem in err and err.count("\n") == 1
        good = Rng(3).uniform_matrix(36, 4, -1.0, 1.0)
        data.save_array(path, good)
        assert harness._read_cache(path, (36, 4)).tobytes() == good.tobytes()


class TestEigDiagnostics:
    def test_gap_and_multiplicity_on_grid(self, tmp_path):
        # 6x6 grid: eigenvalues 0, 2-sqrt(3) (twice), 4-2sqrt(3), 1, ...
        config = harness.config_from_dict(_tiny_config(
            methods=["gft-grid", "ae"], latent_dims=[2, 4, 36],
            ae_schedule={"epochs": 1, "batch_size": 10, "lr0": 0.01}))
        report = harness.run_reconstruction_experiment(config)
        cells = {(c.method, c.m): c for c in report.cells}
        assert cells["gft-grid", 2].eig_multiplicity == 2
        assert abs(cells["gft-grid", 2].eig_gap) < 1e-12
        assert cells["gft-grid", 4].eig_multiplicity == 1
        assert abs(cells["gft-grid", 4].eig_gap
                   - (2.0 * np.sqrt(3.0) - 3.0)) < 1e-12
        assert cells["gft-grid", 36].eig_gap is None
        assert cells["gft-grid", 36].eig_multiplicity == 1
        assert cells["ae", 4].eig_gap is None
        assert cells["ae", 4].eig_multiplicity is None
        harness.emit_report(report, tmp_path)
        raw = json.loads((tmp_path / "report.json").read_text())
        for a, b in zip(raw["cells"], report.cells):
            assert a["eig_gap"] == b.eig_gap
            assert a["eig_multiplicity"] == b.eig_multiplicity
        assert "eig" not in (tmp_path / "report.csv").read_text()

    @pytest.mark.parametrize("keep_fraction", [0.3, 0.01])
    def test_geo_and_corr_match_an_independent_eigensolve(self, monkeypatch,
                                                           keep_fraction):
        # at keep_fraction 0.01 the correlation graph keeps 7 of its 630
        # pairs, so its Laplacian has a null space of many components and
        # the gft-corr cuts at m = 2, 4 and 9 fall inside it, as on series
        config = harness.config_from_dict(_tiny_config(
            methods=["gft-geo", "gft-corr"], latent_dims=[2, 4, 9, 18, 36],
            keep_fraction=keep_fraction))
        seen = {}
        real = harness._laplacian

        def recorded(config, method, train_frames, frame_shape):
            seen[method] = (train_frames.copy(), frame_shape)
            return real(config, method, train_frames, frame_shape)

        with monkeypatch.context() as mp:
            mp.setattr(harness, "_laplacian", recorded)
            report = harness.run_reconstruction_experiment(config)
        assert sorted(seen) == ["gft-corr", "gft-geo"]
        lam = {method: np.linalg.eigvalsh(real(config, method, *args))
               for method, args in seen.items()}
        for cell in report.cells:
            ev, m = lam[cell.method], cell.m
            tol = 1e-9 * max(1.0, ev[-1])
            if m == len(ev):
                assert cell.eig_gap is None
            else:
                assert abs(cell.eig_gap - (ev[m] - ev[m - 1])) <= tol
            assert cell.eig_multiplicity == np.sum(np.abs(ev - ev[m - 1])
                                                   <= tol)
        cells = {(c.method, c.m): c for c in report.cells}
        assert (cells["gft-corr", 9].eig_multiplicity > 9) == (
            keep_fraction == 0.01)


def _run_on_cpus(monkeypatch, cpus, runner, config, out_dir):
    """One experiment on ``cpus`` CPUs.

    Returns the report dict without its wall time, the bytes of every
    other emitted file, and the cells run in this process.
    """
    here = []
    real = harness._run_cell

    def counted(inputs, method, m):
        here.append((method, m))
        return real(inputs, method, m)

    with monkeypatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                   raising=False)
        mp.setattr(harness, "_run_cell", counted)
        report = runner(config)
    harness.emit_report(report, out_dir)
    d = harness.report_to_dict(report)
    del d["wall_time_s"]
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
             if p.name != "report.json"}
    return d, files, here


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="cells run in-process without fork")
class TestCellWorkers:
    def test_without_affinity_one_worker_per_counted_cpu(self, monkeypatch):
        made = []

        def executor(workers, **kwargs):
            made.append(workers)
            return "pool"

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            executor)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert harness._fork_pool(None, 2) == "pool"
        assert made == [2]  # capped at the number of cells
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one
        assert harness._fork_pool(None, 2) is None
        assert made == [2]

    def test_without_fork_cells_run_here(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert harness._fork_pool(None, 2) is None

    def test_reconstruction_same_in_workers_and_in_process(self, tmp_path,
                                                           monkeypatch):
        config = harness.config_from_dict(_tiny_config(
            methods=["gft-grid", "gft-geo", "ae"], latent_dims=[4, 9]))
        run = harness.run_reconstruction_experiment
        one = _run_on_cpus(monkeypatch, 1, run, config, tmp_path / "one")
        two = _run_on_cpus(monkeypatch, 2, run, config, tmp_path / "two")
        assert one[2] == [(method, m) for method in config.methods
                          for m in (4, 9)]
        assert two[2] == []  # every cell ran in a worker
        assert one[:2] == two[:2]

    def test_prediction_same_in_workers_and_in_process(self, tmp_path,
                                                       monkeypatch):
        cache = tmp_path / "cache"
        config = harness.config_from_dict(_tiny_config(
            methods=list(harness.METHODS), latent_dims=[4, 9],
            keep_fraction=0.1, latent_scale="auto",
            codec_cache_dir=str(cache)))
        run = harness.run_prediction_experiment
        runs, caches = {}, {}
        for cpus in (1, 2):
            runs[cpus] = [_run_on_cpus(monkeypatch, cpus, run, config,
                                       tmp_path / f"{cpus}-{state}")
                          for state in ("cold", "warm")]
            caches[cpus] = {p.name: p.read_bytes() for p in cache.iterdir()}
            shutil.rmtree(cache)
        assert runs[2][0][2] == runs[2][1][2] == []
        for one, two in zip(runs[1], runs[2]):
            assert one[:2] == two[:2]
            assert "predictions.npy" in one[1]
        assert caches[1] == caches[2]
        cold, warm = runs[1][0][0], runs[1][1][0]
        ae_cells = [i for i, c in enumerate(cold["cells"]) if c["method"] == "ae"]
        assert all(cold["cells"][i]["ae_loss_history"] for i in ae_cells)
        assert all(warm["cells"][i]["ae_loss_history"] is None
                   for i in ae_cells)  # the warm runs read the cache

    def test_diverging_cell_raises_and_leaves_nothing_behind(self, tmp_path,
                                                             monkeypatch):
        cache = tmp_path / "cache"
        config = harness.config_from_dict(_tiny_config(
            methods=["gft-grid", "ae"], latent_dims=[4, 9],
            codec_cache_dir=str(cache),
            ae_schedule={"epochs": 3, "batch_size": 10, "lr0": 1e300}))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        with pytest.raises(ValueError) as excinfo:
            harness.run_reconstruction_experiment(config)
        assert excinfo.type is ValueError
        assert str(excinfo.value) == "codec matrix contains non-finite entries"
        assert multiprocessing.active_children() == []
        assert list(cache.glob("*.tmp")) == []

    def test_failing_run_keeps_the_aes_it_trained(self, tmp_path,
                                                   monkeypatch):
        # each LSTM diverges after its cell trained the AE; the cell has
        # cached that AE by then, so a rerun need not train it again
        good = _tiny_config(methods=["ae"], latent_dims=[4, 9])
        bad = dict(good, lstm_schedule=_schedule(lr0=1e308))
        run = harness.run_prediction_experiment

        def on(cpus, raw, cache, out):
            if cache is not None:
                raw = dict(raw, codec_cache_dir=str(tmp_path / cache))
            return _run_on_cpus(monkeypatch, cpus, run,
                                harness.config_from_dict(raw), tmp_path / out)

        uncached, uncached_files, _ = on(1, good, None, "uncached")
        on(1, good, "clean", "clean-out")
        clean = {p.name: p.read_bytes()
                 for p in (tmp_path / "clean").iterdir()}
        assert len(clean) == 2
        # in this process the cells run in cell order, so (ae, 4) fails
        # first; two workers each train one AE before their LSTM fails
        for cpus, kept in ((1, [4]), (2, [4, 9])):
            cache = tmp_path / f"cache{cpus}"
            with pytest.raises(ValueError,
                               match="w_x contains non-finite entries"):
                on(cpus, bad, cache.name, f"bad{cpus}")
            assert multiprocessing.active_children() == []
            entries = {p.name: p.read_bytes() for p in cache.iterdir()}
            assert sorted(int(re.search(r"_m(\d+)_", name)[1])
                          for name in entries) == kept
            assert all(clean[name] == raw for name, raw in entries.items())
            warm, warm_files, _ = on(cpus, good, cache.name, f"warm{cpus}")
            assert warm_files == uncached_files  # report.csv and the dumps
            for cell, plain in zip(warm["cells"], uncached["cells"]):
                history = cell["ae_loss_history"]
                assert (history is None) == (cell["m"] in kept)
                assert cell == dict(plain, ae_loss_history=history)

    def test_first_failing_cell_in_cell_order_raises(self, monkeypatch):
        # largest m is submitted first, so (ae, 9) fails before (gft-grid, 4)
        real = harness._run_cell

        def failing(inputs, method, m):
            if (method, m) == ("gft-grid", 4):
                raise np.linalg.LinAlgError("gft-grid m=4 failed")
            if (method, m) == ("ae", 9):
                raise ValueError("ae m=9 failed")
            return real(inputs, method, m)

        monkeypatch.setattr(harness, "_run_cell", failing)
        config = harness.config_from_dict(_tiny_config(
            methods=["gft-grid", "ae"], latent_dims=[4, 9]))
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)),
                                raising=False)
            with pytest.raises(ValueError) as excinfo:
                harness.run_reconstruction_experiment(config)
            assert excinfo.type is np.linalg.LinAlgError
            assert str(excinfo.value) == "gft-grid m=4 failed"
            assert multiprocessing.active_children() == []


    def test_training_ae_cells_submitted_first_at_equal_m(self, tmp_path,
                                                           monkeypatch):
        submitted = []

        class RecordingPool:  # runs each cell at once, in this process
            def __init__(self, inputs):
                self.inputs = inputs

            def submit(self, fn, method, m):
                submitted.append((method, m))
                future = concurrent.futures.Future()
                future.set_result(harness._run_cell(self.inputs, method, m))
                return future

            def shutdown(self, wait, cancel_futures):
                pass

        monkeypatch.setattr(harness, "_fork_pool",
                            lambda inputs, cells: RecordingPool(inputs))
        config = harness.config_from_dict(_tiny_config(
            methods=["gft-grid", "ae", "gft-geo"], latent_dims=[4, 9],
            codec_cache_dir=str(tmp_path / "cache")))
        harness.run_reconstruction_experiment(config)  # cold: AE trains
        assert submitted == [("ae", 9), ("gft-grid", 9), ("gft-geo", 9),
                             ("ae", 4), ("gft-grid", 4), ("gft-geo", 4)]
        submitted.clear()
        harness.run_reconstruction_experiment(config)  # warm: AE is cached
        assert submitted == [("gft-grid", 9), ("ae", 9), ("gft-geo", 9),
                             ("gft-grid", 4), ("ae", 4), ("gft-geo", 4)]


class TestEmitReport:
    def test_csv_row_count_and_round_trip(self, tmp_path):
        config = harness.config_from_dict(_tiny_config(latent_dims=[4, 9]))
        report = harness.run_reconstruction_experiment(config)
        paths = harness.emit_report(report, tmp_path)
        lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert lines[0] == "method,m,recon_mse,pred_mse"
        assert len(lines) == 1 + 3 * 2 + 1  # header + 3 methods x 2 dims + raw
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded["kind"] == report.kind
        assert loaded["seed"] == report.seed
        assert loaded["config_hash"] == report.config_hash
        for a, b in zip(loaded["cells"], report.cells):
            assert a["method"] == b.method and a["m"] == b.m
            assert (a["recon_mse"] == b.recon_mse
                    and a["pred_mse"] == b.pred_mse)

    def test_predictions_row_i_is_cell_i(self, tmp_path):
        config = harness.config_from_dict(_tiny_config(
            methods=["gft-grid", "ae", "raw"], latent_dims=[4, 9]))
        report = harness.run_prediction_experiment(config)
        harness.emit_report(report, tmp_path)
        rows = data.load_array(tmp_path / "predictions.npy")
        assert rows.shape == (5, 4, 36)  # cells, T - warmup, n
        cells = json.loads((tmp_path / "report.json").read_text())["cells"]
        lines = (tmp_path / "report.csv").read_text().splitlines()
        for i, cell in enumerate(report.cells):
            assert rows[i].tobytes() == cell.sample_prediction.tobytes()
            assert (cells[i]["method"], cells[i]["m"]) == (cell.method, cell.m)
            assert lines[i + 1].startswith(f"{cell.method},{cell.m},")

    def test_prediction_report_without_samples_writes_nothing(self,
                                                              tmp_path):
        # a report rebuilt from its report.json has no samples, so it
        # cannot rewrite a run directory's predictions.npy
        config = harness.config_from_dict(_tiny_config(
            methods=["gft-grid"], latent_dims=[4]))
        report = harness.run_prediction_experiment(config)
        harness.emit_report(report, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        d = json.loads((tmp_path / "report.json").read_text())
        loaded = harness.Report(**{**d, "cells": [harness.ReportCell(**c)
                                                  for c in d["cells"]]})
        with pytest.raises(ValueError, match="^a prediction report needs "
                                             "every cell's sample_prediction$"):
            harness.emit_report(loaded, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_write_leaves_no_earlier_run(self, tmp_path, monkeypatch):
        config = harness.config_from_dict(_tiny_config(
            methods=["gft-grid"], latent_dims=[4, 9]))
        run_a = harness.run_prediction_experiment(config)
        harness.emit_report(run_a, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "pred_mse.svg", "predictions.npy", "report.csv", "report.json"]
        run_b = dataclasses.replace(run_a, cells=run_a.cells[:1])

        def full_disk(path, array):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(data, "save_array", full_disk)
        with pytest.raises(OSError, match="No space left"):
            harness.emit_report(run_b, tmp_path)
        # run B's table, written before the dump; nothing of run A
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
        assert len((tmp_path / "report.csv").read_text().splitlines()) == 2


class TestReportJson:
    def _report(self):
        cells = [
            harness.ReportCell("gft-grid", 4, 0.25, pred_mse=0.5,
                               lstm_loss_history=[0.75, 0.5], eig_gap=0.125,
                               eig_multiplicity=2),
            harness.ReportCell("ae", 9, 1e-3, pred_mse=None,
                               ae_loss_history=[2.0, 1.0]),
        ]
        return harness.Report("prediction", 11, _tiny_config(), "ab" * 32,
                              1.5, cells)

    def test_round_trip_equals_original(self):
        d = harness.report_to_dict(self._report())
        expected = {
            "kind": "prediction", "seed": 11, "config": _tiny_config(),
            "config_hash": "ab" * 32, "wall_time_s": 1.5,
            "cells": [
                {"method": "gft-grid", "m": 4, "recon_mse": 0.25,
                 "pred_mse": 0.5, "ae_loss_history": None,
                 "lstm_loss_history": [0.75, 0.5], "eig_gap": 0.125,
                 "eig_multiplicity": 2},
                {"method": "ae", "m": 9, "recon_mse": 1e-3,
                 "pred_mse": None, "ae_loss_history": [2.0, 1.0],
                 "lstm_loss_history": None, "eig_gap": None,
                 "eig_multiplicity": None},
            ]}
        assert d == expected
        assert json.loads(json.dumps(d, indent=2)) == expected

    def test_key_order_and_no_sample_prediction(self):
        report = self._report()
        report.cells[0].sample_prediction = np.zeros((2, 4))
        d = harness.report_to_dict(report)
        assert list(d) == ["kind", "seed", "config", "config_hash",
                           "wall_time_s", "cells"]
        assert [list(c) for c in d["cells"]] == [[
            "method", "m", "recon_mse", "pred_mse", "ae_loss_history",
            "lstm_loss_history", "eig_gap", "eig_multiplicity"]] * 2


class TestEmitPlot:
    def test_polyline_count_and_well_formed(self, tmp_path):
        path = tmp_path / "plot.svg"
        harness.emit_plot({"a": [(1, 0.5), (2, 0.25), (4, 0.2)],
                           "b": [(1, 0.4), (2, 0.3), (4, 0.1)]}, path)
        svg = path.read_text()
        root = ET.fromstring(svg)  # well-formed XML
        assert svg.count("<polyline") == 2

    def test_axis_range_covers_data(self, tmp_path):
        path = tmp_path / "plot.svg"
        curves = {"a": [(1, 0.5), (8, 0.125)], "b": [(2, 0.9), (6, 0.2)]}
        harness.emit_plot(curves, path)
        root = ET.fromstring(path.read_text())
        ns = {"svg": "http://www.w3.org/2000/svg"}
        area = root.find(".//svg:rect[@id='plot-area']", ns)
        x0, y0 = float(area.get("x")), float(area.get("y"))
        x1 = x0 + float(area.get("width"))
        y1 = y0 + float(area.get("height"))
        for poly in root.findall(".//svg:polyline", ns):
            for token in poly.get("points").split():
                px, py = map(float, token.split(","))
                assert x0 - 0.5 <= px <= x1 + 0.5
                assert y0 - 0.5 <= py <= y1 + 0.5

    @pytest.mark.parametrize("points, x_ticks, y_ticks", [
        ([(4, 0.5), (4, 0.25)], ["4", "5"], ["0.25", "0.5"]),  # one m
        ([(1, 0.5), (2, 0.5)], ["1", "2"], ["0.5", "1"]),      # one value
        ([(1, -0.5), (2, -0.5)], ["1", "2"], ["-0.5", "0"]),
        ([(1, 0.0), (2, 0.0)], ["1", "2"], ["0", "1"]),
    ])
    def test_flat_axis_gets_a_non_empty_range(self, tmp_path, points,
                                              x_ticks, y_ticks):
        # a flat axis spans [v, v + |v|], or [v, v + 1] at v = 0 or for m
        path = tmp_path / "plot.svg"
        harness.emit_plot({"a": points}, path)
        root = ET.fromstring(path.read_text())
        ns = {"svg": "http://www.w3.org/2000/svg"}
        ticks = [t.text for t in root.findall(".//svg:text[@font-size='11']",
                                              ns)]
        assert ticks == x_ticks + y_ticks

    def test_label_escaping_bytes_equal_saxutils(self, tmp_path):
        # the labels of a plot with markup characters are escaped exactly
        # as xml.sax.saxutils.escape does: &, < and > only
        pts = [(1, 0.5), (2, 0.25)]
        ylabel, name = "y&<>\"'3", "n&<>\"'4"
        harness.emit_plot({name: pts}, tmp_path / "a.svg", ylabel=ylabel)
        harness.emit_plot({"NAME": pts}, tmp_path / "b.svg", ylabel="YLABEL")
        expect = (tmp_path / "b.svg").read_text()
        for text, placeholder in ((ylabel, "YLABEL"), (name, "NAME")):
            assert expect.count(f">{placeholder}<") == 1
            expect = expect.replace(f">{placeholder}<",
                                    f">{xml_escape(text)}<")
        assert (tmp_path / "a.svg").read_bytes() == expect.encode()
        ET.fromstring(expect)

    def test_svg_is_utf8_under_an_ascii_locale(self, tmp_path):
        # an SVG without an XML declaration is read as UTF-8, so it is
        # written as UTF-8 whatever the locale's encoding
        code = ("import sys\n"
                "from gtslatent import harness\n"
                "harness.emit_plot({'\\u00b5': [(1, 0.5), (2, 0.25)]},"
                " sys.argv[1], ylabel='MSE \\u00d7 10')\n")
        src = os.path.dirname(os.path.dirname(harness.__file__))
        path = tmp_path / "plot.svg"
        subprocess.run([sys.executable, "-c", code, str(path)], check=True,
                       env={**os.environ, "PYTHONPATH": src, "LC_ALL": "C",
                            "PYTHONUTF8": "0"})
        svg = path.read_bytes().decode("utf-8")
        assert ">\u00b5<" in svg and ">MSE \u00d7 10<" in svg

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            harness.emit_plot({}, tmp_path / "x.svg")
        with pytest.raises(ValueError):
            harness.emit_plot({"a": [(1, 2)]}, tmp_path / "x.svg")


class TestFullMethodMatrix:
    def test_all_five_methods_predict(self):
        cfg = _tiny_config(methods=["gft-grid", "gft-geo", "gft-corr",
                                    "ae", "raw"],
                           latent_dims=[4], keep_fraction=0.1,
                           latent_scale="auto")
        report = harness.run_prediction_experiment(harness.config_from_dict(cfg))
        methods = [c.method for c in report.cells]
        assert methods == ["gft-grid", "gft-geo", "gft-corr", "ae", "raw"]
        for cell in report.cells:
            assert np.isfinite(cell.pred_mse) and np.isfinite(cell.recon_mse)

    def test_stl10_source_feeds_pipeline(self, tmp_path):
        # synthesise a small STL-10 binary from textured images and run
        # the crop->encode->predict pipeline on it (no eigensolver
        # methods: ae/raw keep the 45x45-crop test fast)
        images = data.generate_textured_images(6, 96, 96, seed=77)
        rgb = np.clip((images + 1.0) * 127.5, 0, 255).astype(np.uint8)
        path = tmp_path / "train_X.bin"
        with open(path, "wb") as fh:
            for img in rgb:
                plane = np.ascontiguousarray(img.T).tobytes()
                fh.write(plane * 3)  # equal R, G, B planes
        cfg = _tiny_config(
            dataset={"type": "moving_crop",
                     "source": {"type": "stl10", "path": str(path)},
                     "crop": 45, "frames": 5, "sequences": 6},
            methods=["ae"], latent_dims=[20], warmup=2,
            ae_schedule={"epochs": 2, "batch_size": 10, "lr0": 0.01},
            lstm_schedule={"epochs": 1, "batch_size": 2, "lr0": 0.001})
        report = harness.run_prediction_experiment(harness.config_from_dict(cfg))
        assert [c.m for c in report.cells] == [20]
        assert report.cells[0].recon_mse < np.mean(
            harness.build_dataset(harness.config_from_dict(cfg)).frames() ** 2)
        assert np.isfinite(report.cells[0].pred_mse)


class TestDatasetFiles:
    def test_save_and_load_dataset(self, tmp_path):
        config = harness.config_from_dict(_tiny_config())
        dataset = harness.build_dataset(config)
        data.save_dataset(tmp_path / "dataset.npy", dataset)
        assert data.load_array(tmp_path / "dataset.npy").shape == (10, 6, 6, 6)
        loaded = data.load_dataset(tmp_path / "dataset.npy")
        assert loaded.frame_shape == dataset.frame_shape == (6, 6)
        assert loaded.sequences.tobytes() == dataset.sequences.tobytes()

    def test_file_dataset_feeds_experiment(self, tmp_path):
        config = harness.config_from_dict(_tiny_config())
        data.save_dataset(tmp_path / "dataset.npy",
                          harness.build_dataset(config))
        cfg = _tiny_config(dataset={"type": "file",
                                    "path": str(tmp_path / "dataset.npy")},
                           methods=["gft-grid"], latent_dims=[4])
        report = harness.run_reconstruction_experiment(
            harness.config_from_dict(cfg))
        assert np.isfinite(report.cells[0].recon_mse)


class TestCli:
    def _write_config(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_gen_data(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, _tiny_config())
        code = cli.main(["gen-data", "--config", cfg_path,
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert os.listdir(tmp_path / "out") == ["dataset.npy"]
        assert capsys.readouterr().out.endswith(
            f"  dataset: {tmp_path / 'out' / 'dataset.npy'}\n")

    @pytest.mark.parametrize("command", ["reconstruct", "predict"])
    def test_file_dataset_reports_what_the_direct_run_does(self, tmp_path,
                                                           capsys, command):
        # gen-data's file holds the frames bit for bit, so a run on it
        # reports exactly what a run that generates them does
        direct = _tiny_config(methods=["gft-grid", "gft-geo", "ae", "raw"],
                              latent_dims=[4, 9])
        path = tmp_path / "data" / "dataset.npy"
        from_file = dict(direct, dataset={"type": "file", "path": str(path)})

        def run(subcommand, cfg, out):
            return cli.main([subcommand, "--config",
                             self._write_config(tmp_path, cfg),
                             "--out", str(tmp_path / out)])
        assert run("gen-data", direct, "data") == 0
        assert run(command, direct, "direct") == 0
        assert run(command, from_file, "file") == 0
        assert ((tmp_path / "direct" / "report.csv").read_bytes()
                == (tmp_path / "file" / "report.csv").read_bytes())

    def test_key_error_propagates(self, tmp_path, capsys, monkeypatch):
        # no config or I/O error raises KeyError, so one is a bug and
        # shows its traceback instead of a one-line diagnostic
        def broken(config):
            raise KeyError("x")
        monkeypatch.setattr(harness, "build_dataset", broken)
        cfg_path = self._write_config(tmp_path, _tiny_config())
        with pytest.raises(KeyError, match="x"):
            cli.main(["gen-data", "--config", cfg_path,
                      "--out", str(tmp_path / "out")])
        assert capsys.readouterr().err == ""

    def test_reconstruct_writes_report_and_plot(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, _tiny_config(
            methods=["gft-grid", "ae"], latent_dims=[4, 9]))
        code = cli.main(["reconstruct", "--config", cfg_path,
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "report.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "recon_mse.svg").exists()

    def test_rerun_without_a_plot_removes_the_old_one(self, tmp_path, capsys):
        # an output directory describes one run: a one-point rerun draws
        # no plot, so the two-point plot of the first run must go
        out = str(tmp_path / "out")
        for dims in ([2, 4], [4]):
            cfg_path = self._write_config(tmp_path, _tiny_config(
                methods=["gft-grid"], latent_dims=dims))
            assert cli.main(["reconstruct", "--config", cfg_path,
                             "--out", out]) == 0
            printed = capsys.readouterr().out
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "report.csv", "report.json"]
        assert "plot:" not in printed

    def test_out_holds_one_run(self, tmp_path, capsys):
        # reconstruct and predict write or remove each of their five
        # file names, so no file of an earlier run outlives its report;
        # every other file in --out, even one named like an old
        # per-cell dump, is left as it is
        out = tmp_path / "out"
        assert cli.main(["gen-data", "--config", self._write_config(
            tmp_path, _tiny_config()), "--out", str(out)]) == 0
        (out / "notes.txt").write_text("mine", encoding="utf-8")
        (out / "pred_ae_m4.npy").write_bytes(b"an older version's dump")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        steps = [  # command, latent_dims, its own files
            ("predict", [4, 9], ["pred_mse.svg", "predictions.npy"]),
            ("predict", [9], ["predictions.npy"]),
            ("reconstruct", [4, 9], ["recon_mse.svg"]),
            ("predict", [4, 9], ["pred_mse.svg", "predictions.npy"]),
            ("reconstruct", [9], []),
        ]
        for command, dims, written in steps:
            cfg_path = self._write_config(tmp_path, _tiny_config(
                methods=["gft-grid", "raw"], latent_dims=dims))
            assert cli.main([command, "--config", cfg_path,
                             "--out", str(out)]) == 0
            expected = [*before, "report.csv", "report.json", *written]
            assert sorted(os.listdir(out)) == sorted(expected), (command, dims)
            rows = len((out / "report.csv").read_text().splitlines()) - 1
            if command == "predict":
                assert len(data.load_array(out / "predictions.npy")) == rows
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_library_call_rewrites_a_cli_run(self, tmp_path, capsys):
        # emit_report alone writes a run directory, so a library caller
        # leaves no file of an earlier CLI run behind either
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("mine", encoding="utf-8")
        cfg = _tiny_config(methods=["gft-grid", "raw"], latent_dims=[4, 9])
        assert cli.main(["reconstruct", "--config",
                         self._write_config(tmp_path, cfg),
                         "--out", str(out)]) == 0
        assert "recon_mse.svg" in os.listdir(out)
        report = harness.run_prediction_experiment(
            harness.config_from_dict(cfg))
        paths = harness.emit_report(report, out)
        assert list(paths) == ["json", "csv", "predictions", "plot"]
        assert paths["plot"] == str(out / "pred_mse.svg")
        assert sorted(os.listdir(out)) == sorted(
            ["notes.txt", *(Path(path).name for path in paths.values())])
        assert (out / "notes.txt").read_text(encoding="utf-8") == "mine"

    def test_predict_runs(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, _tiny_config(
            methods=["gft-grid", "raw"], latent_dims=[4]))
        code = cli.main(["predict", "--config", cfg_path,
                         "--out", str(tmp_path / "out")])
        assert code == 0
        csv = (tmp_path / "out" / "report.csv").read_text()
        assert "gft-grid" in csv and "raw" in csv

    def test_seed_override_changes_report(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, _tiny_config(
            methods=["gft-geo"], latent_dims=[4]))
        assert cli.main(["reconstruct", "--config", cfg_path,
                         "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["reconstruct", "--config", cfg_path, "--seed", "77",
                         "--out", str(tmp_path / "b")]) == 0
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert a["seed"] == 11 and b["seed"] == 77
        assert (a["cells"][0]["recon_mse"] != b["cells"][0]["recon_mse"])

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, _tiny_config(methods=["nope"]))
        assert cli.main(["reconstruct", "--config", cfg_path,
                         "--out", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("latent_dims", 4), ("seed", None), ("latent_dims", [4.7]),
        ("methods", "ae"), ("methods", 5), ("dataset", 3), ("ae_schedule", 3),
        ("ae_schedule", _schedule(epochs=None)), ("train_fraction", None),
        ("warmup", 2.0), ("grad_clip", -1.0),  # grad_clip: an unknown key
        ("dataset", _crop_block(crop=6.9)), ("dataset", _crop_block(count=2.5)),
    ])
    def test_malformed_types_exit_nonzero(self, tmp_path, capsys, key, value):
        cfg_path = self._write_config(tmp_path, _tiny_config(**{key: value}))
        assert cli.main(["reconstruct", "--config", cfg_path,
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "out").exists()

    def test_unknown_key_exits_before_any_work(self, tmp_path, capsys,
                                               monkeypatch):
        # with no --out the default ./gtslatent-out would be created;
        # an unknown key (out_dir is not a key) stops the run first
        monkeypatch.chdir(tmp_path)
        cfg_path = self._write_config(tmp_path, _tiny_config(out_dir=5))
        assert cli.main(["reconstruct", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "out_dir" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("raw, seed", [
        (5, None), (None, None), ([1, 2], "3"), ([1, 2], None),
    ])
    def test_non_object_config_exits_nonzero(self, tmp_path, capsys, raw,
                                             seed):
        cfg_path = self._write_config(tmp_path, raw)
        argv = ["reconstruct", "--config", cfg_path,
                "--out", str(tmp_path / "out")]
        if seed is not None:
            argv += ["--seed", seed]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: config must be an object, got {raw!r}\n"
        assert not (tmp_path / "out").exists()

    def test_oversized_csv_field_is_a_one_line_error(self, tmp_path, capsys):
        # over the csv module's field size limit (131072 characters)
        path = tmp_path / "series.csv"
        path.write_text('1,2\n"' + "1" * 140000 + '",3\n')
        cfg_path = self._write_config(tmp_path, _tiny_config(
            dataset={"type": "csv", "path": str(path), "frames": 2},
            methods=["gft-corr"], latent_dims=[1]))
        assert cli.main(["reconstruct", "--config", cfg_path,
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "row 2" in err and "field larger than field limit" in err

    def test_oversized_npy_header_is_a_one_line_error(self, tmp_path,
                                                      capsys):
        # the header claims 8 TB; the file holds 64 bytes of data
        path = tmp_path / "dataset.npy"
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False,
                     "shape": (10**4, 10**4, 10**4)})
        path.write_bytes(header.getvalue() + bytes(64))
        cfg_path = self._write_config(tmp_path, _tiny_config(
            dataset={"type": "file", "path": str(path)},
            methods=["gft-grid"], latent_dims=[4]))
        assert cli.main(["reconstruct", "--config", cfg_path,
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert "claims 8000000000000 bytes of array data" in err
        assert not (tmp_path / "out").exists()

    def test_diverging_ae_is_a_one_line_error(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, _tiny_config(
            methods=["ae"], latent_dims=[4],
            ae_schedule={"epochs": 3, "batch_size": 10, "lr0": 1e300}))
        assert cli.main(["reconstruct", "--config", cfg_path,
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: codec matrix contains non-finite entries\n")

    def test_diverging_lstm_is_a_one_line_error(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, _tiny_config(
            methods=["raw"], latent_dims=[],
            lstm_schedule={"epochs": 3, "batch_size": 3, "lr0": 1e308}))
        assert cli.main(["predict", "--config", cfg_path,
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: w_x contains non-finite entries\n")

    @pytest.mark.parametrize("command", ["gen-data", "reconstruct"])
    def test_bad_dataset_block_makes_no_out_dir(self, tmp_path, capsys,
                                                monkeypatch, command):
        # the dataset block is checked with the rest of the config, so
        # the run stops before it creates --out (not after, removing it)
        made, makedirs = [], os.makedirs

        def recording_makedirs(path, *args, **kwargs):
            made.append(path)
            return makedirs(path, *args, **kwargs)
        monkeypatch.setattr(cli.os, "makedirs", recording_makedirs)
        cfg_path = self._write_config(tmp_path, _tiny_config(
            dataset=_crop_source(type="textured", heigth=12)))
        assert cli.main([command, "--config", cfg_path,
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: dataset source has unknown key 'heigth'")
        assert made == []

    def test_empty_out_rejected(self, tmp_path, capsys, monkeypatch):
        # "" used to fall back to ./gtslatent-out and write there
        cfg_path = self._write_config(tmp_path, _tiny_config())
        monkeypatch.chdir(tmp_path)
        assert cli.main(["gen-data", "--config", cfg_path, "--out", ""]) == 1
        assert (capsys.readouterr().err
                == "error: --out must be a non-empty path, got ''\n")
        assert not (tmp_path / "gtslatent-out").exists()

    def test_unusable_out_fails_before_any_work(self, tmp_path, capsys):
        # --out under a regular file: the run must not train and cache
        # first and only then fail to write its report
        (tmp_path / "file").write_text("")
        cache = tmp_path / "cache"
        cfg_path = self._write_config(tmp_path, _tiny_config(
            methods=["ae"], latent_dims=[4], codec_cache_dir=str(cache)))
        assert cli.main(["reconstruct", "--config", cfg_path,
                         "--out", str(tmp_path / "file" / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Not a directory" in err
        assert list(cache.glob("*")) == []

    def test_failed_run_keeps_an_existing_out_dir(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        cfg_path = self._write_config(tmp_path, _tiny_config(
            dataset={"type": "mystery"}))
        assert cli.main(["reconstruct", "--config", cfg_path,
                         "--out", str(tmp_path / "out")]) == 1
        assert (tmp_path / "out").is_dir()

    def test_config_read_as_utf8_in_any_locale(self, tmp_path):
        # RFC 8259: JSON text is UTF-8, whatever the locale's encoding
        cfg_path = tmp_path / "config.json"
        cfg_path.write_bytes(json.dumps(
            _tiny_config(dataset={"type": "\u00e9"}),
            ensure_ascii=False).encode("utf-8"))
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C",
               "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        out = subprocess.run(
            [sys.executable, "-m", "gtslatent.cli", "reconstruct",
             "--config", str(cfg_path), "--out", str(tmp_path / "out")],
            capture_output=True, env=env)
        assert out.returncode == 1
        assert out.stderr.startswith(b"error: unknown dataset type")

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["reconstruct", "--config",
                         str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "out")]) == 1


class TestCliRejectsBeforeAnyWork:
    """Each malformed config gives one ``error:`` line naming the key."""

    def _main(self, tmp_path, capsys, cfg, command="reconstruct"):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli.main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        return err

    @pytest.mark.parametrize("old, new", [
        ('"seed": 11', '"seed": 1, "seed": 5'),
        ('"frames": 4', '"frames": 4, "frames": 6'),  # in dataset
        ('"lr0": 0.01', '"lr0": 0.01, "lr0": 0.02'),  # in ae_schedule
    ], ids=["seed", "frames", "lr0"])
    def test_duplicate_key(self, tmp_path, capsys, old, new):
        # json.load alone keeps a repeated key's last value, so the run
        # would silently use the one the file states second
        text = json.dumps(_tiny_config(dataset=_sprite_block()))
        assert text.count(old) == 1
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text.replace(old, new), encoding="utf-8")
        code = cli.main(["reconstruct", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        key = old.split('"')[1]
        assert (code, capsys.readouterr().err) == (
            1, f"error: config has duplicate key '{key}'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cfg, key", [
        (_tiny_config(lstm_shedule=_schedule()), "lstm_shedule"),
        (_tiny_config(lstm_schedule=_schedule(lr_milestone=[[1, 10]])),
         "lr_milestone"),
        (_tiny_config(dataset=_crop_block(sequencs=9)), "sequencs"),
        (_tiny_config(dataset={"type": "file", "path": "dataset.npy",
                               "meta": "dataset.json"}), "meta"),
        # a config written for gradient clipping fails instead of
        # silently training without it
        (_tiny_config(grad_clip=0.5), "grad_clip"),
        # every prediction run keeps its scored samples: no switch
        (_tiny_config(dump_predictions=True), "dump_predictions"),
    ])
    def test_unknown_keys(self, tmp_path, capsys, cfg, key):
        assert f"unknown key {key!r}" in self._main(tmp_path, capsys, cfg,
                                                    "predict")

    def test_non_object_source(self, tmp_path, capsys):
        err = self._main(tmp_path, capsys,
                         _tiny_config(dataset={**_crop_block(), "source": 5}))
        assert err == "error: dataset source must be an object, got 5\n"

    @pytest.mark.parametrize("dims", [(4, 6), (1, 2, 3, 2, 2)])
    def test_file_dataset_of_other_rank(self, tmp_path, capsys, dims):
        path = tmp_path / "data.npy"
        np.save(path, np.zeros(dims))
        err = self._main(tmp_path, capsys, _tiny_config(dataset={
            "type": "file", "path": str(path)}))
        assert err.startswith(f"error: {path}: a dataset tensor has rank 3")

    def test_duplicate_latent_dims(self, tmp_path, capsys):
        err = self._main(tmp_path, capsys, _tiny_config(latent_dims=[4, 4]))
        assert err == "error: duplicate latent_dims in config\n"

    def test_non_finite_latent_scale(self, tmp_path, capsys):
        err = self._main(tmp_path, capsys,
                         _tiny_config(latent_scale=float("nan")), "predict")
        assert err == 'error: latent_scale must be "auto", got nan\n'


def test_cli_import_leaves_urllib_request_unloaded():
    # every CLI start and bench set-up process pays for what importing
    # the package loads; urllib.request drags in http, email and ssl,
    # and hashlib's OpenSSL backend (_hashlib) adds several MB of RSS
    code = ("import sys, gtslatent.cli; print([m for m in "
            "('urllib.request', '_hashlib', 'ssl') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_cli_writes_no_file_in_the_locale_encoding(tmp_path):
    # an open() or write_text() without an encoding would depend on the
    # locale; with this guard such a call ends the run in an error
    cfg = _tiny_config(methods=["gft-grid", "ae", "raw"], latent_dims=[4, 9],
                       codec_cache_dir=str(tmp_path / "cache"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    for command in ("reconstruct", "predict"):
        out = tmp_path / command
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "gtslatent.cli", command,
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert (out / "report.csv").exists()
    assert (tmp_path / "predict" / "predictions.npy").exists()
    assert len(list((tmp_path / "cache").iterdir())) == 2


_SHIPPED_CONFIGS = sorted(
    Path(__file__).resolve().parent.parent.glob("configs/*.json"))


def _load_config(path):
    return harness.config_from_dict(json.loads(
        Path(path).read_text(encoding="utf-8")))


# prints, per shipped config, its config_hash and the codec-cache file
# name of its AE at every m for fixed training frames; argv: cache dir,
# then config paths
_DIGESTS_CODE = """
import json, sys
import numpy as np
from gtslatent import harness
frames = np.linspace(-1.0, 1.0, 2 * 3 * 256).reshape(2, 3, 256)
out = []
for path in sys.argv[2:]:
    raw = json.load(open(path))
    raw["codec_cache_dir"] = sys.argv[1]
    config = harness.config_from_dict(raw)
    out.append([harness.config_hash(config)] + [
        entry.name for entry in harness._cache_files(config, frames).values()])
print(json.dumps(out))
"""


def _shipped_digests(tmp_path, prelude=""):
    """What _DIGESTS_CODE prints in a fresh interpreter after ``prelude``."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    out = subprocess.run(
        [sys.executable, "-c", prelude + _DIGESTS_CODE, str(tmp_path)]
        + [str(p) for p in _SHIPPED_CONFIGS],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    return json.loads(out.stdout)


def test_shipped_config_digests_equal_hashlib(tmp_path):
    assert _SHIPPED_CONFIGS
    for path in _SHIPPED_CONFIGS:
        config = _load_config(path)
        blob = json.dumps(config.source, sort_keys=True,
                          separators=(",", ":"))
        assert (harness.config_hash(config)
                == hashlib.sha256(blob.encode()).hexdigest())
    # every cache file name too: the same with hashlib's sha256 swapped in
    prelude = ("import hashlib, gtslatent.harness\n"
               "gtslatent.harness._sha256 = hashlib.sha256\n")
    assert _shipped_digests(tmp_path) == _shipped_digests(tmp_path, prelude)


def test_digests_fall_back_to_hashlib(tmp_path):
    # without the builtin modules the harness must hash with hashlib,
    # and every digest must stay the same
    prelude = ("import sys, hashlib\n"
               "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
               "import gtslatent.harness\n"
               "assert gtslatent.harness._sha256 is hashlib.sha256\n")
    assert _shipped_digests(tmp_path, prelude) == _shipped_digests(tmp_path)
