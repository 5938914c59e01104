import concurrent.futures
import json
import multiprocessing
import os
import shutil
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gtslatent import cli, data, graphs, harness, linalg, spectral


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


def _crop_block(count=10, height=12, width=12, waves=6, min_cycles=1.5,
                max_cycles=4.0, **fields):
    """The tiny moving-crop dataset block with some fields replaced."""
    source = {"type": "textured", "count": count, "height": height,
              "width": width, "waves": waves, "min_cycles": min_cycles,
              "max_cycles": max_cycles}
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

    def test_bad_latent_scale(self):
        with pytest.raises(ValueError):
            harness.config_from_dict(_tiny_config(latent_scale="always"))
        with pytest.raises(ValueError):
            harness.config_from_dict(_tiny_config(latent_scale=-1.0))
        harness.config_from_dict(_tiny_config(latent_scale="auto"))
        harness.config_from_dict(_tiny_config(latent_scale=2.5))

    def test_unknown_dataset_type(self):
        config = harness.config_from_dict(
            _tiny_config(dataset={"type": "mystery"}))
        with pytest.raises(ValueError, match="mystery"):
            harness.build_dataset(config)

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
        ("grad_clip", True), ("latent_scale", True),
        ("dump_predictions", "no"), ("dump_predictions", 1),
        ("codec_cache_dir", 5),
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
        (_crop_block(waves=2.5), "dataset source waves"),
        (_crop_block(min_cycles="1.5"), "dataset source min_cycles"),
        (_crop_block(max_cycles=True), "dataset source max_cycles"),
    ])
    def test_malformed_dataset_fields_rejected(self, block, label):
        config = harness.config_from_dict(_tiny_config(dataset=block))
        with pytest.raises(ValueError, match=f"{label} must be"):
            harness.build_dataset(config)

    @pytest.mark.parametrize("grad_clip", [-1.0, 0.0, float("nan")])
    def test_non_positive_grad_clip_rejected(self, grad_clip):
        with pytest.raises(ValueError, match="grad_clip must be positive"):
            harness.config_from_dict(_tiny_config(grad_clip=grad_clip))
        harness.config_from_dict(_tiny_config(grad_clip=0.5))

    def test_hash_ignores_formatting_only(self):
        a = harness.config_from_dict(_tiny_config())
        b = harness.config_from_dict(json.loads(json.dumps(_tiny_config())))
        assert harness.config_hash(a) == harness.config_hash(b)


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

    def test_latent_dim_exceeding_n(self):
        cfg = _tiny_config(latent_dims=[37])
        with pytest.raises(ValueError, match="exceeds"):
            harness.run_reconstruction_experiment(harness.config_from_dict(cfg))

    def test_warmup_too_large_for_sequences(self):
        cfg = _tiny_config(warmup=6)
        with pytest.raises(ValueError, match="warmup"):
            harness.run_prediction_experiment(harness.config_from_dict(cfg))


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
        basis = spectral.compute_basis(lap, 5)
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

    def test_latent_scale_auto_and_dump(self, tmp_path):
        cfg = _tiny_config(latent_dims=[4], latent_scale="auto",
                           dump_predictions=True, methods=["gft-grid", "raw"])
        report = harness.run_prediction_experiment(harness.config_from_dict(cfg))
        paths = harness.emit_report(report, tmp_path)
        assert (tmp_path / "pred_gft-grid_m4.gts").exists()
        dims, values = data.load_tensor(tmp_path / "pred_gft-grid_m4.gts")
        assert dims == (4, 36)  # T - warmup free-run frames, n pixels

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

    def test_cache_key_holds_only_determining_fields(self, tmp_path):
        base = _tiny_config(methods=["gft-grid", "gft-geo"], latent_dims=[4],
                            codec_cache_dir=str(tmp_path / "cache"))
        other = dict(base, keep_fraction=0.3,
                     ae_schedule=dict(base["ae_schedule"], epochs=3))
        a = harness.config_from_dict(base)
        b = harness.config_from_dict(other)
        for kind in ("gft-grid", "gft-geo"):
            assert (harness._cache_file(a, kind, 36, 36)
                    == harness._cache_file(b, kind, 36, 36))
        for kind in ("gft-corr", "ae"):
            assert (harness._cache_file(a, kind, 36, 36)
                    != harness._cache_file(b, kind, 36, 36))
        # a cache filled under another ae_schedule serves b like a cold run
        harness.run_reconstruction_experiment(a)
        warm = harness.run_reconstruction_experiment(b)
        cold = harness.run_reconstruction_experiment(harness.config_from_dict(
            dict(other, codec_cache_dir=str(tmp_path / "cold"))))
        harness.emit_report(warm, tmp_path / "warm")
        harness.emit_report(cold, tmp_path / "cold-out")
        assert ((tmp_path / "warm" / "report.csv").read_bytes()
                == (tmp_path / "cold-out" / "report.csv").read_bytes())

    def test_basis_format_version_changes_spectral_keys(self, tmp_path,
                                                        monkeypatch):
        config = harness.config_from_dict(
            _tiny_config(codec_cache_dir=str(tmp_path)))
        before = {kind: harness._cache_file(config, kind, 36, 36)
                  for kind in ("gft-grid", "gft-corr", "ae")}
        monkeypatch.setattr(harness, "_BASIS_FORMAT",
                            harness._BASIS_FORMAT + 1)
        after = {kind: harness._cache_file(config, kind, 36, 36)
                 for kind in before}
        assert before["gft-grid"] != after["gft-grid"]
        assert before["gft-corr"] != after["gft-corr"]
        assert before["ae"] == after["ae"]

    def test_truncated_entries_are_recomputed(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        config = harness.config_from_dict(_tiny_config(
            methods=["gft-grid", "ae"], latent_dims=[4],
            codec_cache_dir=str(cache)))
        harness.emit_report(harness.run_reconstruction_experiment(config),
                            tmp_path / "cold")
        entries = sorted(cache.iterdir())
        assert [e.name.split("_")[0] for e in entries] == ["ae", "gft-grid"]
        sizes = [e.stat().st_size for e in entries]
        for entry in entries:  # as an interrupted write would leave them
            entry.write_bytes(entry.read_bytes()[:entry.stat().st_size // 2])
        capsys.readouterr()
        harness.emit_report(harness.run_reconstruction_experiment(config),
                            tmp_path / "rerun")
        assert capsys.readouterr().err.count("warning: ignoring") == 2
        assert [e.stat().st_size for e in entries] == sizes
        assert sorted(cache.iterdir()) == entries  # no temp files left
        assert ((tmp_path / "cold" / "report.csv").read_bytes()
                == (tmp_path / "rerun" / "report.csv").read_bytes())


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
        loaded = harness.report_from_dict(raw)
        for a, b in zip(loaded.cells, report.cells):
            assert a.eig_gap == b.eig_gap
            assert a.eig_multiplicity == b.eig_multiplicity
        assert "eig" not in (tmp_path / "report.csv").read_text()

    def test_reports_without_diagnostics_still_load(self):
        config = harness.config_from_dict(_tiny_config(methods=["gft-grid"],
                                                       latent_dims=[4]))
        d = harness.report_to_dict(harness.run_reconstruction_experiment(config))
        for cell in d["cells"]:
            del cell["eig_gap"], cell["eig_multiplicity"]
        loaded = harness.report_from_dict(d)
        assert loaded.cells[0].eig_gap is None
        assert loaded.cells[0].eig_multiplicity is None


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
            keep_fraction=0.1, latent_scale="auto", dump_predictions=True,
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
            assert "pred_ae_m9.gts" in one[1]
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
        loaded = harness.report_from_dict(
            json.loads((tmp_path / "report.json").read_text()))
        assert loaded.kind == report.kind
        assert loaded.seed == report.seed
        assert loaded.config_hash == report.config_hash
        for a, b in zip(loaded.cells, report.cells):
            assert a.method == b.method and a.m == b.m
            assert a.recon_mse == b.recon_mse and a.pred_mse == b.pred_mse


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
        rgb = np.clip((images.pixels + 1.0) * 127.5, 0, 255).astype(np.uint8)
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
        harness.save_dataset(dataset, tmp_path)
        loaded = harness.load_dataset(tmp_path / "dataset.gts")
        assert loaded.frame_shape == dataset.frame_shape
        expect = dataset.sequences.astype(np.float32).astype(np.float64)
        assert np.array_equal(loaded.sequences, expect)

    def test_file_dataset_feeds_experiment(self, tmp_path):
        config = harness.config_from_dict(_tiny_config())
        harness.save_dataset(harness.build_dataset(config), tmp_path)
        cfg = _tiny_config(dataset={"type": "file",
                                    "path": str(tmp_path / "dataset.gts")},
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
        assert (tmp_path / "out" / "dataset.gts").exists()
        assert (tmp_path / "out" / "dataset.json").exists()

    def test_reconstruct_writes_report_and_plot(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, _tiny_config(
            methods=["gft-grid", "ae"], latent_dims=[4, 9]))
        code = cli.main(["reconstruct", "--config", cfg_path,
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "report.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "recon_mse.svg").exists()

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
        ("dump_predictions", "no"), ("grad_clip", -1.0),
        ("dataset", _crop_block(crop=6.9)), ("dataset", _crop_block(waves=2.5)),
    ])
    def test_malformed_types_exit_nonzero(self, tmp_path, capsys, key, value):
        cfg_path = self._write_config(tmp_path, _tiny_config(**{key: value}))
        assert cli.main(["reconstruct", "--config", cfg_path,
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["reconstruct", "--config",
                         str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "out")]) == 1
