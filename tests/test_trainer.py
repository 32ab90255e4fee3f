import dataclasses
import re
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from basinscope import dataops, trainer
from basinscope.criticality import CriticalityConfig, criticality_map, rewind_probe
from basinscope.dataops import Dataset, domain_spec, generate
from basinscope.errors import DivergedRunError, DomainError, SizeError
from basinscope.landscape import barrier_curve
from basinscope.model import TINY4, ArchDescriptor, ParamVector, backward, init_random
from basinscope.rng import RngStream
from basinscope.similarity import similarity_report
from basinscope.trainer import (
    Checkpoint,
    DataSpec,
    InitSpec,
    RunRecord,
    TrainConfig,
    _evaluate_all,
    checkpoint_sweep,
    config_hash,
    evaluate,
    lr_at,
    make_datasets,
    train,
)

SRC = str(Path(trainer.__file__).parents[1])

FAST = ArchDescriptor((8, 8, 3), ((6, 3, 2),), (16,), 10)


def small_data(seed=1, n_train=200, n_test=100):
    return DataSpec(domains=("source",), n_train=n_train, n_test=n_test, seed=seed)


def small_config(**kw):
    defaults = dict(
        arch=TINY4,
        data=small_data(),
        epochs=2,
        batch_size=50,
        lr_schedule=((0, 0.05),),
        seed=1,
        init=InitSpec("random", seed=1),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestConfig:
    def test_lr_schedule_must_increase(self):
        with pytest.raises(DomainError):
            small_config(lr_schedule=((0, 0.05), (0, 0.01)))
        with pytest.raises(DomainError):
            small_config(lr_schedule=((5, 0.05),))
        with pytest.raises(DomainError):
            small_config(lr_schedule=((0, 0.05), (30, 0.005), (20, 0.001)))
        default = TrainConfig(TINY4, DataSpec(("source",)), 3)
        assert default.lr_schedule == ((0, 0.05), (30, 0.005))
        paper_decay = ((0, 0.05), (30, 0.005), (60, 0.0005))
        assert small_config(lr_schedule=paper_decay).lr_schedule == paper_decay

    def test_lr_at_piecewise_constant(self):
        sched = ((0, 0.05), (30, 0.005), (60, 0.0005))
        assert lr_at(sched, 0) == 0.05
        assert lr_at(sched, 29) == 0.05
        assert lr_at(sched, 30) == 0.005
        assert lr_at(sched, 75) == 0.0005

    def test_hash_changes_with_config(self):
        a = small_config()
        b = small_config(seed=2)
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(small_config())

    @pytest.mark.parametrize(
        "bad",
        [
            dict(batch_size=0),
            dict(epochs=-1),
            dict(lr_schedule=((0, 0.0),)),
            dict(lr_schedule=((0, 0.05), (1, -0.01))),
            dict(momentum=-0.1),
            dict(momentum=1.0),
            dict(weight_decay=-1e-4),
            dict(clip_grad_norm=0.0),
            dict(clip_grad_norm=-1.0),
            dict(checkpoint_epochs=(3,)),
            dict(checkpoint_epochs=(-1,)),
            dict(epochs=2.5),
            dict(batch_size="50"),
        ],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_out_of_range_fields_rejected(self, bad):
        with pytest.raises(DomainError):
            small_config(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(domains=("source", "cartoon")),
            dict(shuffle_block=3),
            dict(shuffle_block=0),
            dict(n_train=0),
            dict(n_test=0),
            dict(n_train=2.5),
            dict(shuffle_block=np.float64(4.0)),
            dict(shuffle_seed=3),
            dict(shared_permutation=True),
            dict(domains=()),
            dict(domains=("source", "clipart_like")),
            dict(domains=("cartoon",)),
        ],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_impossible_data_spec_rejected(self, bad):
        with pytest.raises(DomainError):
            DataSpec(**{"domains": ("source",), **bad})

    @pytest.mark.parametrize("name", ["source", "s"])
    def test_bare_domain_name_rejected_naming_the_tuple_form(self, name):
        """A bare str was taken as a tuple of its letters: "source" read
        "need exactly one domain, got 6"."""
        with pytest.raises(DomainError, match=re.escape(f"such as ({name!r},), not a str")):
            DataSpec(name)

    @pytest.mark.parametrize("bad", [dict(kind="random", path="p.llck"), dict(kind="checkpoint", seed=3)], ids=["random+path", "checkpoint+seed"])
    def test_init_field_of_the_other_kind_rejected(self, bad):
        """Each was validated and then ignored."""
        with pytest.raises(DomainError):
            InitSpec(**bad)

    def test_unknown_init_kind_rejected(self):
        with pytest.raises(DomainError, match="init kind must be one of random, checkpoint"):
            InitSpec("pretrained")

    def test_shuffled_data_spec_shuffles_both_splits(self):
        plain = make_datasets(small_data(n_train=20, n_test=10))
        spec = DataSpec(("source",), n_train=20, n_test=10, seed=1, shuffle_block=4, shuffle_seed=2)
        for got, ds in zip(make_datasets(spec), plain, strict=True):
            want = dataops.apply_shuffle(ds, dataops.ShuffleSpec(4, 2))
            assert np.array_equal(got.images, want.images) and np.array_equal(got.labels, ds.labels)
            assert not np.array_equal(got.images, ds.images)

    def test_fields_used_by_their_kind_construct(self):
        assert InitSpec("random", seed=3).seed == 3
        assert InitSpec("checkpoint", path="p.llck").path == "p.llck"
        spec = DataSpec(("source",), shuffle_block=4, shuffle_seed=3, shared_permutation=True)
        assert (spec.shuffle_block, spec.shuffle_seed, spec.shared_permutation) == (4, 3, True)

    def test_config_hash_pinned(self):
        config = TrainConfig(TINY4, DataSpec(("source",)), 3)
        assert config_hash(config) == "ffc27f5885ca862ffde4308495df698b4ffd48a113395f80801425250e2be992"

    def test_numpy_integer_fields_stored_as_int(self):
        i = np.int64
        data = DataSpec(("source",), n_train=i(200), n_test=i(100), seed=i(1), shuffle_block=i(4), shuffle_seed=i(2))
        config = small_config(data=data, epochs=i(2), batch_size=i(50), seed=i(1), init=InitSpec("random", seed=i(1)))
        want = small_config(data=DataSpec(("source",), 200, 100, 1, shuffle_block=4, shuffle_seed=2))
        assert config == want
        assert config_hash(config) == config_hash(want)
        fields = [data.n_train, data.n_test, data.seed, data.shuffle_block, data.shuffle_seed]
        assert all(type(v) is int for v in fields + [config.epochs, config.batch_size, config.seed, config.init.seed])


class TestEvaluate:
    def test_constant_logits_ties_to_class_zero(self):
        ds = generate(domain_spec("source"), "test", 100, 3)
        params = ParamVector.zeros(TINY4)
        res = evaluate(params, TINY4, ds)
        assert np.all(res.predictions == 0)
        assert res.accuracy == pytest.approx(0.1)

    def test_negative_label_rejected(self):
        ds = generate(domain_spec("source"), "test", 10, 4)
        ds.labels = ds.labels.copy()
        ds.labels[3] = -1
        with pytest.raises(DomainError):
            evaluate(ParamVector.zeros(TINY4), TINY4, ds)

    def test_empty_dataset_rejected(self):
        ds = generate(domain_spec("source"), "test", 10, 4)
        ds.images = ds.images[:0]
        ds.labels = ds.labels[:0]
        with pytest.raises(DomainError):
            evaluate(ParamVector.zeros(TINY4), TINY4, ds)

    @pytest.mark.parametrize("n_images", [100, 305])
    def test_images_must_match_labels(self, n_images):
        """Scores of 100 images against 300 labels once read accuracy 0.03
        from an uninitialised predictions array; 305 images raised numpy's
        IndexError."""
        ds = generate(domain_spec("source"), "train", 300, 0)
        images = np.concatenate([ds.images, ds.images])[:n_images]
        with pytest.raises(SizeError, match="the 300 labels"):
            evaluate(init_random(TINY4, RngStream(1)), TINY4, Dataset(images, ds.labels, "train", {}))


class TestTrain:
    def test_zero_epochs_returns_init(self):
        cfg = small_config(epochs=0)
        final, record, saved = train(cfg)
        assert final.params.equals(init_random(TINY4, RngStream(1)))
        assert record.rows == []
        assert record.optimization_speed == 0.0
        assert len(saved) == 1

    def test_deterministic_rerun(self):
        cfg = small_config()
        a, rec_a, _ = train(cfg)
        b, rec_b, _ = train(cfg)
        assert a.params.equals(b.params)
        assert rec_a.rows == rec_b.rows

    def test_train_metrics_match_post_hoc_evaluate(self):
        cfg = small_config(epochs=1)
        train_ds, test_ds = make_datasets(cfg.data)
        final, record, _ = train(cfg, datasets=(train_ds, test_ds))
        res = evaluate(final.params, TINY4, train_ds)
        assert record.rows[-1]["train_loss"] == pytest.approx(res.loss, abs=1e-6)
        assert record.rows[-1]["train_acc"] == pytest.approx(res.accuracy, abs=1e-6)

    def test_batch_order_independent_of_init(self):
        # identical config.seed, different init: same batch order means the
        # first-step gradients are computed on identical batches
        data = small_data()
        cfg_a = small_config(data=data, init=InitSpec("random", seed=10))
        cfg_b = small_config(data=data, init=InitSpec("random", seed=20))
        a, _, _ = train(cfg_a)
        b, _, _ = train(cfg_b)
        assert not a.params.equals(b.params)
        # replacing only the init seed leaves config-hash-relevant ordering
        # identical; verified indirectly: same-seed same-init reruns agree
        again, _, _ = train(cfg_a)
        assert a.params.equals(again.params)

    def test_checkpoint_epochs_and_optimal_flag(self):
        cfg = small_config(epochs=3, checkpoint_epochs=(0, 1, 2))
        _, record, saved = train(cfg)
        assert [c.epoch for c in saved] == [0, 1, 2, 3]
        flagged = [c for c in saved if c.optimal]
        assert len(flagged) == 1
        best = max(saved, key=lambda c: c.metrics["test_acc"])
        assert flagged[0].metrics["test_acc"] == best.metrics["test_acc"]
        earliest = min(c.epoch for c in saved if c.metrics["test_acc"] == best.metrics["test_acc"])
        assert flagged[0].epoch == earliest

    def test_from_checkpoint_matches_arch(self):
        cfg = small_config()
        final, _, _ = train(cfg)
        other = TrainConfig(
            arch=FAST,
            data=DataSpec(domains=("source",), n_train=100, n_test=50, seed=1),
            epochs=1,
            batch_size=50,
            lr_schedule=((0, 0.05),),
            init=InitSpec("checkpoint", path=""),
        )
        with pytest.raises(DomainError):
            train(other, init_checkpoint=final)

    def test_random_init_with_a_checkpoint_rejected(self):
        """The checkpoint was ignored: the run equalled a plain random init."""
        ckpt = Checkpoint(TINY4, init_random(TINY4, RngStream(2)), 0, {}, "h", "r")
        with pytest.raises(DomainError, match="random init"):
            train(small_config(epochs=0), init_checkpoint=ckpt)

    def test_checkpoint_init_from_a_path_equals_the_checkpoint_passed_in(self, tmp_path):
        from basinscope.persistence import save_checkpoint

        pre, _, _ = train(small_config(epochs=1))
        path = tmp_path / "pre.llck"
        save_checkpoint(pre, path)
        cfg = small_config(epochs=1, seed=4, init=InitSpec("checkpoint", path=str(path)))
        from_path, record, _ = train(cfg)
        passed, passed_record, _ = train(cfg, init_checkpoint=pre)
        assert from_path.equals(passed) and record == passed_record
        assert not from_path.params.equals(pre.params)

    def test_binding_clip_caps_the_step_norm(self):
        # one full-batch step, no momentum or decay: the step is lr * clip
        # exactly, up to the float32 rounding of each parameter
        lr, clip = 0.05, 0.1
        cfg = small_config(
            data=small_data(n_train=50), epochs=1, batch_size=50, lr_schedule=((0, lr),), momentum=0.0, weight_decay=0.0
        )
        init = init_random(TINY4, RngStream(1)).values.astype(np.float64)
        unclipped, _, _ = train(dataclasses.replace(cfg, clip_grad_norm=None))
        clipped, _, _ = train(dataclasses.replace(cfg, clip_grad_norm=clip))
        assert np.linalg.norm(unclipped.params.values - init) > lr * clip  # the clip binds
        step = np.linalg.norm(clipped.params.values.astype(np.float64) - init)
        assert abs(step - lr * clip) <= 2.0**-23 * np.linalg.norm(init)

    def test_checkpoint_init_without_a_source_rejected(self):
        """With neither a checkpoint nor a path, open("") raised FileNotFoundError."""
        with pytest.raises(DomainError, match="init_checkpoint or a path"):
            train(small_config(epochs=0, init=InitSpec("checkpoint")))

    def test_batch_size_exceeding_train_rejected(self):
        cfg = small_config(batch_size=300)
        with pytest.raises(DomainError):
            train(cfg)

    def test_non_finite_gradient_at_finite_loss_diverges(self, monkeypatch):
        """A NaN gradient at a finite loss raises DivergedRunError before
        clipping (a NaN norm would skip the clip) and before sgd_step."""

        def nan_backward(params, arch, batch, labels):
            grad = ParamVector.zeros(arch)
            grad.values[0] = np.nan
            return 1.0, grad

        monkeypatch.setattr("basinscope.trainer.backward", nan_backward)
        for clip in (2.0, None):
            with pytest.raises(DivergedRunError) as info:
                train(small_config(clip_grad_norm=clip))
            assert info.value.epoch == 0

    def test_epoch0_checkpoint_equals_random_init(self):
        cfg = small_config(epochs=1, checkpoint_epochs=(0,))
        _, _, saved = train(cfg)
        assert saved[0].params.equals(init_random(TINY4, RngStream(1)))

    def test_zero_epochs_with_epoch0_checkpoint_saves_and_evaluates_once(self, monkeypatch):
        calls = []
        real_evaluate_all = _evaluate_all

        def counting_evaluate_all(*args):
            calls.append(args[2].split)
            return real_evaluate_all(*args)

        monkeypatch.setattr("basinscope.trainer._evaluate_all", counting_evaluate_all)
        final, _, saved = train(small_config(epochs=0, checkpoint_epochs=(0,)))
        assert calls == ["train", "test"]
        assert len(saved) == 1 and saved[0] is final
        assert final.epoch == 0 and final.optimal

    def test_run_record_holds_rows_and_speed_only(self):
        assert [f.name for f in dataclasses.fields(RunRecord)] == ["rows", "optimization_speed"]
        _, record, _ = train(small_config(epochs=2))
        assert record.optimization_speed == pytest.approx(np.mean([r["train_acc"] for r in record.rows]), rel=1e-15)


def _on_worker() -> bool:
    return threading.current_thread() is not threading.main_thread()


class TestOverlappedScoring:
    """With two CPUs, each epoch but the last is scored on the pooled worker
    while the next epoch trains; the one-thread run is the oracle."""

    @pytest.mark.parametrize("epochs, checkpoint_epochs", [(3, (1, 2)), (1, ()), (2, (0,))])
    def test_overlapped_train_equals_one_thread_train(self, epochs, checkpoint_epochs, monkeypatch):
        """Every saved checkpoint, the rows and the run record, bit for bit.
        The first of several scored epochs went to the idle worker; a later
        one goes there too unless the worker is still busy, and the last is
        scored on the caller."""
        cfg = small_config(epochs=epochs, checkpoint_epochs=checkpoint_epochs)
        datasets = make_datasets(cfg.data)
        split_metrics, scored_on = trainer.split_metrics, []

        def recorded(*args):
            scored_on.append(_on_worker())
            return split_metrics(*args)

        monkeypatch.setattr(trainer, "split_metrics", recorded)
        runs = []
        for two_cpus in (False, True):
            monkeypatch.setattr(trainer, "_TWO_CPUS", two_cpus)
            scored_on.clear()
            runs.append(train(cfg, datasets=datasets))
        scored = epochs + (0 in checkpoint_epochs)  # the init too, when it is checkpointed
        assert len(scored_on) == scored and scored_on[0] == (scored > 1) and not scored_on[-1]
        (final, record, saved), (shared_final, shared_record, shared_saved) = runs
        assert shared_final.equals(final) and shared_record == record
        assert [c.epoch for c in shared_saved] == [c.epoch for c in saved] == sorted({*checkpoint_epochs, epochs})
        assert all(a.equals(b) for a, b in zip(shared_saved, saved))

    def test_divergence_while_an_epoch_is_scored_waits_for_it(self, monkeypatch):
        """A non-finite gradient in epoch 2 raises DivergedRunError(1) only
        once epoch 1's scoring on the worker has ended, so the worker is idle
        when train returns."""
        monkeypatch.setattr(trainer, "_TWO_CPUS", True)
        diverged, scored = threading.Event(), threading.Event()
        split_metrics, real_backward = trainer.split_metrics, trainer.backward
        steps = []

        def slow_on_worker(*args):
            if _on_worker():
                assert diverged.wait(timeout=30)
                time.sleep(0.2)  # still scoring well after the raise
            out = split_metrics(*args)
            scored.set()
            return out

        def nan_in_epoch_two(params, arch, batch, labels):
            loss, grad = real_backward(params, arch, batch, labels)
            steps.append(loss)
            if len(steps) > 4:  # 200 images in batches of 50: four steps per epoch
                grad.values[0] = np.nan
                diverged.set()
            return loss, grad

        monkeypatch.setattr(trainer, "split_metrics", slow_on_worker)
        monkeypatch.setattr(trainer, "backward", nan_in_epoch_two)
        with pytest.raises(DivergedRunError) as info:
            train(small_config(epochs=2))
        assert info.value.epoch == 1 and len(steps) == 5
        assert scored.is_set()
        assert trainer._idle.acquire(blocking=False)
        trainer._idle.release()


class TestOverlap:
    """``_overlap``, train's epoch overlap: side goes to the pooled worker
    only while it is idle, main always runs on the caller, and the caller
    never returns while the worker still runs."""

    def test_error_on_the_worker_reaches_the_caller(self, monkeypatch):
        """side raises on the worker while main waits for it: the caller
        raises side's error, and the worker is idle again."""
        monkeypatch.setattr(trainer, "_TWO_CPUS", True)
        failed = threading.Event()

        def side():
            failed.set()
            raise ValueError("planted")

        def main():
            assert failed.wait(timeout=30)

        with pytest.raises(ValueError, match="planted"):
            trainer._overlap(main, side)
        assert trainer._idle.acquire(blocking=False)
        trainer._idle.release()

    def test_overlap_on_the_worker_runs_there_without_waiting_on_itself(self, monkeypatch):
        """An overlap called on the worker finds it busy and runs both calls
        itself; waiting on its own queue would never end."""
        monkeypatch.setattr(trainer, "_TWO_CPUS", True)
        future = trainer._offload(lambda: trainer._overlap(_on_worker, _on_worker))
        assert future is not None
        assert future.result(timeout=30) == (True, True)

    def test_busy_worker_leaves_side_to_the_caller(self, monkeypatch):
        """The caller then runs side after main."""
        monkeypatch.setattr(trainer, "_TWO_CPUS", True)
        release = threading.Event()
        busy = trainer._offload(lambda: release.wait(timeout=30))
        try:
            assert trainer._offload(lambda: None) is None
            ran = []
            trainer._overlap(lambda: ran.append(("main", _on_worker())), lambda: ran.append(("side", _on_worker())))
            assert ran == [("main", False), ("side", False)]
        finally:
            release.set()
            busy.result(timeout=30)

    def test_main_runs_on_the_caller_while_the_worker_is_idle(self, monkeypatch):
        """Even a worker given a head start runs only side; 50 calls.
        ``train`` relies on it: an epoch's steps stay on the caller while
        the worker scores the epoch before."""
        monkeypatch.setattr(trainer, "_TWO_CPUS", True)
        real_offload = trainer._offload

        def head_start(fn):
            worker = real_offload(fn)
            time.sleep(0.002)  # time for an idle worker to start side
            return worker

        monkeypatch.setattr(trainer, "_offload", head_start)
        ran = []
        for _ in range(50):
            assert trainer._idle.acquire(blocking=False)  # the worker is idle
            trainer._idle.release()
            ran.append(trainer._overlap(_on_worker, _on_worker))
        assert ran == [(False, True)] * 50

    def test_child_forked_while_the_worker_is_busy_uses_its_own(self):
        """The parent holds the idle lock when it forks; the child starts its
        own worker and lock, and its worker and main thread run one of the
        two calls each. A child whose copied lock stayed held would run both
        on its main thread."""
        code = textwrap.dedent(
            f"""
            import os, signal, sys, threading
            sys.path.insert(0, {SRC!r})
            from basinscope import trainer

            trainer._TWO_CPUS = True  # overlap whatever CPUs this process may use
            release = threading.Event()
            busy = trainer._offload(lambda: release.wait(timeout=60))
            if busy is None or not trainer._idle.locked():
                sys.exit(3)
            pid = os.fork()
            if pid == 0:
                signal.alarm(20)
                ran = {{True: threading.Event(), False: threading.Event()}}  # by "on the main thread"
                threads = []

                def call():  # each thread waits, 5 s at most, until the other runs a call
                    threads.append(threading.current_thread() is threading.main_thread())
                    ran[threads[-1]].set()
                    ran[not threads[-1]].wait(timeout=5)

                trainer._overlap(call, call)
                os._exit(0 if sorted(threads) == [False, True] else 1)
            release.set()
            busy.result()
            sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
            """
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_child_forked_after_an_overlapped_train_trains_on_its_own(self):
        """The parent's worker does not exist in a forked child; the child
        starts its own, and its two-epoch train has the parent's bits. A
        child left waiting on the parent's worker dies by its alarm."""
        code = textwrap.dedent(
            f"""
            import os, signal, sys, threading
            sys.path.insert(0, {SRC!r})
            from basinscope import trainer
            from basinscope.model import TINY4
            from basinscope.trainer import DataSpec, TrainConfig, make_datasets, train

            trainer._TWO_CPUS = True  # overlap whatever CPUs this process may use
            config = TrainConfig(TINY4, DataSpec(("source",), n_train=100, n_test=50), epochs=2, batch_size=50)
            datasets = make_datasets(config.data)
            final = train(config, datasets=datasets)[0]
            if threading.active_count() != 2:
                sys.exit(3)
            pid = os.fork()
            if pid == 0:
                signal.alarm(20)
                same = train(config, datasets=datasets)[0].equals(final) and threading.active_count() == 2
                os._exit(0 if same else 1)
            sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
            """
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


class TestScoringLag:
    def test_each_epoch_is_scored_within_the_next_epochs_steps(self, monkeypatch):
        """With scoring slowed by 0.3 s on the worker, each epoch's scoring
        starts after its last step and ends by the next epoch's last step,
        so its row is recorded one epoch behind training; the last epoch is
        scored after every step. Spans are (start step, end step)."""
        monkeypatch.setattr(trainer, "_TWO_CPUS", True)
        split_metrics, real_backward = trainer.split_metrics, trainer.backward
        steps, spans = [], []

        def slow_on_worker(*args):
            start = len(steps)
            if _on_worker():
                time.sleep(0.3)
            out = split_metrics(*args)
            spans.append((start, len(steps)))
            return out

        def counted(*args):
            out = real_backward(*args)
            steps.append(None)
            return out

        monkeypatch.setattr(trainer, "split_metrics", slow_on_worker)
        monkeypatch.setattr(trainer, "backward", counted)
        train(small_config(epochs=4))
        per_epoch = 4  # 200 images in batches of 50
        assert len(steps) == 16 and len(spans) == 4
        for epoch, (start, end) in enumerate(sorted(spans), start=1):
            assert per_epoch * epoch <= start <= end <= per_epoch * min(epoch + 1, 4), sorted(spans)


class TestCheckpointEquals:
    def test_every_field_is_compared(self):
        base = Checkpoint(TINY4, init_random(TINY4, RngStream(2)), 3, {"a": 1.0}, "h", "r", {"p": 1}, False)
        assert base.equals(dataclasses.replace(base, params=base.params.copy()))
        other_params = base.params.copy()
        other_params.values[-1] += 1.0
        changed = {
            "arch": ArchDescriptor(TINY4.input_shape, TINY4.conv_blocks, TINY4.fc_widths, 11),
            "params": other_params,
            "epoch": 4,
            "metrics": {"a": 2.0},
            "config_hash": "h2",
            "rng_digest": "r2",
            "provenance": {"p": 2},
            "optimal": True,
        }
        assert sorted(changed) == sorted(f.name for f in dataclasses.fields(Checkpoint))
        for name, value in changed.items():
            other = dataclasses.replace(base)
            setattr(other, name, value)  # set after building: the 11-class arch does not fit these params
            assert not base.equals(other), name


class TestScoringAgreement:
    @pytest.mark.parametrize("seed, n", [(4, 16), (5, 32)])
    def test_backward_loss_equals_evaluate_loss_bit_for_bit(self, seed, n):
        # backward and evaluate score one batch of at most EVAL_BATCH images
        # with the same lse(z) - z[label] term, so their mean losses agree in
        # every bit (these two batches differed in the last bit before)
        ds = generate(domain_spec("source"), "test", n, 3)
        params = init_random(TINY4, RngStream(seed))
        assert backward(params, TINY4, ds.images, ds.labels)[0] == evaluate(params, TINY4, ds).loss


class TestSweep:
    def test_single_checkpoint_row_matches_direct_run(self):
        pre_cfg = small_config(epochs=1, checkpoint_epochs=(0,))
        final, _, saved = train(pre_cfg)
        ft_cfg = small_config(epochs=1, seed=9)
        rows = checkpoint_sweep([final], ft_cfg)
        direct_cfg = small_config(epochs=1, seed=9, init=InitSpec("checkpoint", path=""))
        d_final, d_record, _ = train(direct_cfg, init_checkpoint=final)
        assert rows[0]["ckpt_epoch"] == final.epoch
        assert rows[0]["final_test_acc"] == d_final.metrics["test_acc"]
        assert rows[0]["optimization_speed"] == d_record.optimization_speed

    def test_epoch0_row_equals_ri_t_with_same_seed(self):
        pre_cfg = small_config(epochs=1, checkpoint_epochs=(0,), init=InitSpec("random", seed=77))
        _, _, saved = train(pre_cfg)
        epoch0 = saved[0]
        ft_cfg = small_config(epochs=1, seed=5)
        rows = checkpoint_sweep([epoch0], ft_cfg)
        rit_cfg = small_config(epochs=1, seed=5, init=InitSpec("random", seed=77))
        rit_final, rit_record, _ = train(rit_cfg)
        assert rows[0]["final_test_acc"] == rit_final.metrics["test_acc"]
        assert rows[0]["optimization_speed"] == rit_record.optimization_speed

    def test_no_checkpoint_rejected(self):
        with pytest.raises(DomainError, match="at least one checkpoint"):
            checkpoint_sweep([], small_config(epochs=1))

    def test_arch_mismatch_rejected(self):
        cfg = small_config(epochs=1)
        final, _, _ = train(cfg)
        bad = Checkpoint(
            arch=FAST,
            params=ParamVector.zeros(FAST),
            epoch=0,
            metrics={},
            config_hash="",
            rng_digest="",
        )
        with pytest.raises(DomainError):
            checkpoint_sweep([final, bad], cfg)

    def test_renders_target_once_and_rows_equal_direct_runs(self, monkeypatch):
        pre_cfg = small_config(epochs=2, checkpoint_epochs=(0, 1))
        _, _, saved = train(pre_cfg)
        assert len(saved) == 3
        ft_cfg = small_config(epochs=1, seed=3)
        calls = []
        real_generate = dataops.generate

        def counting_generate(*args):
            calls.append(args)
            return real_generate(*args)

        monkeypatch.setattr(dataops, "generate", counting_generate)
        rows = checkpoint_sweep(saved, ft_cfg)
        assert [split for _, split, _, _ in calls] == ["train", "test"]
        monkeypatch.undo()
        datasets = make_datasets(ft_cfg.data)
        direct_cfg = small_config(epochs=1, seed=3, init=InitSpec("checkpoint", path=""))
        for row, ckpt in zip(rows, saved, strict=True):
            final, record, _ = train(direct_cfg, init_checkpoint=ckpt, datasets=datasets)
            assert row == {
                "ckpt_epoch": ckpt.epoch,
                "final_test_acc": final.metrics["test_acc"],
                "optimization_speed": record.optimization_speed,
            }


# --- one architecture gate for every analysis that pairs checkpoints ---

WIDE = ArchDescriptor(TINY4.input_shape, TINY4.conv_blocks, (16,), TINY4.num_classes)

GATED_CALLS = {
    "train_init": lambda tiny, wide, ds: train(small_config(init=InitSpec("checkpoint")), init_checkpoint=wide),
    "checkpoint_sweep": lambda tiny, wide, ds: checkpoint_sweep([tiny, wide], small_config()),
    "criticality_endpoints": lambda tiny, wide, ds: criticality_map(
        tiny, wide, CriticalityConfig("fc1", 0.5), RngStream(1), ds, ds
    ),
    "criticality_path": lambda tiny, wide, ds: criticality_map(
        tiny, tiny, CriticalityConfig("fc1", 0.5), RngStream(1), ds, ds, checkpoints=[wide]
    ),
    "rewind_probe": lambda tiny, wide, ds: rewind_probe(tiny, wide, "conv1", ds, ds),
    "barrier_curve": lambda tiny, wide, ds: barrier_curve(tiny, wide, [0.0, 1.0], {"source": (ds, ds)}),
    "similarity_report": lambda tiny, wide, ds: similarity_report(tiny, wide, ds),
    "similarity_init_a": lambda tiny, wide, ds: similarity_report(tiny, tiny, ds, init_a=wide),
    "similarity_init_b": lambda tiny, wide, ds: similarity_report(tiny, tiny, ds, init_b=wide),
}


@pytest.mark.parametrize("entry", list(GATED_CALLS))
def test_mismatched_architectures_raise_the_gate_error(entry):
    """Every entry point that pairs checkpoints, or a checkpoint with a
    config, raises one DomainError naming both architectures."""
    tiny = Checkpoint(TINY4, init_random(TINY4, RngStream(1)), 0, {}, "h", "r")
    wide = Checkpoint(WIDE, init_random(WIDE, RngStream(2)), 0, {}, "h", "r")
    ds = generate(domain_spec("source"), "train", 10, 1)
    message = f"architectures differ: {TINY4.to_json()} vs {WIDE.to_json()}"
    with pytest.raises(DomainError, match=re.escape(message)):
        GATED_CALLS[entry](tiny, wide, ds)


def test_checkpoint_of_another_archs_params_rejected():
    """A TINY4 checkpoint holding WIDE's parameters would run every analysis
    (evaluate, barrier curves, spectra, similarity, rewinds) on the WIDE
    network; it cannot be built."""
    with pytest.raises(DomainError, match="index table"):
        Checkpoint(TINY4, init_random(WIDE, RngStream(2)), 0, {}, "h", "r")
