"""Quantization-aware training — the paper's Algorithm 1.

Each iteration: (1) the quantized layers compute ``wq = Q_k(w | t)`` inside
the forward graph, (2) the loss is cross-entropy plus — for FLightNN — the
residual group-lasso ``L_reg,k``, (3) backward propagates ``dL/dwq`` to the
full-precision master weights via STE and ``dL/dt`` via the sigmoid-relaxed
indicator, (4) the optimizer (Adam, as in the paper) updates ``w``, biases,
batch-norm affines and thresholds ``t``.

The loop is fault-tolerant: per-batch numerical guardrails (NaN/Inf
detection, optional gradient clipping, a divergence monitor that rolls back
to the last good checkpoint at reduced LR — see
:mod:`repro.train.resilience`) and crash-safe full-state checkpointing with
bitwise-exact resume (see
:class:`~repro.train.checkpoint.TrainingCheckpoint`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader, DataSplit
from repro.data.prefetch import PrefetchLoader
from repro.errors import CheckpointError, ConfigurationError, ParityError, TrainingDivergedError
from repro.models.network import QuantizedNetwork
from repro.nn import functional as F
from repro.nn.arena import BufferArena, use_arena
from repro.nn.optim import SGD, Adam, ConstantLR, CosineDecayLR, StepDecayLR
from repro.nn.tensor import Tensor, no_grad
from repro.quant.activations import QuantizedActivation
from repro.quant.regularization import proximal_residual_shrink, residual_group_lasso
from repro.quant.workspace import QuantWorkspace
from repro.train.act_reg import activation_distribution_loss, collect_quantizer_inputs
from repro.train.history import EpochStats, TrainHistory
from repro.train.metrics import RunningAverage, accuracy, topk_accuracy
from repro.train.resilience import DivergenceMonitor, clip_grad_norm, grads_are_finite
from repro.utils.logging import get_logger
from repro.utils.profiler import PhaseProfiler, profile_phase, use_profiler
from repro.utils.rng import as_generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.train.checkpoint import TrainingCheckpoint

__all__ = ["TrainConfig", "Trainer"]

_LOGGER = get_logger("train.trainer")


class _RollbackRequested(Exception):
    """Internal: the divergence monitor asked for a checkpoint rollback."""


def _flatten_state(prefix: str, state: dict, arrays: dict[str, np.ndarray]) -> dict:
    """Split an optimizer/scheduler state dict into npz arrays + JSON scalars.

    Per-parameter buffer lists land in ``arrays`` under ``prefix/key/i``;
    everything else stays in the returned JSON-able record, which notes the
    buffer counts so :func:`_unflatten_state` can reassemble the lists.
    """
    meta: dict = {"buffers": {}}
    for key, value in state.items():
        if isinstance(value, list):
            meta["buffers"][key] = len(value)
            for i, arr in enumerate(value):
                arrays[f"{prefix}/{key}/{i}"] = arr
        else:
            meta[key] = value
    return meta


def _unflatten_state(prefix: str, meta: dict, arrays: dict[str, np.ndarray]) -> dict:
    state = {key: value for key, value in meta.items() if key != "buffers"}
    for key, count in meta.get("buffers", {}).items():
        state[key] = [arrays[f"{prefix}/{key}/{i}"] for i in range(int(count))]
    return state


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of one training run.

    Args:
        epochs: Training epochs.
        batch_size: Mini-batch size.
        lr: Learning rate (Adam step size).
        optimizer: ``"adam"`` (paper) or ``"sgd"``.
        momentum: SGD momentum (ignored for Adam).
        threshold_lr_scale: Multiplier on ``lr`` for the FLightNN threshold
            parameters.  Thresholds always train with plain SGD (their
            gradient magnitude carries meaning that Adam's per-parameter
            normalisation would erase).
        gate_pressure: Strength multiplier for the L0-style gate-count
            penalty on thresholds (see
            :meth:`FLightNNQuantizer.gate_pressure_gradient`); scaled by the
            scheme's per-level lambdas.  0 disables it.
        threshold_freeze_epoch: Epoch after which thresholds stop moving
            (no gradient step, no gate pressure) so the network fine-tunes
            against a settled per-filter k assignment.  ``None`` keeps them
            trainable throughout.
        lambda_warmup_epochs: Ramp the regularization strength linearly
            from 0 to its full value over this many epochs — the "gradual
            quantization" behaviour the paper credits for FLightNN's
            accuracy edge over LightNN-1 (Sec. 5.2): the network first
            trains with the full two-shift budget, then constraints tighten.
        regularization_mode: How ``L_reg,k`` is applied to FLightNN layers:
            ``"proximal"`` (default) applies the exact group-lasso proximal
            shrinkage after each optimizer step — this is what produces
            exactly-zero residual groups, i.e. filters that genuinely drop
            to smaller k; ``"gradient"`` adds the differentiable loss of
            Sec. 4.3 to the objective instead (the paper's formulation,
            which needs far longer schedules to sparsify).
        activation_reg: Coefficient of the activation-distribution loss
            (the paper's Sec.-6 future-work item, ref. [7]); 0 disables.
        lr_schedule: Per-epoch learning-rate schedule for the main
            optimizer: ``"constant"``, ``"cosine"`` (anneal to 0 over the
            run) or ``"step"`` (x0.1 at 2/3 of the run).
        seed: Shuffling seed.
        eval_batch_size: Batch size for evaluation passes.
        grad_clip_norm: Clip the global L2 norm of all gradients (master
            weights and thresholds together) to this value; ``None``
            disables clipping.
        guard_nonfinite: Screen the loss and every gradient for NaN/Inf each
            batch; a bad batch's update is suppressed instead of poisoning
            the optimizer moments.
        guard_spike_factor: A finite batch loss above this multiple of the
            running mean counts as divergence; 0 disables spike detection.
        guard_patience: Consecutive bad batches before the divergence
            monitor requests a rollback to the last good checkpoint.
        guard_warmup_batches: Healthy batches before spike detection arms.
        rollback_lr_factor: Learning-rate multiplier applied on every
            divergence rollback (all optimizers and the schedule base).
        max_rollbacks: Divergence rollbacks allowed per ``fit`` call before
            :class:`~repro.errors.TrainingDivergedError` is raised.
        fast_path: Enable the training fast path: per-layer
            :class:`~repro.quant.workspace.QuantWorkspace` caches (one
            quantizer sweep per step shared by forward, threshold gradients
            and regularization), a step-scoped
            :class:`~repro.nn.arena.BufferArena` for conv/activation/pool
            scratch, and background batch prefetching.  Produces bitwise
            identical training trajectories to the eager path (asserted by
            ``tests/train/test_fast_path.py``).
        prefetch_batches: Batches the fast path's background loader keeps
            prepared ahead of the training step (ignored when ``fast_path``
            is off).
    """

    epochs: int = 10
    batch_size: int = 64
    lr: float = 1e-3
    optimizer: str = "adam"
    momentum: float = 0.9
    threshold_lr_scale: float = 1.0
    gate_pressure: float = 1.0
    threshold_freeze_epoch: int | None = None
    lambda_warmup_epochs: int = 0
    regularization_mode: str = "proximal"
    activation_reg: float = 0.0
    lr_schedule: str = "constant"
    seed: int = 0
    eval_batch_size: int = 256
    grad_clip_norm: float | None = None
    guard_nonfinite: bool = True
    guard_spike_factor: float = 0.0
    guard_patience: int = 5
    guard_warmup_batches: int = 10
    rollback_lr_factor: float = 0.5
    max_rollbacks: int = 3
    fast_path: bool = False
    prefetch_batches: int = 2

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        if self.threshold_lr_scale <= 0:
            raise ConfigurationError("threshold_lr_scale must be positive")
        if self.regularization_mode not in ("proximal", "gradient"):
            raise ConfigurationError(
                f"unknown regularization_mode {self.regularization_mode!r}"
            )
        if self.lambda_warmup_epochs < 0:
            raise ConfigurationError("lambda_warmup_epochs must be non-negative")
        if self.gate_pressure < 0:
            raise ConfigurationError("gate_pressure must be non-negative")
        if self.threshold_freeze_epoch is not None and self.threshold_freeze_epoch < 0:
            raise ConfigurationError("threshold_freeze_epoch must be non-negative")
        if self.lr_schedule not in ("constant", "cosine", "step"):
            raise ConfigurationError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.activation_reg < 0:
            raise ConfigurationError("activation_reg must be non-negative")
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ConfigurationError("grad_clip_norm must be positive (or None)")
        if self.guard_spike_factor < 0:
            raise ConfigurationError("guard_spike_factor must be non-negative")
        if self.guard_patience < 1:
            raise ConfigurationError("guard_patience must be >= 1")
        if self.guard_warmup_batches < 1:
            raise ConfigurationError("guard_warmup_batches must be >= 1")
        if not 0.0 < self.rollback_lr_factor <= 1.0:
            raise ConfigurationError("rollback_lr_factor must be in (0, 1]")
        if self.max_rollbacks < 0:
            raise ConfigurationError("max_rollbacks must be non-negative")
        if self.prefetch_batches < 1:
            raise ConfigurationError("prefetch_batches must be >= 1")


class Trainer:
    """Runs Algorithm 1 for one network/scheme pair.

    State that must survive a crash (epoch position, history, optimizer
    moments, data-shuffle RNG) lives on the instance and round-trips through
    :meth:`training_state` / :meth:`load_training_state`, which
    :class:`~repro.train.checkpoint.TrainingCheckpoint` persists.
    """

    def __init__(self, model: QuantizedNetwork, config: TrainConfig | None = None) -> None:
        self.model = model
        self.config = config or TrainConfig()
        self.scheme = model.scheme
        threshold_ids = {
            id(layer.thresholds)
            for layer in model.conv_layers() + model.linear_layers()
            if layer.thresholds is not None
        }
        main_params = [p for p in model.parameters() if id(p) not in threshold_ids]
        threshold_params = [p for p in model.parameters() if id(p) in threshold_ids]
        self.optimizer = self._make_optimizer(main_params, self.config.lr)
        # Thresholds use plain SGD: their gradient magnitude (how strongly a
        # gate helps or hurts the loss) must survive into the update.
        self.threshold_optimizer = (
            SGD(threshold_params, lr=self.config.lr * self.config.threshold_lr_scale)
            if threshold_params
            else None
        )
        self._flightnn_layers = [
            layer
            for layer in model.conv_layers() + model.linear_layers()
            if layer.thresholds is not None
        ]
        if self.config.activation_reg > 0:
            for module in model.modules():
                if isinstance(module, QuantizedActivation):
                    module.record_input = True
        if self.config.lr_schedule == "cosine":
            self._scheduler = CosineDecayLR(self.optimizer, total_epochs=self.config.epochs)
        elif self.config.lr_schedule == "step":
            self._scheduler = StepDecayLR(
                self.optimizer, step_size=max(1, (2 * self.config.epochs) // 3)
            )
        else:
            self._scheduler = ConstantLR(self.optimizer)
        self._eval_engine = None  # compiled eval engine, built lazily by _engine()
        self._loader_rng = as_generator(self.config.seed)
        self._epoch = 0  # next epoch to run (advances past config.epochs-1 when done)
        self._step = 0  # global batch counter (monotonic across epochs; checkpointed)
        self.history = TrainHistory(
            scheme_name=self.scheme.name, network_id=self.model.config.network_id
        )
        #: Callables invoked with the global step after each backward pass —
        #: a seam for gradient instrumentation and fault injection
        #: (:mod:`repro.testing.faults`).
        self.grad_hooks: list[Callable[[int], None]] = []
        self._monitor = DivergenceMonitor(
            spike_factor=self.config.guard_spike_factor,
            patience=self.config.guard_patience,
            warmup_batches=self.config.guard_warmup_batches,
        )
        self._rollbacks = 0
        #: Per-phase wall-time accounting for the training loop (exclusive
        #: times; the "quantize" phase is recorded inside the quantizer and
        #: subtracted from whichever phase called it).
        self.profiler = PhaseProfiler()
        self._arena: BufferArena | None = None
        self._parity_checked = False
        if self.config.fast_path:
            self._arena = BufferArena()
            for layer in self._flightnn_layers:
                layer.quant_workspace = QuantWorkspace(layer.strategy.quantizer)

    def _make_optimizer(self, params, lr):
        if self.config.optimizer == "adam":
            return Adam(params, lr=lr)
        return SGD(params, lr=lr, momentum=self.config.momentum)

    # -- loss -----------------------------------------------------------------

    def regularization_loss(self) -> Tensor | None:
        """The paper's ``L_reg,k`` summed over FLightNN layers (else None).

        Only used as a training objective term in ``"gradient"`` mode, but
        always available for inspection/logging.
        """
        if not self.scheme.is_flightnn or not self._flightnn_layers:
            return None
        total: Tensor | None = None
        for layer in self._flightnn_layers:
            term = residual_group_lasso(
                layer.weight,
                layer.thresholds,
                self.scheme.lambdas,
                layer.strategy.quantizer,
                workspace=layer.quant_workspace,
            )
            total = term if total is None else total + term
        return total

    # -- training -------------------------------------------------------------

    def fit(
        self,
        split: DataSplit,
        log: bool = False,
        checkpoint: "TrainingCheckpoint | None" = None,
        resume: bool = True,
    ) -> TrainHistory:
        """Train on ``split.train``, evaluating on ``split.test`` per epoch.

        With ``checkpoint`` given, the full training state is persisted as a
        new generation after every epoch, and — when ``resume`` is true and
        the store is non-empty — restored from the newest valid generation
        before training starts, so an interrupted run continues
        bitwise-identically to an uninterrupted one.  Divergence rollbacks
        (see :class:`TrainConfig` guard options) restore from the same store.
        """
        if checkpoint is not None and resume:
            restored = checkpoint.restore_latest(self)
            if restored is not None:
                _LOGGER.info(
                    "resumed from checkpoint generation %d at epoch %d",
                    restored, self._epoch,
                )
        loader: DataLoader | PrefetchLoader = DataLoader(
            split.train,
            self.config.batch_size,
            shuffle=True,
            rng=self._loader_rng,
        )
        if self.config.fast_path:
            # Batch N+1's shuffle + gather copies run on a background thread
            # while batch N trains.  The worker is the sole consumer of the
            # underlying loader, so the shuffle RNG advances exactly as in
            # eager iteration (see repro.data.prefetch).
            loader = PrefetchLoader(loader, depth=self.config.prefetch_batches)
        try:
            return self._fit_loop(loader, split, checkpoint, log)
        finally:
            if isinstance(loader, PrefetchLoader):
                loader.close()

    def _fit_loop(
        self,
        loader: "DataLoader | PrefetchLoader",
        split: DataSplit,
        checkpoint: "TrainingCheckpoint | None",
        log: bool,
    ) -> TrainHistory:
        while self._epoch < self.config.epochs:
            epoch = self._epoch
            try:
                train_loss, train_acc, guards = self._run_epoch(loader, epoch)
            except _RollbackRequested:
                self._handle_divergence(checkpoint)
                continue
            test = self.evaluate(split.test)
            self._check_eval_parity(test, split.test)
            stats = EpochStats(
                epoch=epoch,
                train_loss=train_loss,
                train_accuracy=train_acc,
                test_accuracy=test["accuracy"],
                test_top5=test["top5"],
                mean_filter_k=self.model.mean_filter_k(),
                storage_mb=self.model.storage_mb(),
                learning_rate=self.optimizer.lr,
                nonfinite_batches=guards["nonfinite"],
                clipped_batches=guards["clipped"],
                loss_spikes=guards["spikes"],
            )
            self.history.append(stats)
            self._scheduler.step()
            self._epoch += 1
            if checkpoint is not None:
                checkpoint.save(self)
            if log:
                _LOGGER.info(
                    "epoch %d: loss=%.4f train=%.3f test=%.3f k=%.2f",
                    epoch, train_loss, train_acc, test["accuracy"], stats.mean_filter_k,
                )
        return self.history

    def _run_epoch(
        self, loader: "DataLoader | PrefetchLoader", epoch: int
    ) -> tuple[float, float, dict]:
        self.model.train()
        loss_avg, acc_avg = RunningAverage(), RunningAverage()
        guards = {"nonfinite": 0, "clipped": 0, "spikes": 0}
        use_gradient_reg = self.config.regularization_mode == "gradient"
        warmup = self.config.lambda_warmup_epochs
        lambda_ramp = min(1.0, (epoch + 1) / warmup) if warmup else 1.0
        freeze = self.config.threshold_freeze_epoch
        thresholds_active = freeze is None or epoch < freeze
        guard_enabled = self.config.guard_nonfinite or self.config.guard_spike_factor > 0
        guarded_params = list(self.optimizer.params)
        if self.threshold_optimizer is not None:
            guarded_params += self.threshold_optimizer.params
        batches = iter(loader)
        with use_profiler(self.profiler):
            while True:
                with profile_phase("data"):
                    batch = next(batches, None)
                if batch is None:
                    break
                images, labels = batch
                # One `with` block = one pass: the arena recycles its scratch
                # buffers at entry, after the previous step's graph is dead.
                with use_arena(self._arena):
                    with profile_phase("forward"):
                        self.model.zero_grad()
                        logits = self.model(Tensor(images))
                        loss = F.cross_entropy(logits, labels)
                        total = loss
                        if use_gradient_reg:
                            reg = self.regularization_loss()
                            if reg is not None:
                                total = total + reg
                        if self.config.activation_reg > 0:
                            act_reg = activation_distribution_loss(
                                collect_quantizer_inputs(self.model),
                                self.config.activation_reg,
                            )
                            if act_reg is not None:
                                total = total + act_reg
                    with profile_phase("backward"):
                        total.backward()
                    step = self._step
                    self._step += 1
                    for hook in self.grad_hooks:
                        hook(step)
                    if thresholds_active:
                        self._add_gate_pressure(lambda_ramp)
                    loss_value = float(loss.item())
                    if guard_enabled:
                        finite = (
                            grads_are_finite(guarded_params)
                            if self.config.guard_nonfinite
                            else True
                        )
                        verdict = self._monitor.observe(loss_value, finite)
                        if verdict != "ok":
                            if finite and math.isfinite(loss_value):
                                guards["spikes"] += 1
                            else:
                                guards["nonfinite"] += 1
                            if verdict == "rollback":
                                raise _RollbackRequested()
                            continue  # suppress this batch's update entirely
                    if self.config.grad_clip_norm is not None:
                        _, clipped = clip_grad_norm(
                            guarded_params, self.config.grad_clip_norm
                        )
                        guards["clipped"] += int(clipped)
                    with profile_phase("optimizer"):
                        self.optimizer.step()
                        if self.threshold_optimizer is not None and thresholds_active:
                            self.threshold_optimizer.step()
                    if not use_gradient_reg:
                        with profile_phase("proximal"):
                            self._apply_proximal_regularization(lambda_ramp)
                    n = len(labels)
                    loss_avg.update(loss_value, n)
                    acc_avg.update(accuracy(logits.numpy(), labels), n)
        return loss_avg.value, acc_avg.value, guards

    def _handle_divergence(self, checkpoint: "TrainingCheckpoint | None") -> None:
        """Roll back to the last good state at a reduced learning rate."""
        if self._rollbacks >= self.config.max_rollbacks:
            raise TrainingDivergedError(
                f"training diverged again after {self._rollbacks} rollback(s); "
                f"max_rollbacks={self.config.max_rollbacks} exhausted"
            )
        self._rollbacks += 1
        self.model.zero_grad()
        restored = None
        if checkpoint is not None:
            # Empty store -> None: nothing to restore, but bad updates were
            # suppressed batch-by-batch, so the weights are still finite and
            # retrying the epoch at a lower LR is sound.
            restored = checkpoint.restore_latest(self)
        self._reduce_lr(self.config.rollback_lr_factor)
        self._monitor.reset()
        self.history.record_event(
            "rollback",
            epoch=self._epoch,
            restored_generation=restored,
            lr=self.optimizer.lr,
        )
        _LOGGER.warning(
            "divergence detected at epoch %d: restored generation %s, lr reduced to %g",
            self._epoch, restored, self.optimizer.lr,
        )

    def _reduce_lr(self, factor: float) -> None:
        """Permanently scale every learning rate (schedule base included)."""
        self.optimizer.lr *= factor
        self._scheduler.base_lr *= factor
        if self.threshold_optimizer is not None:
            self.threshold_optimizer.lr *= factor

    def _add_gate_pressure(self, lambda_ramp: float) -> None:
        """Accumulate the gate-count penalty gradient onto each threshold."""
        if not self.scheme.is_flightnn or self.config.gate_pressure == 0.0:
            return
        scale = self.config.gate_pressure * lambda_ramp
        lambdas = np.asarray(self.scheme.lambdas) * scale
        for layer in self._flightnn_layers:
            workspace = layer.quant_workspace
            # The workspace still holds this step's forward sweep (weights
            # have not moved since), so the gate statistics come for free.
            state = (
                workspace.state(layer.weight, layer.thresholds)
                if workspace is not None
                else None
            )
            grad = layer.strategy.quantizer.gate_pressure_gradient(
                layer.weight.data, layer.thresholds.data, lambdas, state=state
            )
            layer.thresholds.accumulate_grad(grad)

    def _apply_proximal_regularization(self, lambda_ramp: float = 1.0) -> None:
        """Shrink per-level residual norms of every FLightNN layer in place."""
        if not self.scheme.is_flightnn:
            return
        lambdas = tuple(lam * lambda_ramp for lam in self.scheme.lambdas)
        for layer in self._flightnn_layers:
            layer.weight.data[...] = proximal_residual_shrink(
                layer.weight.data,
                layer.thresholds.data,
                lambdas,
                layer.strategy.quantizer,
                step_size=self.optimizer.lr,
            )
            layer.weight.bump_version()

    # -- checkpointable state --------------------------------------------------

    def training_state(self) -> tuple[dict[str, np.ndarray], dict]:
        """Everything a bitwise-identical resume needs: (arrays, metadata).

        Arrays hold the model state dict (``model/<name>``) and every
        optimizer moment buffer (``optim/...``, ``threshold_optim/...``);
        the JSON-able metadata holds scheme/network identity, the epoch and
        step counters, the full :class:`TrainHistory`, the data-shuffle RNG
        state and optimizer/scheduler scalars.
        """
        arrays = {f"model/{name}": value for name, value in self.model.state_dict().items()}
        meta = {
            "scheme": self.scheme.name,
            "network_id": self.model.config.network_id,
            "epoch": self._epoch,
            "step": self._step,
            "test_accuracy": (
                self.history.epochs[-1].test_accuracy if self.history.epochs else None
            ),
            "history": self.history.as_dict(),
            "rng": self._loader_rng.bit_generator.state,
            "optimizer": _flatten_state("optim", self.optimizer.state_dict(), arrays),
            "scheduler": self._scheduler.state_dict(),
        }
        if self.threshold_optimizer is not None:
            meta["threshold_optimizer"] = _flatten_state(
                "threshold_optim", self.threshold_optimizer.state_dict(), arrays
            )
        return arrays, meta

    def load_training_state(self, arrays: dict[str, np.ndarray], meta: dict) -> None:
        """Restore a snapshot from :meth:`training_state` into this trainer.

        Raises:
            CheckpointError: When the snapshot belongs to a different
                scheme/network or does not fit the model/optimizers.
        """
        if meta.get("scheme") != self.scheme.name:
            raise CheckpointError(
                f"checkpoint scheme {meta.get('scheme')!r} does not match "
                f"model scheme {self.scheme.name!r}"
            )
        if meta.get("network_id") != self.model.config.network_id:
            raise CheckpointError(
                f"checkpoint network id {meta.get('network_id')!r} does not match "
                f"model network id {self.model.config.network_id!r}"
            )
        model_state = {
            name[len("model/"):]: value
            for name, value in arrays.items()
            if name.startswith("model/")
        }
        try:
            self.model.load_state_dict(model_state)
            self.optimizer.load_state_dict(
                _unflatten_state("optim", meta["optimizer"], arrays)
            )
            if self.threshold_optimizer is not None:
                threshold_meta = meta.get("threshold_optimizer")
                if threshold_meta is None:
                    raise CheckpointError("checkpoint lacks threshold-optimizer state")
                self.threshold_optimizer.load_state_dict(
                    _unflatten_state("threshold_optim", threshold_meta, arrays)
                )
            self._scheduler.load_state_dict(meta["scheduler"])
            self._loader_rng.bit_generator.state = meta["rng"]
        except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint does not fit this trainer: {exc}") from exc
        self._epoch = int(meta["epoch"])
        self._step = int(meta.get("step", 0))
        self.history = TrainHistory.from_dict(meta["history"])
        self._monitor.reset()
        # Restored weights invalidate every cached quantizer sweep (belt and
        # braces: version bumps in load_state_dict already miss the key, but
        # a rollback must never serve a stale decomposition).
        for layer in self._flightnn_layers:
            if layer.quant_workspace is not None:
                layer.quant_workspace.invalidate()

    # -- evaluation ------------------------------------------------------------

    def _check_eval_parity(self, engine_metrics: dict, dataset: ArrayDataset) -> None:
        """Assert engine-vs-eager agreement on the first validation pass.

        In-training validation runs through the compiled inference engine;
        this one-off cross-check (per trainer) guards against a stale or
        mis-folded compilation silently steering training decisions.
        """
        if self._parity_checked:
            return
        self._parity_checked = True
        eager = self.evaluate(dataset, use_engine=False)
        for key in ("loss", "accuracy", "top5"):
            if not math.isclose(engine_metrics[key], eager[key], rel_tol=1e-6, abs_tol=1e-8):
                raise ParityError(
                    f"compiled-engine validation disagrees with eager evaluation: "
                    f"{key} {engine_metrics[key]!r} vs {eager[key]!r}"
                )

    def evaluate(self, dataset: ArrayDataset, use_engine: bool = True) -> dict[str, float]:
        """Loss / top-1 / top-5 on ``dataset`` in inference mode.

        By default evaluation runs through the compiled inference engine
        (:mod:`repro.infer`): weights are quantized once per optimizer step
        instead of once per batch, batch-norm is folded away and no autograd
        graph is built.  The engine is compiled lazily on first use and
        transparently re-derives only the layers that changed since the last
        evaluation.  ``use_engine=False`` keeps the eager fallback (also the
        reference path the engine is parity-tested against).  The eager path
        restores the model's prior train/eval mode when it is done.
        """
        if use_engine:
            # The engine's internal batch granularity is an execution detail
            # (results are batch-size invariant), so it keeps its own
            # cache-friendly default; eval_batch_size governs the eager path.
            return self._engine().evaluate(dataset)
        was_training = self.model.training
        self.model.eval()
        loss_avg = RunningAverage()
        acc_avg = RunningAverage()
        top5_avg = RunningAverage()
        k5 = min(5, dataset.num_classes)
        loader = DataLoader(dataset, self.config.eval_batch_size, shuffle=False)
        with no_grad():
            for images, labels in loader:
                logits = self.model(Tensor(images))
                n = len(labels)
                loss_avg.update(F.cross_entropy(logits, labels).item(), n)
                acc_avg.update(accuracy(logits.numpy(), labels), n)
                top5_avg.update(topk_accuracy(logits.numpy(), labels, k5), n)
        self.model.train(was_training)
        return {"loss": loss_avg.value, "accuracy": acc_avg.value, "top5": top5_avg.value}

    def _engine(self):
        """Lazily build (once) the compiled evaluation engine for the model."""
        if self._eval_engine is None:
            # Imported here to avoid a train <-> infer import cycle.
            from repro.infer.engine import InferenceEngine

            self._eval_engine = InferenceEngine(self.model, on_stale="refresh")
        return self._eval_engine
