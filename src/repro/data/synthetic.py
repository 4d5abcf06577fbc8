"""Procedural image-classification task generator.

Each class is defined by a smooth random *prototype texture* (a coarse
random grid upsampled to the image resolution).  A sample is its class
prototype under a random amplitude, a small random translation, and
additive Gaussian noise.  The ``noise`` knob controls task difficulty:
higher noise narrows the margin, which is what makes weight quantization
*measurably* hurt accuracy — the property the paper's accuracy comparisons
rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataError
from repro.data.dataset import ArrayDataset, DataSplit
from repro.utils.rng import as_generator, spawn_generators

__all__ = ["SyntheticImageConfig", "generate_synthetic_images"]


@dataclass(frozen=True)
class SyntheticImageConfig:
    """Parameters of one synthetic classification task.

    Args:
        num_classes: Number of target classes.
        channels: Image channels (3 for the RGB-like stand-ins).
        image_size: Square image side in pixels.
        train_size / test_size: Samples per split.
        noise: Additive Gaussian noise standard deviation.
        prototype_grid: Side of the coarse random grid defining each class
            texture (smaller = smoother, easier task).
        amplitude_jitter: Relative spread of the per-sample amplitude.
        max_shift: Largest circular translation in pixels.
        seed: Master seed; the task (prototypes) and the samples derive
            their own independent streams from it.
    """

    num_classes: int = 10
    channels: int = 3
    image_size: int = 16
    train_size: int = 512
    test_size: int = 256
    noise: float = 0.6
    prototype_grid: int = 4
    amplitude_jitter: float = 0.25
    max_shift: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise DataError("num_classes must be >= 2")
        if min(self.channels, self.image_size, self.train_size, self.test_size) < 1:
            raise DataError("channels, image_size and split sizes must be positive")
        if self.noise < 0:
            raise DataError("noise must be non-negative")
        if not 1 <= self.prototype_grid <= self.image_size:
            raise DataError("prototype_grid must be in [1, image_size]")


def _make_prototypes(config: SyntheticImageConfig, rng: np.random.Generator) -> np.ndarray:
    """Smooth per-class textures of shape (classes, C, H, W), unit RMS."""
    # Imported here: ``repro.data`` sits on the inference import path, which
    # never generates data and should not pay for loading scipy.
    from scipy import ndimage

    coarse = rng.normal(
        size=(config.num_classes, config.channels, config.prototype_grid, config.prototype_grid)
    )
    zoom = config.image_size / config.prototype_grid
    protos = ndimage.zoom(coarse, (1, 1, zoom, zoom), order=1)
    rms = np.sqrt((protos**2).mean(axis=(1, 2, 3), keepdims=True))
    return protos / np.maximum(rms, 1e-12)


def _sample_split(
    prototypes: np.ndarray,
    config: SyntheticImageConfig,
    size: int,
    rng: np.random.Generator,
) -> ArrayDataset:
    labels = rng.integers(0, config.num_classes, size=size)
    images = prototypes[labels].copy()
    amplitude = 1.0 + config.amplitude_jitter * rng.normal(size=(size, 1, 1, 1))
    images *= amplitude
    if config.max_shift > 0:
        shifts = rng.integers(-config.max_shift, config.max_shift + 1, size=(size, 2))
        for i, (dy, dx) in enumerate(shifts):
            images[i] = np.roll(images[i], (int(dy), int(dx)), axis=(1, 2))
    images += config.noise * rng.normal(size=images.shape)
    return ArrayDataset(images, labels, config.num_classes)


def generate_synthetic_images(config: SyntheticImageConfig, name: str = "synthetic") -> DataSplit:
    """Generate a train/test split for one synthetic task.

    The prototypes (the "task") and the two sample draws use independent
    RNG streams spawned from ``config.seed``, so regenerating with the same
    seed is fully deterministic and train/test share the task but not
    samples.
    """
    proto_rng, train_rng, test_rng = spawn_generators(as_generator(config.seed), 3)
    prototypes = _make_prototypes(config, proto_rng)
    return DataSplit(
        train=_sample_split(prototypes, config, config.train_size, train_rng),
        test=_sample_split(prototypes, config, config.test_size, test_rng),
        name=name,
    )
