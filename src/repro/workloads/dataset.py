"""Synthetic MS-COCO-like image dataset (Table II substrate).

The paper archives the MS-COCO image dataset: ~41K images of tens to
hundreds of KB, ~7 GB total, staged on an EBS volume. That dataset is not
redistributable here, so we generate a synthetic one with the same shape: a
deterministic log-normal-ish size distribution over the 10 KB–600 KB range
whose mean lands near MS-COCO's ~170 KB, with stable per-image content so
archive/extract round trips are verifiable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

__all__ = ["ImageSpec", "SyntheticDataset", "mscoco_like"]

CATEGORIES = ("train", "val", "test")


@dataclass(frozen=True)
class ImageSpec:
    name: str
    size: int
    category: str

    def content(self) -> bytes:
        """Deterministic pseudo-content: cheap, but verifiable."""
        seed = hash((self.name, self.size)) & 0xFF
        return bytes([seed]) * self.size


@dataclass
class SyntheticDataset:
    images: List[ImageSpec]

    @property
    def total_bytes(self) -> int:
        return sum(im.size for im in self.images)

    def __len__(self) -> int:
        return len(self.images)

    def __iter__(self):
        return iter(self.images)


def mscoco_like(n_images: int = 41_000, seed: int = 0,
                mean_kb: float = 170.0) -> SyntheticDataset:
    """Generate an MS-COCO-shaped dataset (sizes tens–hundreds of KB).

    Sizes are drawn log-normally, one draw per image in image order, and
    clamped to the 10 KB .. 600 KB band MS-COCO spans. The draw uses the
    standard library's ``random.Random``, so the model imports no
    third-party package.
    """
    rng = random.Random(seed)
    lo, hi = 10 * 1024, 600 * 1024
    images = [
        ImageSpec(name=f"{i:012d}.jpg",
                  size=min(max(int(rng.lognormvariate(0.0, 0.6)
                                   * mean_kb * 1024), lo), hi),
                  category=CATEGORIES[i % len(CATEGORIES)])
        for i in range(n_images)
    ]
    return SyntheticDataset(images)
