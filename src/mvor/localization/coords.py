"""Coordinate plumbing between region crops and the matching resolution."""

from __future__ import annotations

import numpy as np


def crop_matching_coords(crop, resolution: int):
    """All hits of a crop as (feature_ids, matching coords, view dirs).

    Coordinates come from the stored exact sub-pixel projections, so a
    noiseless match round-trips to the source geometry exactly.
    """
    local = crop.px - np.array([crop.col0, crop.row0])
    return crop.feature_ids, crop.pad_map(resolution).to_norm(local), crop.view_local


def matching_to_image_coords(crop, xy: np.ndarray, resolution: int) -> np.ndarray:
    """Matching-res coords -> continuous (u, v) in the crop's source image."""
    local = crop.pad_map(resolution).from_norm(xy)
    return local + np.array([crop.col0, crop.row0], dtype=float)


def matching_to_source_pixels(crop, xy: np.ndarray, resolution: int):
    """Matching-res coords -> nearest integer crop pixel (rows, cols), which
    may lie outside the crop."""
    local = crop.pad_map(resolution).from_norm(xy)
    cols = np.floor(local[:, 0] + 0.5).astype(int)
    rows = np.floor(local[:, 1] + 0.5).astype(int)
    return rows, cols
