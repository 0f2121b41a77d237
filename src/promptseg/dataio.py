"""Synthetic segmentation data, preprocessing, and fixture persistence.

Each sample is one textured foreground shape on a noisy background; the phrase
names the class ("red circle", "yellow stripe", ...).  Fixtures are stored as
plain-text PPM/PGM files plus a JSON-lines manifest so they are diffable and
dependency-free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import ConfigError, ShapeError

SPLITS = ("train", "val", "test")   # a fixture's splits, each non-empty


@dataclass
class SegmentationSample:
    image: np.ndarray      # [3, H, W] floats in [0, 1]
    phrase: str
    mask: np.ndarray       # [H, W] in {0, 1}
    class_id: int

    def __post_init__(self):
        if self.image.shape[1:] != self.mask.shape:
            raise ShapeError(
                f"mask {self.mask.shape} does not match image {self.image.shape}"
            )
        if not self.phrase:
            raise ValueError("phrase must be nonempty")


# name, shape, fill color
PALETTE = [
    ("green square", "square", (0.15, 0.85, 0.20)),
    ("yellow stripe", "stripe", (0.92, 0.88, 0.15)),
    ("red circle", "circle", (0.90, 0.15, 0.15)),
    ("blue triangle", "triangle", (0.15, 0.25, 0.90)),
    ("cyan square", "square", (0.10, 0.85, 0.85)),
    ("magenta circle", "circle", (0.88, 0.15, 0.85)),
    ("white stripe", "stripe", (0.95, 0.95, 0.95)),
    ("orange triangle", "triangle", (0.95, 0.55, 0.10)),
    ("teal circle", "circle", (0.10, 0.55, 0.55)),
    ("pink square", "square", (0.95, 0.60, 0.70)),
]


@dataclass
class SyntheticTaskSpec:
    n_classes: int
    image_size: int
    samples_per_split: dict
    seed: int
    align: int         # snap shape geometry to this pixel grid

    def __post_init__(self):
        if not 2 <= self.n_classes <= len(PALETTE):
            raise ConfigError(
                f"n_classes must be in [2, {len(PALETTE)}], got {self.n_classes}"
            )
        if self.align > self.image_size:
            raise ConfigError(f"align {self.align} exceeds image_size {self.image_size}")


def _snap(value: int, align: int) -> int:
    return max(align, (int(value) // align) * align)


def _snap_pos(value: int, align: int, upper: int) -> int:
    return min((int(value) // align) * align, upper)


def _shape_mask(shape: str, size: int, rng, align: int) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    if shape == "circle":
        r = int(rng.integers(size // 6, size // 3 + 1))
        cx = int(rng.integers(r, size - r))
        cy = int(rng.integers(r, size - r))
        return ((xx - cx) ** 2 + (yy - cy) ** 2 <= r * r).astype(np.uint8)
    if shape == "square":
        side = _snap(rng.integers(size // 4, size // 2 + 1), align)
        x0 = _snap_pos(rng.integers(0, size - side + 1), align, size - side)
        y0 = _snap_pos(rng.integers(0, size - side + 1), align, size - side)
        m = np.zeros((size, size), dtype=np.uint8)
        m[y0 : y0 + side, x0 : x0 + side] = 1
        return m
    if shape == "triangle":
        side = int(rng.integers(size // 3, size // 2 + 1))
        x0 = int(rng.integers(0, size - side))
        y0 = int(rng.integers(0, size - side))
        local_x = xx - x0
        local_y = yy - y0
        inside = (local_x >= 0) & (local_y >= 0) & (local_x + local_y <= side)
        return inside.astype(np.uint8)
    if shape == "stripe":
        h = _snap(rng.integers(size // 6, size // 3 + 1), align)
        y0 = _snap_pos(rng.integers(0, size - h + 1), align, size - h)
        m = np.zeros((size, size), dtype=np.uint8)
        m[y0 : y0 + h, :] = 1
        return m
    raise ConfigError(f"unknown shape {shape!r}")


def generate_sample(spec: SyntheticTaskSpec, class_id: int, rng) -> SegmentationSample:
    name, shape, color = PALETTE[class_id]
    size = spec.image_size
    mask = _shape_mask(shape, size, rng, spec.align)
    image = 0.04 + 0.04 * rng.random((3, size, size))
    yy, xx = np.mgrid[0:size, 0:size]
    texture = 0.03 * np.sin(2.0 * np.pi * (class_id + 2) * (xx + yy) / size)
    for c in range(3):
        chan = image[c]
        chan[mask == 1] = np.clip(color[c] + texture[mask == 1], 0.0, 1.0)
    return SegmentationSample(image=image, phrase=name, mask=mask, class_id=class_id)


def generate_dataset(spec: SyntheticTaskSpec) -> dict[str, list[SegmentationSample]]:
    """Reproducible splits with disjoint seed streams and exactly balanced classes."""
    splits: dict[str, list[SegmentationSample]] = {}
    for split_idx, (split, count) in enumerate(sorted(spec.samples_per_split.items())):
        rng = np.random.default_rng([spec.seed, split_idx])
        class_ids = [i % spec.n_classes for i in range(count)]
        rng.shuffle(class_ids)
        splits[split] = [generate_sample(spec, cid, rng) for cid in class_ids]
    return splits


# -- bicubic resize ----------------------------------------------------------


def cubic_kernel(t: float) -> float:
    """Catmull-Rom cubic interpolation kernel (a = -0.5)."""
    a = -0.5
    t = abs(t)
    if t <= 1.0:
        return (a + 2.0) * t**3 - (a + 3.0) * t**2 + 1.0
    if t < 2.0:
        return a * t**3 - 5.0 * a * t**2 + 8.0 * a * t - 4.0 * a
    return 0.0


def _resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    M = np.zeros((n_out, n_in))
    scale = n_in / n_out
    for i in range(n_out):
        src = (i + 0.5) * scale - 0.5
        i0 = int(np.floor(src))
        frac = src - i0
        for k in range(-1, 3):
            idx = min(max(i0 + k, 0), n_in - 1)
            M[i, idx] += cubic_kernel(k - frac)
    return M


def resize_bicubic(image: np.ndarray, target: int) -> np.ndarray:
    """Catmull-Rom (a=-0.5) separable resize of a ``[c, h, w]`` image,
    align-corners=false."""
    if target < 4:
        raise ConfigError(f"resize target must be at least 4, got {target}")
    image = np.asarray(image, dtype=np.float64)
    c, h, w = image.shape
    if h < 2 or w < 2:
        raise ShapeError(f"cannot resize degenerate image of size {h}x{w}")
    Mr = _resize_matrix(h, target)
    Mc = _resize_matrix(w, target)
    return np.einsum("ih,chw,jw->cij", Mr, image, Mc)


def resize_sample(sample: SegmentationSample, size: int) -> SegmentationSample:
    """The sample at ``size`` x ``size``, or as is if already there: bicubic
    image clipped to [0, 1], nearest-neighbour mask (align-corners=false)."""
    _, h, w = sample.image.shape
    if (h, w) == (size, size):
        return sample
    centers = 2 * np.arange(size) + 1
    rows, cols = centers * h // (2 * size), centers * w // (2 * size)
    return SegmentationSample(
        image=np.clip(resize_bicubic(sample.image, size), 0.0, 1.0),
        phrase=sample.phrase, mask=sample.mask[np.ix_(rows, cols)],
        class_id=sample.class_id,
    )


# -- augmentation ------------------------------------------------------------


def apply_affine(sample: SegmentationSample, scale: float, tx: float, ty: float,
                 rot_deg: float, brightness: float, contrast: float) -> SegmentationSample:
    """Shared affine warp (bilinear image, nearest mask) plus photometric jitter."""
    _, h, w = sample.image.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = np.deg2rad(rot_deg)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    # invert dst = R*s*(src-c) + c + t
    dx = (xx - cx - tx) / scale
    dy = (yy - cy - ty) / scale
    src_x = cos_t * dx + sin_t * dy + cx
    src_y = -sin_t * dx + cos_t * dy + cy

    x0 = np.floor(src_x).astype(int)
    y0 = np.floor(src_y).astype(int)
    fx = src_x - x0
    fy = src_y - y0
    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)
    y0c = np.clip(y0, 0, h - 1)
    y1c = np.clip(y0 + 1, 0, h - 1)

    image = np.empty_like(sample.image)
    for ch in range(3):
        d = sample.image[ch]
        image[ch] = (
            d[y0c, x0c] * (1 - fy) * (1 - fx)
            + d[y0c, x1c] * (1 - fy) * fx
            + d[y1c, x0c] * fy * (1 - fx)
            + d[y1c, x1c] * fy * fx
        )
    image = np.clip((image + brightness - 0.5) * contrast + 0.5, 0.0, 1.0)

    nx = np.clip(np.rint(src_x).astype(int), -1, w)
    ny = np.clip(np.rint(src_y).astype(int), -1, h)
    inside = (nx >= 0) & (nx < w) & (ny >= 0) & (ny < h)
    mask = np.zeros_like(sample.mask)
    mask[inside] = sample.mask[ny[inside], nx[inside]]

    return SegmentationSample(image=image, phrase=sample.phrase, mask=mask,
                              class_id=sample.class_id)


def augment(sample: SegmentationSample, rng) -> SegmentationSample:
    """Light training-split jitter: scale 2%, translate 2%, rotate 5 degrees,
    brightness/contrast 10%."""
    size = sample.image.shape[-1]
    scale = 1.0 + rng.uniform(-0.02, 0.02)
    tx = rng.uniform(-0.02, 0.02) * size
    ty = rng.uniform(-0.02, 0.02) * size
    rot = rng.uniform(-5.0, 5.0)
    brightness = rng.uniform(-0.10, 0.10)
    contrast = 1.0 + rng.uniform(-0.10, 0.10)
    return apply_affine(sample, scale, tx, ty, rot, brightness, contrast)


# -- fixture persistence -----------------------------------------------------

_IMG_MAXVAL = 65535


def _write_ppm(path: Path, image: np.ndarray) -> None:
    c, h, w = image.shape
    q = np.rint(np.clip(image, 0.0, 1.0) * _IMG_MAXVAL).astype(np.int64)
    flat = q.transpose(1, 2, 0).reshape(-1)
    with open(path, "w") as f:
        f.write(f"P3\n{w} {h}\n{_IMG_MAXVAL}\n")
        f.write("\n".join(" ".join(map(str, flat[i : i + 12])) for i in range(0, len(flat), 12)))
        f.write("\n")


def _read_text(path) -> str:
    """The text of ``path``; a byte that is not UTF-8 is a ``ConfigError``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None


def _read_tokens(path: Path) -> list[str]:
    tokens = []
    for line in _read_text(path).splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    return tokens


def _read_plain(path: Path, magic: str, kind: str, channels: int):
    """(w, h, maxval, pixel values) of a plain PPM/PGM file; a wrong magic,
    a token that is not a number or missing values is a ``ConfigError``
    naming the file."""
    tokens = _read_tokens(path)
    if len(tokens) < 4 or tokens[0] != magic:
        raise ConfigError(f"{path} is not a plain {kind} file")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        vals = np.array(tokens[4 : 4 + channels * w * h], dtype=np.float64)
    except ValueError:
        raise ConfigError(f"{path} holds a header or pixel value that is not a number") \
            from None
    if len(vals) < channels * w * h:
        raise ConfigError(f"{path} holds {len(vals)} of the {channels * w * h} values "
                          f"of a {w}x{h} {kind} file")
    return w, h, maxval, vals


def _read_ppm(path: Path) -> np.ndarray:
    w, h, maxval, vals = _read_plain(path, "P3", "PPM", 3)
    return vals.reshape(h, w, 3).transpose(2, 0, 1) / maxval


def _write_pgm(path: Path, mask: np.ndarray) -> None:
    h, w = mask.shape
    flat = mask.astype(np.int64).reshape(-1)
    with open(path, "w") as f:
        f.write(f"P2\n{w} {h}\n1\n")
        f.write("\n".join(" ".join(map(str, flat[i : i + 32])) for i in range(0, len(flat), 32)))
        f.write("\n")


def _read_pgm(path: Path) -> np.ndarray:
    w, h, _, vals = _read_plain(path, "P2", "PGM", 1)
    return vals.astype(np.uint8).reshape(h, w)


def json_line(path, n: int, line: str, types: dict) -> dict:
    """Line ``n`` of the JSON-lines file ``path``, an object holding exactly
    the keys of ``types``, each value of its type; anything else is a
    ``ConfigError`` naming the file and the line."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} line {n} is not valid JSON: {exc.msg}") from None
    missing = [k for k in types if not isinstance(rec, dict) or k not in rec]
    if missing:
        raise ConfigError(f"{path} line {n} lacks {', '.join(map(repr, missing))}")
    bad = [k for k in rec if not isinstance(rec[k], types.get(k, ()))]  # () matches nothing
    if bad:
        raise ConfigError(f"{path} line {n} holds an unknown or mistyped "
                          f"{', '.join(map(repr, bad))}")
    return rec


def save_dataset(root, splits: dict[str, list[SegmentationSample]]) -> str:
    """Write images, masks, and the JSON-lines manifest; returns manifest path."""
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "masks").mkdir(parents=True, exist_ok=True)
    manifest = root / "manifest.jsonl"
    with open(manifest, "w") as f:
        for split, samples in splits.items():
            for i, s in enumerate(samples):
                img_rel = f"images/{split}_{i:04d}.ppm"
                mask_rel = f"masks/{split}_{i:04d}.pgm"
                _write_ppm(root / img_rel, s.image)
                _write_pgm(root / mask_rel, s.mask)
                f.write(json.dumps({
                    "image_path": img_rel,
                    "mask_path": mask_rel,
                    "phrase": s.phrase,
                    "class_id": s.class_id,
                    "split": split,
                }) + "\n")
    return str(manifest)


def load_dataset(root) -> dict[str, list[SegmentationSample]]:
    """The fixture ``save_dataset`` wrote under ``root``; a manifest line that
    is no train, val or test record, or an empty split, is a ``ConfigError``."""
    manifest = Path(root) / "manifest.jsonl"
    splits: dict[str, list[SegmentationSample]] = {}
    for n, line in enumerate(_read_text(manifest).splitlines(), 1):
        rec = json_line(manifest, n, line, {"image_path": str, "mask_path": str,
                                            "phrase": str, "class_id": int, "split": str})
        if rec["split"] not in SPLITS:
            raise ConfigError(f"{manifest} line {n} names split {rec['split']!r}, "
                              f"not one of {', '.join(SPLITS)}")
        splits.setdefault(rec["split"], []).append(SegmentationSample(
            image=_read_ppm(manifest.parent / rec["image_path"]),
            phrase=rec["phrase"],
            mask=_read_pgm(manifest.parent / rec["mask_path"]),
            class_id=rec["class_id"],
        ))
    for split in SPLITS:
        if split not in splits:
            raise ConfigError(f"{manifest} holds no {split} sample")
    return splits
