"""Multimodal columns: image/audio/video as opaque ``binary`` columns with
typed metadata, processed by actor-pool map_batches stages.

Decode is REAL for the formats a from-scratch engine can own: BMP + PNG
images and 16-bit PCM WAV audio (core/media.py), plus baseline JPEG
(core/jpeg.py — own T.81 codec, round 3). Formats still needing external
codecs (MP3, video) raise ``NotImplementedError``
unless ``fake=True``, in which case a deterministic sha-seeded stand-in keeps
the Ray-side plumbing — schema, batch sizing, actor signature, output
layout — real and tested end-to-end (driver mandate).

Design notes for 100 TB: binary payloads dominate block size, so these
stages must run with SMALL batch_size (memory = batch_size x payload x
concurrency) and the payload column must be dropped as soon as features are
extracted. ``media_meta_batch`` is the cheap pass that sizes payloads without
decoding.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


def media_meta_batch(batch: pa.Table, media_col: str = "media") -> pa.Table:
    """Cheap metadata pass (no decode): payload byte size + sha256 prefix."""
    import pyarrow.compute as pc

    sizes = pc.binary_length(batch[media_col]).cast(pa.int64())
    digests = pa.array(
        [hashlib.sha256(b).hexdigest()[:16] if b is not None else None
         for b in batch[media_col].to_pylist()],
        pa.string(),
    )
    return batch.append_column("media_bytes", sizes).append_column("media_sha", digests)


class ImageDecoder:
    """Actor-pool stage: binary image -> (height, width, channels) features.

    BMP and PNG decode natively (core/media.py); other formats raise unless
    ``fake=True`` (deterministic sha-seeded stand-in image)."""

    def __init__(self, fake: bool = False, target_size: int = 32, media_col: str = "media",
                 on_error: str = "raise"):
        self.fake = fake
        self.size = target_size
        self.media_col = media_col
        self.on_error = on_error  # "raise" | "skip" (null feature + decode_ok=False)

    def _decode(self, payload: bytes) -> np.ndarray:
        # REAL decode for the formats we own (core/media.py + core/jpeg.py);
        # fake stub or NotImplementedError for the rest
        from ..core.jpeg import decode_jpeg
        from ..core.media import decode_bmp, decode_png

        if payload[:2] == b"BM":
            return decode_bmp(payload)
        if payload[:8] == b"\x89PNG\r\n\x1a\n":
            img = decode_png(payload)
            return img[:, :, :3]
        if payload[:2] == b"\xff\xd8":
            return decode_jpeg(payload)
        if not self.fake:
            raise NotImplementedError(
                "only BMP/PNG/JPEG(baseline) decode supported natively; other "
                "formats need codecs not present in this container — "
                "construct with fake=True for the deterministic stub"
            )
        h = hashlib.sha256(payload).digest()
        rng_base = np.frombuffer((h * ((3 * 64 * 64) // 32 + 1))[: 3 * 64 * 64], dtype=np.uint8)
        return rng_base.reshape(64, 64, 3)

    def _resize(self, img: np.ndarray) -> np.ndarray:
        # nearest-neighbour resize (no deps): same kernel as raster resample
        from ..core.raster import resample_nearest

        return np.stack(
            [resample_nearest(img[:, :, c], self.size, self.size) for c in range(img.shape[2])],
            axis=2,
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats, hh, ww, ok = [], [], [], []
        for payload in batch[self.media_col].to_pylist():
            try:
                img = self._decode(payload)
            except Exception:
                # at corpus scale a corrupt payload must not kill the task;
                # "skip" records the failure row-level instead
                if self.on_error != "skip":
                    raise
                # empty list, not null: Ray's pandas tensor extension cannot
                # represent a null among list rows
                feats.append([]); hh.append(-1); ww.append(-1); ok.append(False)
                continue
            hh.append(img.shape[0])
            ww.append(img.shape[1])
            ok.append(True)
            small = self._resize(img).astype(np.float32)
            # feature = per-channel mean+std (6-dim) — stand-in for an embedding
            feats.append(
                np.concatenate([small.mean(axis=(0, 1)), small.std(axis=(0, 1))]).tolist()
            )
        out = batch.drop_columns([self.media_col])  # project payload away ASAP
        out = out.append_column("img_h", pa.array(hh, pa.int32()))
        out = out.append_column("img_w", pa.array(ww, pa.int32()))
        out = out.append_column("decode_ok", pa.array(ok, pa.bool_()))
        return out.append_column("img_feat", pa.array(feats, pa.list_(pa.float32())))


def audio_meta_batch(batch: pa.Table, media_col: str = "media") -> pa.Table:
    """Header-only audio metadata (NO decode): WAV headers and MP3
    Layer-III frame walks (core/media.py:mp3_meta — round 4 closes the
    MP3 metadata path; entropy decode stays the documented refusal).
    Adds codec/sample_rate/channels/duration_ms/n_frames/bitrate_kbps/vbr;
    unknown payloads get codec=None. Header walks touch only byte offsets,
    so this pass is safe at normal batch sizes, unlike full decode."""
    from ..core.media import mp3_meta, wav_meta

    rows = []
    for payload in batch[media_col].to_pylist():
        meta = None
        if payload is not None:
            if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
                meta = wav_meta(payload)
            elif payload[:3] == b"ID3" or (len(payload) >= 2 and payload[0] == 0xFF
                                           and (payload[1] & 0xE0) == 0xE0):
                meta = mp3_meta(payload)
        rows.append(meta or {"codec": None, "n_frames": None, "sample_rate": None,
                             "channels": None, "duration_ms": None,
                             "bitrate_kbps": None, "vbr": None})
    out = batch.drop_columns([media_col])
    out = out.append_column("codec", pa.array([r["codec"] for r in rows], pa.string()))
    out = out.append_column("sample_rate", pa.array([r["sample_rate"] for r in rows], pa.int32()))
    out = out.append_column("channels", pa.array([r["channels"] for r in rows], pa.int8()))
    out = out.append_column("n_frames", pa.array([r["n_frames"] for r in rows], pa.int64()))
    out = out.append_column("duration_ms", pa.array([r["duration_ms"] for r in rows], pa.float64()))
    out = out.append_column("bitrate_kbps", pa.array([r["bitrate_kbps"] for r in rows], pa.float64()))
    return out.append_column("vbr", pa.array([r["vbr"] for r in rows], pa.bool_()))


def video_meta_batch(batch: pa.Table, media_col: str = "media") -> pa.Table:
    """Header-only MP4/ISO-BMFF video metadata (NO sample decode):
    core/media.py:mp4_meta walks ftyp/moov/trak/stsd boxes — container
    brand, movie duration, track count, first video/audio sample-entry
    codec fourccs, frame dimensions, audio sample rate. mdat is never
    touched (H.264/AAC entropy decode is the documented refusal), so the
    pass is byte-offset-only and safe at normal batch sizes."""
    from ..core.media import mp4_meta

    rows = []
    for payload in batch[media_col].to_pylist():
        meta = None
        if payload is not None and len(payload) >= 12 and payload[4:8] == b"ftyp":
            meta = mp4_meta(payload)
        rows.append(meta or {"container": None, "major_brand": None,
                             "duration_ms": None, "n_tracks": None,
                             "video_codec": None, "width": None, "height": None,
                             "audio_codec": None, "audio_sample_rate": None})
    out = batch.drop_columns([media_col])
    out = out.append_column("container", pa.array([r["container"] for r in rows], pa.string()))
    out = out.append_column("major_brand", pa.array([r["major_brand"] for r in rows], pa.string()))
    out = out.append_column("duration_ms", pa.array([r["duration_ms"] for r in rows], pa.float64()))
    out = out.append_column("n_tracks", pa.array([r["n_tracks"] for r in rows], pa.int32()))
    out = out.append_column("video_codec", pa.array([r["video_codec"] for r in rows], pa.string()))
    out = out.append_column("width", pa.array([r["width"] for r in rows], pa.int32()))
    out = out.append_column("height", pa.array([r["height"] for r in rows], pa.int32()))
    out = out.append_column("audio_codec", pa.array([r["audio_codec"] for r in rows], pa.string()))
    return out.append_column("audio_sample_rate", pa.array(
        [r["audio_sample_rate"] for r in rows], pa.int32()))


class AudioFrameSampler:
    """Actor-pool stage: binary audio -> fixed-rate frame features (stub)."""

    def __init__(self, fake: bool = False, frames: int = 8, media_col: str = "media"):
        self.fake = fake
        self.frames = frames
        self.media_col = media_col

    def _decode(self, payload: bytes) -> np.ndarray:
        from ..core.media import decode_wav

        if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
            pcm, _rate = decode_wav(payload)
            return pcm
        if not self.fake:
            raise NotImplementedError(
                "only 16-bit PCM WAV decode supported natively; compressed "
                "audio needs codecs not present in this container — construct "
                "with fake=True for the deterministic stub"
            )
        h = hashlib.sha256(payload).digest()
        pcm = np.frombuffer((h * 257)[: 1024 * 2], dtype="<i2").astype(np.float32) / 32768.0
        return pcm

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = []
        for payload in batch[self.media_col].to_pylist():
            pcm = self._decode(payload)
            seg = np.array_split(pcm, self.frames)
            feats.append([float(np.sqrt((s**2).mean())) for s in seg])  # per-frame RMS
        out = batch.drop_columns([self.media_col])
        return out.append_column("audio_rms", pa.array(feats, pa.list_(pa.float32())))


def dhash64(img: np.ndarray) -> np.uint64:
    """Difference hash (dHash) of an RGB image: integer luma -> 8x9
    box-average downsample (area pooling over floor-boundary boxes, fully
    deterministic) -> 64 bits of horizontal gradient sign (bit r*8+c set iff
    cell (r, c) < cell (r, c+1)). Near-identical images differ in a few
    bits; the standard perceptual prefilter for image near-dup dedup."""
    g = (img[:, :, 0].astype(np.int32) * 299
         + img[:, :, 1].astype(np.int32) * 587
         + img[:, :, 2].astype(np.int32) * 114) // 1000
    H, W = g.shape
    rb = (np.arange(9, dtype=np.int64) * H) // 8
    cb = (np.arange(10, dtype=np.int64) * W) // 9
    cs = np.pad(np.cumsum(np.cumsum(g, axis=0), axis=1), ((1, 0), (1, 0)))
    box = (cs[rb[1:], :][:, cb[1:]] - cs[rb[:-1], :][:, cb[1:]]
           - cs[rb[1:], :][:, cb[:-1]] + cs[rb[:-1], :][:, cb[:-1]])
    area = ((rb[1:] - rb[:-1])[:, None] * (cb[1:] - cb[:-1])[None, :])
    small = box / area
    bits = (small[:, :-1] < small[:, 1:]).ravel()
    return np.uint64(np.sum(bits.astype(np.uint64) << np.arange(64, dtype=np.uint64)))


class ImageDHasher:
    """Actor-pool stage: binary image -> (id, 64-bit dHash). Same decode
    contract as ImageDecoder (real BMP/PNG; fake=True for the deterministic
    stand-in); payload projected away immediately."""

    def __init__(self, fake: bool = False, media_col: str = "media",
                 id_col: str = "doc_id"):
        self._dec = ImageDecoder(fake=fake, media_col=media_col)
        self.media_col = media_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        hs = np.empty(batch.num_rows, np.uint64)
        for i, payload in enumerate(batch[self.media_col].to_pylist()):
            hs[i] = dhash64(self._dec._decode(payload))
        return pa.table({self.id_col: batch[self.id_col],
                         "dhash": pa.array(hs, pa.uint64())})


def image_near_dups(ds, max_hamming: int = 3, media_col: str = "media",
                    id_col: str = "doc_id", fake: bool = False,
                    batch_size: int = 64):
    """Image near-dup pairs: actor-pool dHash (small batch_size — binary
    payloads dominate block memory) then the shared 4x16-bit band blocking
    + all-pairs Hamming verify (stages/dedup.py:hamming_band_pairs). Only
    slim (id, dhash) rows ever shuffle; pixels never leave the decode
    stage."""
    from ..state.pool import actor_pool_size
    from .dedup import hamming_band_pairs

    hashed = ds.map_batches(
        ImageDHasher,
        fn_constructor_kwargs={"fake": fake, "media_col": media_col,
                               "id_col": id_col},
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=actor_pool_size(), batch_size=batch_size,
    )
    return hamming_band_pairs(hashed, "dhash", id_col, max_hamming)
