//! Versioned binary checkpoints for trained ensembles.
//!
//! The paper's online setting (Section 4.2.7 / Table 8) assumes training
//! happens offline and the online phase only runs the already-learned
//! ensemble — which requires moving a trained [`CaeEnsemble`](crate::CaeEnsemble) between
//! processes. This module defines **format v1**, a self-contained binary
//! layout that round-trips an ensemble bit-exactly (all floats are stored
//! as their exact IEEE-754 little-endian bytes):
//!
//! ```text
//! magic     4 bytes  b"CAEE"
//! version   u32      format version (currently 1)
//! model     CaeConfig — dims/window/layers/kernel as u64, flags and
//!                      activation/target tags as u8
//! training  EnsembleConfig — every field, fixed order
//! scaler    u8 present flag; if 1: dim u64, mean f32×dim, std f32×dim
//! members   u64 count; per member: u64 param count; per parameter:
//!                      name (u64 length + UTF-8), rank u64, dims u64×rank,
//!                      values f32×len
//! checksum  u64      FNV-1a 64 over every preceding byte
//! ```
//!
//! All integers and floats are little-endian. Loading is panic-free:
//! every malformed input — truncation, flipped bytes, wrong magic, a
//! future version, or a scaler whose dimensionality disagrees with the
//! model configuration — surfaces as a typed [`PersistError`].
//!
//! The training loss trace is diagnostic state, not model state, and is
//! deliberately not persisted; a loaded ensemble has an empty trace.

// Checkpoint saving and loading must not panic: clippy's restriction
// lints ban the panicking shortcuts in this module (test code is exempt
// through `clippy.toml`).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::unwrap_in_result
)]

use crate::config::{CaeConfig, EnsembleConfig, ReconstructionTarget};
use crate::model::Cae;
use cae_autograd::ParamStore;
use cae_chaos as chaos;
use cae_data::Scaler;
use cae_nn::Activation;
use cae_tensor::{Shape, Tensor};
use std::fmt;
use std::io;
use std::path::Path;

/// First bytes of every checkpoint file.
pub const MAGIC: [u8; 4] = *b"CAEE";

/// The format version this build writes (and the newest it can read).
pub const FORMAT_VERSION: u32 = 1;

/// Why a checkpoint could not be written or read.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not a checkpoint.
    BadMagic,
    /// The file was written by a newer format than this build understands.
    UnsupportedVersion(u32),
    /// The stored checksum does not match the file contents.
    ChecksumMismatch,
    /// The file is structurally invalid: truncated, an invalid enum tag,
    /// a parameter layout that does not fit the stored configuration, …
    Corrupt(String),
    /// The stored scaler's dimensionality disagrees with the stored
    /// model configuration.
    ScalerDimMismatch {
        /// Dimensionality of the stored scaler.
        scaler: usize,
        /// Input dimensionality `D` of the stored model configuration.
        model: usize,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            PersistError::BadMagic => write!(f, "not a CAE-Ensemble checkpoint (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "checkpoint format v{v} is newer than supported v{FORMAT_VERSION}"
                )
            }
            PersistError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            PersistError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            PersistError::ScalerDimMismatch { scaler, model } => write!(
                f,
                "stored scaler has {scaler} dimensions but the model expects {model}"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

pub mod wire {
    //! Shared little-endian framing primitives behind every durable
    //! artifact in the workspace.
    //!
    //! The checkpoint format v1 established the on-disk discipline —
    //! magic + version header, fixed-order little-endian fields, a
    //! trailing FNV-1a 64 checksum, atomic temp+rename writes, typed
    //! errors for every malformed input. The fleet snapshot (`cae-serve`)
    //! and adaptation state (`cae-adapt`) reuse exactly that machinery
    //! through this module instead of re-implementing it: a [`Writer`]
    //! builds a checksummed frame, [`Reader::framed`] validates and opens
    //! one, and [`write_atomic`] stages bytes through a sibling temp file
    //! with a chaos failpoint guarding both the write and the rename.

    use super::PersistError;
    use cae_chaos::FailPoint;
    use std::io;
    use std::path::Path;

    pub use cae_data::journal::fnv1a;

    /// The injected I/O failure a tripped persistence failpoint surfaces.
    pub fn injected_io(site: &str, stage: &str) -> PersistError {
        PersistError::Io(io::Error::other(format!(
            "chaos: injected fault at `{site}` ({stage})"
        )))
    }

    /// Builds a little-endian byte frame field by field.
    #[derive(Debug, Default)]
    pub struct Writer {
        buf: Vec<u8>,
    }

    impl Writer {
        /// An empty frame body (no header).
        pub fn new() -> Self {
            Writer { buf: Vec::new() }
        }

        /// A frame opened with `magic` and a `version` header — the
        /// layout [`Reader::framed`] validates.
        pub fn framed(magic: [u8; 4], version: u32) -> Self {
            let mut w = Writer::new();
            w.buf.extend_from_slice(&magic);
            w.u32(version);
            w
        }

        /// Bytes written so far.
        pub fn len(&self) -> usize {
            self.buf.len()
        }

        /// Whether nothing has been written yet.
        pub fn is_empty(&self) -> bool {
            self.buf.is_empty()
        }

        /// Appends one byte.
        pub fn u8(&mut self, v: u8) {
            self.buf.push(v);
        }

        /// Appends a bool as one byte (0 or 1).
        pub fn bool(&mut self, v: bool) {
            self.buf.push(u8::from(v));
        }

        /// Appends a little-endian u32.
        pub fn u32(&mut self, v: u32) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Appends a little-endian u64.
        pub fn u64(&mut self, v: u64) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Appends a usize as a little-endian u64.
        pub fn usize(&mut self, v: usize) {
            self.u64(v as u64);
        }

        /// Appends an f32 as its exact IEEE-754 little-endian bytes.
        pub fn f32(&mut self, v: f32) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Appends an f64 as its exact IEEE-754 little-endian bytes.
        pub fn f64(&mut self, v: f64) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        /// Appends every value in order (no length prefix).
        pub fn f32_slice(&mut self, values: &[f32]) {
            self.buf.reserve(values.len() * 4);
            for &v in values {
                self.f32(v);
            }
        }

        /// Appends a u64 length prefix followed by the UTF-8 bytes.
        pub fn str(&mut self, s: &str) {
            self.usize(s.len());
            self.buf.extend_from_slice(s.as_bytes());
        }

        /// Appends raw bytes verbatim (no length prefix).
        pub fn raw(&mut self, bytes: &[u8]) {
            self.buf.extend_from_slice(bytes);
        }

        /// Seals the frame: appends the FNV-1a 64 of everything written
        /// and returns the finished bytes.
        pub fn finish(mut self) -> Vec<u8> {
            let checksum = fnv1a(&self.buf);
            self.u64(checksum);
            self.buf
        }
    }

    /// Re-checks the length and copies into a fixed array: the
    /// panic-free replacement for `try_into().expect(…)` in decode
    /// paths. If a call site's bounds reasoning ever rots, the result is
    /// a typed corruption error on attacker-shaped input, not a panic.
    fn le_array<const N: usize>(b: &[u8], what: &str) -> Result<[u8; N], PersistError> {
        if b.len() != N {
            return Err(PersistError::Corrupt(format!(
                "{what}: expected {N} bytes, got {}",
                b.len()
            )));
        }
        let mut a = [0u8; N];
        a.copy_from_slice(b);
        Ok(a)
    }

    /// Bounds-checked reader over a byte frame; every short read or
    /// invalid encoding surfaces as a typed [`PersistError`].
    #[derive(Debug)]
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// A reader over raw frame-body bytes (no header validation).
        pub fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        /// Validates a full frame — magic, version no newer than
        /// `max_version`, trailing checksum — and returns the stored
        /// version plus a reader over the body between header and
        /// checksum.
        pub fn framed(
            buf: &'a [u8],
            magic: [u8; 4],
            max_version: u32,
        ) -> Result<(u32, Reader<'a>), PersistError> {
            if buf.len() < magic.len() + 4 + 8 {
                return Err(PersistError::Corrupt(
                    "file shorter than header plus checksum".to_string(),
                ));
            }
            if buf[..magic.len()] != magic {
                return Err(PersistError::BadMagic);
            }
            let version = u32::from_le_bytes(le_array(&buf[4..8], "header version")?);
            if version > max_version {
                return Err(PersistError::UnsupportedVersion(version));
            }
            let body_end = buf.len() - 8;
            let stored = u64::from_le_bytes(le_array(&buf[body_end..], "trailing checksum")?);
            if fnv1a(&buf[..body_end]) != stored {
                return Err(PersistError::ChecksumMismatch);
            }
            Ok((version, Reader::new(&buf[8..body_end])))
        }

        /// Bytes not yet consumed.
        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        /// Consumes the next `n` bytes; `what` names the field in the
        /// truncation error.
        pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
            if self.remaining() < n {
                return Err(PersistError::Corrupt(format!(
                    "truncated while reading {what}: need {n} bytes, {} left",
                    self.remaining()
                )));
            }
            let out = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(out)
        }

        /// Reads one byte.
        pub fn u8(&mut self, what: &str) -> Result<u8, PersistError> {
            Ok(self.bytes(1, what)?[0])
        }

        /// Reads a bool; any byte other than 0/1 is corrupt.
        pub fn bool(&mut self, what: &str) -> Result<bool, PersistError> {
            match self.u8(what)? {
                0 => Ok(false),
                1 => Ok(true),
                b => Err(PersistError::Corrupt(format!("invalid {what} flag {b}"))),
            }
        }

        /// Reads a little-endian u32.
        pub fn u32(&mut self, what: &str) -> Result<u32, PersistError> {
            let b = self.bytes(4, what)?;
            Ok(u32::from_le_bytes(le_array(b, what)?))
        }

        /// Reads a little-endian u64.
        pub fn u64(&mut self, what: &str) -> Result<u64, PersistError> {
            let b = self.bytes(8, what)?;
            Ok(u64::from_le_bytes(le_array(b, what)?))
        }

        /// Reads a u64 and narrows it to usize with a typed error.
        pub fn usize(&mut self, what: &str) -> Result<usize, PersistError> {
            let v = self.u64(what)?;
            usize::try_from(v)
                .map_err(|_| PersistError::Corrupt(format!("{what} value {v} overflows usize")))
        }

        /// Reads an f32 from its exact IEEE-754 little-endian bytes.
        pub fn f32(&mut self, what: &str) -> Result<f32, PersistError> {
            let b = self.bytes(4, what)?;
            Ok(f32::from_le_bytes(le_array(b, what)?))
        }

        /// Reads an f64 from its exact IEEE-754 little-endian bytes.
        pub fn f64(&mut self, what: &str) -> Result<f64, PersistError> {
            let b = self.bytes(8, what)?;
            Ok(f64::from_le_bytes(le_array(b, what)?))
        }

        /// Reads `len` f32 values. The length was itself read from the
        /// file, so it is validated against the remaining bytes
        /// **before** any allocation — a corrupt length cannot trigger a
        /// huge allocation.
        pub fn f32_vec(&mut self, len: usize, what: &str) -> Result<Vec<f32>, PersistError> {
            let raw = self.bytes(
                len.checked_mul(4).ok_or_else(|| {
                    PersistError::Corrupt(format!("{what} length {len} overflows"))
                })?,
                what,
            )?;
            let mut out = Vec::with_capacity(len);
            for c in raw.chunks_exact(4) {
                out.push(f32::from_le_bytes(le_array(c, what)?));
            }
            Ok(out)
        }

        /// Reads a u64-length-prefixed UTF-8 string.
        pub fn string(&mut self, what: &str) -> Result<String, PersistError> {
            let len = self.usize(what)?;
            let raw = self.bytes(len, what)?;
            String::from_utf8(raw.to_vec())
                .map_err(|_| PersistError::Corrupt(format!("{what} is not valid UTF-8")))
        }
    }

    /// Writes `bytes` to `path` crash-safely: stage into a sibling temp
    /// file and rename over the target — rename within a directory is
    /// atomic on the platforms this targets, so a failure mid-save (full
    /// disk, crash) never destroys an existing good artifact.
    ///
    /// Fault-injection: `site` is evaluated twice per save — once
    /// guarding the temp-file write (a trip payload of `k` tears the
    /// write after `k` bytes, `None` aborts before writing) and once
    /// between write and rename (a trip simulates a crash with a
    /// complete temp file that never reached the final path). In every
    /// injected outcome the artifact previously at `path` is untouched.
    pub fn write_atomic(
        path: &Path,
        bytes: &[u8],
        site: &'static FailPoint,
    ) -> Result<(), PersistError> {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if let Some(payload) = site.fire() {
            // Torn write: k bytes reach the temp file before the failure
            // — exactly what a crash or full disk mid-write leaves
            // behind.
            if let Some(k) = payload {
                let torn = (k as usize).min(bytes.len());
                let _ = std::fs::write(&tmp, &bytes[..torn]);
            }
            return Err(injected_io(site.name(), "temp-file write"));
        }
        // Write + fsync the temp file before the rename: `rename` is
        // atomic with respect to the *name*, not the *contents* — on a
        // crash the directory entry can land while the data blocks never
        // did, which replaces a good artifact with a torn one. Durable
        // contents first, then the atomic name flip.
        {
            let mut f = std::fs::File::create(&tmp)?;
            io::Write::write_all(&mut f, bytes)?;
            f.sync_all()?;
        }
        if site.fire().is_some() {
            // Crash between write and rename: the finished temp file
            // never reaches the final path.
            let _ = std::fs::remove_file(&tmp);
            return Err(injected_io(site.name(), "pre-rename"));
        }
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;
        Ok(())
    }
}

use wire::{Reader, Writer};

fn activation_tag(a: Activation) -> u8 {
    match a {
        Activation::Identity => 0,
        Activation::Relu => 1,
        Activation::Tanh => 2,
        Activation::Sigmoid => 3,
    }
}

fn activation_from_tag(tag: u8) -> Result<Activation, PersistError> {
    match tag {
        0 => Ok(Activation::Identity),
        1 => Ok(Activation::Relu),
        2 => Ok(Activation::Tanh),
        3 => Ok(Activation::Sigmoid),
        _ => Err(PersistError::Corrupt(format!(
            "invalid activation tag {tag}"
        ))),
    }
}

fn target_tag(t: ReconstructionTarget) -> u8 {
    match t {
        ReconstructionTarget::Embedded => 0,
        ReconstructionTarget::Raw => 1,
    }
}

fn target_from_tag(tag: u8) -> Result<ReconstructionTarget, PersistError> {
    match tag {
        0 => Ok(ReconstructionTarget::Embedded),
        1 => Ok(ReconstructionTarget::Raw),
        _ => Err(PersistError::Corrupt(format!(
            "invalid reconstruction-target tag {tag}"
        ))),
    }
}

// ----------------------------------------------------------------------
// Writer
// ----------------------------------------------------------------------

fn write_model_config(w: &mut Writer, cfg: &CaeConfig) {
    w.usize(cfg.dim);
    w.usize(cfg.embed_dim);
    w.usize(cfg.window);
    w.usize(cfg.layers);
    w.usize(cfg.kernel_size);
    w.bool(cfg.attention);
    w.u8(activation_tag(cfg.embed_activation));
    w.u8(activation_tag(cfg.conv_activation));
    w.u8(activation_tag(cfg.recon_activation));
    w.u8(target_tag(cfg.target));
}

fn write_ensemble_config(w: &mut Writer, cfg: &EnsembleConfig) {
    w.usize(cfg.num_models);
    w.usize(cfg.epochs_per_model);
    w.f32(cfg.lambda);
    w.f64(cfg.beta);
    w.f32(cfg.learning_rate);
    w.usize(cfg.batch_size);
    w.usize(cfg.train_stride);
    w.bool(cfg.diversity_driven);
    w.f32(cfg.diversity_cap);
    w.f32(cfg.grad_clip);
    w.f32(cfg.denoise_std);
    w.f32(cfg.early_stop_rel_tol);
    w.bool(cfg.rescale);
    w.u64(cfg.seed);
}

/// Serializes an ensemble's trained state into format-v1 bytes.
pub(crate) fn encode_ensemble(
    model_cfg: &CaeConfig,
    cfg: &EnsembleConfig,
    scaler: Option<&Scaler>,
    members: &[(Cae, ParamStore)],
) -> Vec<u8> {
    let mut w = Writer::framed(MAGIC, FORMAT_VERSION);
    write_model_config(&mut w, model_cfg);
    write_ensemble_config(&mut w, cfg);
    match scaler {
        Some(s) => {
            w.bool(true);
            w.usize(s.dim());
            w.f32_slice(s.mean());
            w.f32_slice(s.std());
        }
        None => w.bool(false),
    }
    w.usize(members.len());
    for (_, store) in members {
        w.usize(store.len());
        for (name, value) in store.iter() {
            w.str(name);
            w.usize(value.rank());
            for &d in value.dims() {
                w.usize(d);
            }
            w.f32_slice(value.data());
        }
    }
    w.finish()
}

/// Writes the ensemble's trained state to `path` (format v1).
///
/// Fault-injection: the `persist.write` failpoint guards both the
/// temp-file write and the pre-rename window (see [`wire::write_atomic`]).
/// In every injected outcome the artifact previously at `path` is
/// untouched.
pub(crate) fn save_ensemble(
    path: &Path,
    model_cfg: &CaeConfig,
    cfg: &EnsembleConfig,
    scaler: Option<&Scaler>,
    members: &[(Cae, ParamStore)],
) -> Result<(), PersistError> {
    let bytes = encode_ensemble(model_cfg, cfg, scaler, members);
    wire::write_atomic(path, &bytes, &chaos::sites::PERSIST_WRITE)
}

// ----------------------------------------------------------------------
// Reader
// ----------------------------------------------------------------------

fn read_model_config(c: &mut Reader<'_>) -> Result<CaeConfig, PersistError> {
    Ok(CaeConfig {
        dim: c.usize("model dim")?,
        embed_dim: c.usize("embed dim")?,
        window: c.usize("window")?,
        layers: c.usize("layers")?,
        kernel_size: c.usize("kernel size")?,
        attention: c.bool("attention")?,
        embed_activation: activation_from_tag(c.u8("embed activation")?)?,
        conv_activation: activation_from_tag(c.u8("conv activation")?)?,
        recon_activation: activation_from_tag(c.u8("recon activation")?)?,
        target: target_from_tag(c.u8("reconstruction target")?)?,
    })
}

fn read_ensemble_config(c: &mut Reader<'_>) -> Result<EnsembleConfig, PersistError> {
    Ok(EnsembleConfig {
        num_models: c.usize("num models")?,
        epochs_per_model: c.usize("epochs per model")?,
        lambda: c.f32("lambda")?,
        beta: c.f64("beta")?,
        learning_rate: c.f32("learning rate")?,
        batch_size: c.usize("batch size")?,
        train_stride: c.usize("train stride")?,
        diversity_driven: c.bool("diversity driven")?,
        diversity_cap: c.f32("diversity cap")?,
        grad_clip: c.f32("grad clip")?,
        denoise_std: c.f32("denoise std")?,
        early_stop_rel_tol: c.f32("early stop tol")?,
        rescale: c.bool("rescale")?,
        seed: c.u64("seed")?,
    })
}

/// Sanity bound on structural dimensions read from a file: a corrupt (but
/// checksum-valid, e.g. maliciously rewritten) count must not drive model
/// reconstruction into absurd allocations.
const MAX_REASONABLE: usize = 1 << 20;

/// Upper bound on the scalar-parameter footprint a stored model
/// configuration may imply (2²⁸ f32s = 1 GiB per member) — the product
/// guard behind the per-field [`MAX_REASONABLE`] checks.
const MAX_MODEL_SCALARS: usize = 1 << 28;

fn check_reasonable(v: usize, what: &str) -> Result<usize, PersistError> {
    if v == 0 || v > MAX_REASONABLE {
        return Err(PersistError::Corrupt(format!(
            "{what} value {v} outside the plausible range [1, {MAX_REASONABLE}]"
        )));
    }
    Ok(v)
}

/// Decoded checkpoint parts: both configurations, the optional training
/// scaler, and every member with its parameter store.
pub(crate) type EnsembleParts = (
    CaeConfig,
    EnsembleConfig,
    Option<Scaler>,
    Vec<(Cae, ParamStore)>,
);

/// Parses format-v1 bytes back into ensemble parts.
pub(crate) fn decode_ensemble(buf: &[u8]) -> Result<EnsembleParts, PersistError> {
    // Header: magic, version, and the trailing checksum frame the body.
    let (_version, mut c) = Reader::framed(buf, MAGIC, FORMAT_VERSION)?;
    let model_cfg = read_model_config(&mut c)?;
    check_reasonable(model_cfg.dim, "model dim")?;
    check_reasonable(model_cfg.embed_dim, "embed dim")?;
    check_reasonable(model_cfg.window, "window")?;
    check_reasonable(model_cfg.layers, "layers")?;
    check_reasonable(model_cfg.kernel_size, "kernel size")?;
    // Individually-plausible fields can still multiply into an absurd
    // model: bound the total parameter footprint BEFORE
    // `Cae::from_params` builds the placeholder model, so a
    // corrupt-but-checksum-valid config yields a typed error instead of
    // a process-aborting allocation. Every registered tensor fits in
    // max(D, D′)²·k; each layer registers 6 conv kernels plus an
    // attention weight (≤ 7 such tensors), and the embeddings plus the
    // reconstruction head add a constant handful — 7·layers + 12
    // over-counts the real stack.
    {
        let d = model_cfg.dim.max(model_cfg.embed_dim);
        d.checked_mul(d)
            .and_then(|t| t.checked_mul(model_cfg.kernel_size))
            .and_then(|t| t.checked_mul(7 * model_cfg.layers + 12))
            .filter(|&t| t <= MAX_MODEL_SCALARS)
            .ok_or_else(|| {
                PersistError::Corrupt(format!(
                    "model configuration (dim {}, embed {}, layers {}, kernel {}) implies an \
                     implausibly large parameter footprint",
                    model_cfg.dim, model_cfg.embed_dim, model_cfg.layers, model_cfg.kernel_size
                ))
            })?;
    }
    let cfg = read_ensemble_config(&mut c)?;

    let scaler = if c.bool("scaler present")? {
        let dim = c.usize("scaler dim")?;
        check_reasonable(dim, "scaler dim")?;
        let mean = c.f32_vec(dim, "scaler mean")?;
        let std = c.f32_vec(dim, "scaler std")?;
        if dim != model_cfg.dim {
            return Err(PersistError::ScalerDimMismatch {
                scaler: dim,
                model: model_cfg.dim,
            });
        }
        Some(Scaler::from_parts(mean, std).map_err(PersistError::Corrupt)?)
    } else {
        None
    };

    let num_members = c.usize("member count")?;
    // Zero members would decode into an ensemble that panics on first
    // use ("score() before fit()"); the format only ships fitted
    // ensembles, so reject it here with a typed error instead.
    if num_members == 0 || num_members > MAX_REASONABLE {
        return Err(PersistError::Corrupt(format!(
            "member count {num_members} outside the plausible range [1, {MAX_REASONABLE}]"
        )));
    }
    // Pre-allocation from file-controlled counts is bounded by what the
    // remaining bytes could possibly encode (every member/parameter costs
    // at least one u64), so a small crafted file with a valid checksum
    // and a huge count fails with a truncation error instead of forcing
    // a huge up-front allocation.
    let mut members = Vec::with_capacity(num_members.min(c.remaining() / 8));
    for m in 0..num_members {
        let num_params = c.usize("parameter count")?;
        let mut params = Vec::with_capacity(num_params.min(c.remaining() / 8));
        for _ in 0..num_params {
            let name = c.string("parameter name")?;
            let rank = c.usize("parameter rank")?;
            if rank > Shape::MAX_RANK {
                return Err(PersistError::Corrupt(format!(
                    "parameter '{name}' has implausible rank {rank}"
                )));
            }
            let mut dims = Vec::with_capacity(rank);
            let mut len = 1usize;
            for _ in 0..rank {
                let d = c.usize("parameter dim")?;
                len = len.checked_mul(d).ok_or_else(|| {
                    PersistError::Corrupt(format!("parameter '{name}' shape overflows"))
                })?;
                dims.push(d);
            }
            let data = c.f32_vec(len, "parameter values")?;
            params.push((name, Tensor::from_vec(data, &dims)));
        }
        let (model, store) = Cae::from_params(model_cfg.clone(), params)
            .map_err(|why| PersistError::Corrupt(format!("member {m}: {why}")))?;
        members.push((model, store));
    }

    if c.remaining() != 0 {
        return Err(PersistError::Corrupt(format!(
            "{} trailing bytes after the last member",
            c.remaining()
        )));
    }
    Ok((model_cfg, cfg, scaler, members))
}

/// Reads an ensemble checkpoint from `path`.
///
/// Fault-injection: a `persist.read` trip with payload `Some(k)` decodes
/// only the first `k` bytes (a truncated/corrupt read surfacing the
/// format's typed errors); `None` fails the read itself with an I/O
/// error.
pub(crate) fn load_ensemble(path: &Path) -> Result<EnsembleParts, PersistError> {
    let bytes = std::fs::read(path)?;
    if let Some(payload) = chaos::sites::PERSIST_READ.fire() {
        return match payload {
            Some(k) => decode_ensemble(&bytes[..(k as usize).min(bytes.len())]),
            None => Err(wire::injected_io("persist.read", "file read")),
        };
    }
    decode_ensemble(&bytes)
}

/// A load that succeeded, possibly only via the fallback checkpoint.
#[derive(Debug)]
pub struct RecoveredLoad<T> {
    /// The loaded value.
    pub value: T,
    /// Why the primary checkpoint was rejected, when the fallback had to
    /// be used. `None` means the primary loaded cleanly.
    pub primary_error: Option<PersistError>,
}

/// Neither the primary nor the last-good checkpoint could be loaded.
#[derive(Debug)]
pub struct FallbackExhausted {
    /// Why the primary checkpoint was rejected.
    pub primary: PersistError,
    /// Why the last-good checkpoint was rejected too.
    pub fallback: PersistError,
}

impl fmt::Display for FallbackExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "primary checkpoint failed ({}) and last-good fallback failed ({})",
            self.primary, self.fallback
        )
    }
}

impl std::error::Error for FallbackExhausted {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CaeEnsemble;
    use cae_data::{Detector, TimeSeries};

    fn sine_series(len: usize, dim: usize) -> TimeSeries {
        let mut s = TimeSeries::empty(dim);
        let mut obs = vec![0.0f32; dim];
        for t in 0..len {
            for (d, o) in obs.iter_mut().enumerate() {
                *o = ((t as f32) * 0.35 + d as f32).sin();
            }
            s.push(&obs);
        }
        s
    }

    fn fitted(target: ReconstructionTarget, rescale: bool) -> CaeEnsemble {
        let mc = CaeConfig::new(2)
            .embed_dim(8)
            .window(8)
            .layers(1)
            .target(target);
        let ec = EnsembleConfig::new()
            .num_models(2)
            .epochs_per_model(1)
            .batch_size(16)
            .train_stride(2)
            .rescale(rescale)
            .seed(31);
        let mut ens = CaeEnsemble::new(mc, ec);
        ens.fit(&sine_series(120, 2));
        ens
    }

    fn encode(ens: &CaeEnsemble) -> Vec<u8> {
        encode_ensemble(
            ens.model_config(),
            ens.ensemble_config(),
            ens.scaler(),
            ens.members(),
        )
    }

    /// Rewrites the trailing checksum after a deliberate mutation, so the
    /// test reaches the structural validation behind the checksum gate.
    fn rechecksum(buf: &mut [u8]) {
        let body_end = buf.len() - 8;
        let sum = wire::fnv1a(&buf[..body_end]);
        buf[body_end..].copy_from_slice(&sum.to_le_bytes());
    }

    fn decode_scores(buf: &[u8], test: &TimeSeries) -> Vec<f32> {
        let (model_cfg, cfg, scaler, members) = decode_ensemble(buf).expect("valid checkpoint");
        let ens = CaeEnsemble::from_loaded_parts(model_cfg, cfg, scaler, members);
        ens.score(test)
    }

    #[test]
    fn round_trip_is_bit_exact_embedded_target() {
        let ens = fitted(ReconstructionTarget::Embedded, true);
        let test = sine_series(80, 2);
        assert_eq!(decode_scores(&encode(&ens), &test), ens.score(&test));
    }

    #[test]
    fn round_trip_is_bit_exact_raw_target_no_scaler() {
        let ens = fitted(ReconstructionTarget::Raw, false);
        assert!(ens.scaler().is_none());
        let test = sine_series(80, 2);
        assert_eq!(decode_scores(&encode(&ens), &test), ens.score(&test));
    }

    #[test]
    fn round_trip_preserves_configs() {
        let ens = fitted(ReconstructionTarget::Embedded, true);
        let (model_cfg, cfg, scaler, members) =
            decode_ensemble(&encode(&ens)).expect("valid checkpoint");
        assert_eq!(model_cfg.window, ens.model_config().window);
        assert_eq!(model_cfg.embed_dim, ens.model_config().embed_dim);
        assert_eq!(cfg.num_models, ens.ensemble_config().num_models);
        assert_eq!(cfg.seed, ens.ensemble_config().seed);
        assert_eq!(cfg.beta, ens.ensemble_config().beta);
        let s = scaler.expect("trained with rescale");
        assert_eq!(s.mean(), ens.scaler().expect("rescale on").mean());
        assert_eq!(members.len(), ens.num_members());
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut buf = encode(&fitted(ReconstructionTarget::Embedded, true));
        buf[0] = b'X';
        assert!(matches!(decode_ensemble(&buf), Err(PersistError::BadMagic)));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut buf = encode(&fitted(ReconstructionTarget::Embedded, true));
        buf[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode_ensemble(&buf),
            Err(PersistError::UnsupportedVersion(v)) if v == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn flipped_byte_fails_the_checksum() {
        let mut buf = encode(&fitted(ReconstructionTarget::Embedded, true));
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        assert!(matches!(
            decode_ensemble(&buf),
            Err(PersistError::ChecksumMismatch)
        ));
    }

    #[test]
    fn truncated_file_is_rejected_at_every_length() {
        let buf = encode(&fitted(ReconstructionTarget::Embedded, true));
        // Every prefix must fail typed — never panic. Step keeps the test
        // fast while still crossing all structural boundaries.
        for cut in (0..buf.len()).step_by(97) {
            assert!(
                decode_ensemble(&buf[..cut]).is_err(),
                "prefix of {cut} bytes was accepted"
            );
        }
    }

    #[test]
    fn invalid_activation_tag_is_corrupt() {
        let mut buf = encode(&fitted(ReconstructionTarget::Embedded, true));
        // Model config starts at byte 8: five u64 fields then the
        // attention flag, then the three activation tags.
        let embed_activation_at = 8 + 5 * 8 + 1;
        buf[embed_activation_at] = 0xEE;
        rechecksum(&mut buf);
        assert!(matches!(
            decode_ensemble(&buf),
            Err(PersistError::Corrupt(why)) if why.contains("activation tag")
        ));
    }

    #[test]
    fn implausible_config_products_are_corrupt_not_oom() {
        // Each field passes the per-field bound, but the implied model
        // would be terabytes; the reader must fail typed before building.
        let mut buf = encode(&fitted(ReconstructionTarget::Embedded, true));
        // dim and embed_dim are the first two u64 fields after the header.
        buf[8..16].copy_from_slice(&(1u64 << 20).to_le_bytes());
        buf[16..24].copy_from_slice(&(1u64 << 20).to_le_bytes());
        rechecksum(&mut buf);
        assert!(matches!(
            decode_ensemble(&buf),
            Err(PersistError::Corrupt(why)) if why.contains("parameter footprint")
        ));
    }

    #[test]
    fn rank_above_the_tensor_maximum_is_corrupt() {
        // Pad the first parameter's dims with ones up to rank 5: the
        // element count and the values stay valid, only the rank is not.
        let ens = fitted(ReconstructionTarget::Embedded, true);
        let (name, value) = ens.members()[0].1.iter().next().expect("a parameter");
        let mut buf = encode(&ens);
        let at = buf.windows(name.len()).position(|w| w == name.as_bytes());
        let at = at.expect("name on the wire") + name.len();
        buf[at..at + 8].copy_from_slice(&5u64.to_le_bytes());
        let dims_end = at + 8 + 8 * value.rank();
        let pad = (value.rank()..5).flat_map(|_| 1u64.to_le_bytes());
        buf.splice(dims_end..dims_end, pad);
        rechecksum(&mut buf);
        assert!(matches!(
            decode_ensemble(&buf),
            Err(PersistError::Corrupt(why)) if why.contains("implausible rank 5")
        ));
    }

    #[test]
    fn zero_member_checkpoint_is_corrupt() {
        let ens = fitted(ReconstructionTarget::Embedded, true);
        let buf = encode_ensemble(ens.model_config(), ens.ensemble_config(), ens.scaler(), &[]);
        assert!(matches!(
            decode_ensemble(&buf),
            Err(PersistError::Corrupt(why)) if why.contains("member count 0")
        ));
    }

    #[test]
    #[should_panic(expected = "save() before fit")]
    fn save_requires_fit() {
        let ens = CaeEnsemble::new(CaeConfig::new(1), EnsembleConfig::new());
        let _ = ens.save(std::env::temp_dir().join("cae_unfitted.caee"));
    }

    #[test]
    fn scaler_dim_mismatch_is_typed() {
        let ens = fitted(ReconstructionTarget::Embedded, true);
        let wrong = Scaler::fit(&sine_series(50, 3));
        let buf = encode_ensemble(
            ens.model_config(),
            ens.ensemble_config(),
            Some(&wrong),
            ens.members(),
        );
        assert!(matches!(
            decode_ensemble(&buf),
            Err(PersistError::ScalerDimMismatch {
                scaler: 3,
                model: 2
            })
        ));
    }

    #[test]
    fn trailing_garbage_inside_checksum_is_corrupt() {
        let mut buf = encode(&fitted(ReconstructionTarget::Embedded, true));
        let at = buf.len() - 8;
        buf.splice(at..at, [0u8; 3]);
        rechecksum(&mut buf);
        assert!(matches!(
            decode_ensemble(&buf),
            Err(PersistError::Corrupt(why)) if why.contains("trailing")
        ));
    }

    #[test]
    fn save_and_load_through_the_filesystem() {
        let ens = fitted(ReconstructionTarget::Embedded, true);
        let path =
            std::env::temp_dir().join(format!("cae_persist_roundtrip_{}.caee", std::process::id()));
        ens.save(&path).expect("save succeeds");
        let loaded = CaeEnsemble::load(&path).expect("load succeeds");
        let _ = std::fs::remove_file(&path);
        let test = sine_series(64, 2);
        assert_eq!(loaded.score(&test), ens.score(&test));
        assert!(loaded.loss_trace().is_empty());
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = std::env::temp_dir().join("cae_persist_does_not_exist.caee");
        assert!(matches!(CaeEnsemble::load(&path), Err(PersistError::Io(_))));
    }
}
