//! Work counts derived from the model configuration's shapes.
//!
//! One member forward is a fixed list of contractions; each contributes
//! its multiply-adds and the bytes it must at least read and write
//! (inputs, weights and outputs once each, f32). The counts depend only on
//! shapes, so they repeat exactly from run to run and give measured times
//! a denominator.

use cae_core::CaeConfig;

/// Multiply-adds and minimum bytes moved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    pub madds: u64,
    pub bytes: u64,
}

impl Work {
    fn op(madds: usize, inputs: usize, weights: usize, outputs: usize) -> Work {
        Work {
            madds: madds as u64,
            bytes: 4 * (inputs + weights + outputs) as u64,
        }
    }

    fn add(&mut self, other: Work) {
        self.madds += other.madds;
        self.bytes += other.bytes;
    }

    pub fn times(self, n: u64) -> Work {
        Work {
            madds: self.madds * n,
            bytes: self.bytes * n,
        }
    }
}

/// One member forward over a `(batch, w, D)` window batch.
pub fn member_forward(cfg: &CaeConfig, batch: usize) -> Work {
    let (b, w, d, e, k) = (batch, cfg.window, cfg.dim, cfg.embed_dim, cfg.kernel_size);
    let rd = cfg.recon_dim();
    let mut total = Work::default();
    // Embedding: observation projection D → D′, position projection 1 → D′.
    total.add(Work::op(b * w * d * e, b * w * d, d * e + e, b * w * e));
    total.add(Work::op(w * e, w, 2 * e, w * e));
    let conv = |cout: usize, kk: usize| {
        Work::op(
            b * cout * e * kk * w,
            b * e * w,
            cout * e * kk + cout,
            b * cout * w,
        )
    };
    for _ in 0..cfg.layers {
        // Encoder and decoder: GLU (value + gate convs) then the plain conv.
        for _ in 0..2 {
            total.add(conv(e, k));
            total.add(conv(e, k));
            total.add(conv(e, k));
        }
        if cfg.attention {
            // z = W_z d + b_z, scores = z·Eᵀ, context = α·E.
            total.add(Work::op(b * w * e * e, b * w * e, e * e + e, b * w * e));
            total.add(Work::op(b * w * w * e, 2 * b * w * e, 0, b * w * w));
            total.add(Work::op(b * w * w * e, b * w * w + b * w * e, 0, b * w * e));
        }
    }
    // Reconstruction: GLU, then the 1×1 head.
    total.add(conv(e, k));
    total.add(conv(e, k));
    total.add(conv(rd, 1));
    total
}

/// One serving tick (or batch-scorer chunk): every member's forward over
/// the same batch.
pub fn score_batch(cfg: &CaeConfig, members: usize, batch: usize) -> Work {
    member_forward(cfg, batch).times(members as u64)
}

/// One training step of one member: the forward plus a backward that
/// computes an input gradient and a weight gradient per contraction
/// (about twice the forward's multiply-adds and traffic).
pub fn train_step(cfg: &CaeConfig, batch: usize) -> Work {
    member_forward(cfg, batch).times(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shaped_forward_is_about_thirty_million_madds() {
        let cfg = CaeConfig::new(38).embed_dim(24).window(16).layers(2);
        let w = member_forward(&cfg, 64);
        // Hand count: embed 0.93 M + pos 384, 4 conv blocks × 5.31 M,
        // 2 attention layers × 1.38 M, recon GLU 3.54 M, head 0.59 M.
        assert_eq!(w.madds, 29_049_216);
        assert!(w.bytes > 0);
        assert_eq!(score_batch(&cfg, 5, 64).madds, 5 * w.madds);
    }

    #[test]
    fn work_scales_with_batch_and_layers() {
        let cfg = CaeConfig::new(38).embed_dim(24).window(16).layers(2);
        let w16 = member_forward(&cfg, 16).madds - 16 * 24;
        let w64 = member_forward(&cfg, 64).madds - 16 * 24;
        assert_eq!(
            w64,
            4 * w16,
            "everything but the position embedding is per window"
        );
        let deeper = member_forward(&cfg.clone().layers(3), 64).madds;
        assert!(deeper > member_forward(&cfg, 64).madds);
        let no_attn = member_forward(&cfg.clone().attention(false), 64).madds;
        assert!(no_attn < member_forward(&cfg, 64).madds);
    }
}
