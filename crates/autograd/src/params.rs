//! Parameter storage shared by all trainable models.
//!
//! A [`ParamStore`] owns every learnable tensor of one model together with
//! its gradient accumulator. Optimizers iterate the store; the ensemble
//! trainer moves a fraction `β` of one store's values into the next basic
//! model with [`transfer_fraction`] (paper Figure 9).

use cae_tensor::Tensor;
use rand::Rng;

/// Stable handle to one parameter tensor inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

struct Slot {
    name: String,
    value: Tensor,
    grad: Tensor,
}

/// Owns the learnable parameters (and gradient accumulators) of a model.
#[derive(Default)]
pub struct ParamStore {
    slots: Vec<Slot>,
}

impl Clone for ParamStore {
    /// Clones names and **values** only; the clone starts with zeroed
    /// gradient accumulators. This is the warm-start path: a re-fit
    /// snapshots a live member's parameters and trains the copy, so
    /// carrying the original's half-accumulated gradients over would be a
    /// bug, not a feature.
    fn clone(&self) -> Self {
        ParamStore {
            slots: self
                .slots
                .iter()
                .map(|s| Slot {
                    name: s.name.clone(),
                    value: s.value.clone(),
                    grad: Tensor::zeros(s.grad.dims()),
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for ParamStore {
    /// Names and shapes only — a store holds thousands of scalars.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut map = f.debug_map();
        for slot in &self.slots {
            map.entry(&slot.name, &slot.value.dims());
        }
        map.finish()
    }
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        ParamStore { slots: Vec::new() }
    }

    /// Registers a parameter with an initial value, returning its handle.
    ///
    /// The gradient accumulator starts at zero with the same shape.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let grad = Tensor::zeros(value.dims());
        self.slots.push(Slot {
            name: name.into(),
            value,
            grad,
        });
        ParamId(self.slots.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total number of scalar parameters across all tensors.
    pub fn num_scalars(&self) -> usize {
        self.slots.iter().map(|s| s.value.len()).sum()
    }

    /// The parameter's registered name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.slots[id.0].name
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.slots[id.0].value
    }

    /// Mutable access to a parameter value (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.slots[id.0].value
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.slots[id.0].grad
    }

    /// Every parameter's value, mutably, beside its accumulated gradient,
    /// in registration order: the split borrow an optimizer step needs to
    /// read the gradients in place while it updates the values.
    pub fn values_mut_and_grads(&mut self) -> impl Iterator<Item = (&mut Tensor, &Tensor)> {
        self.slots
            .iter_mut()
            .map(|slot| (&mut slot.value, &slot.grad))
    }

    /// Adds `grad` into the parameter's accumulator.
    pub fn accumulate_grad(&mut self, id: ParamId, grad: &Tensor) {
        self.slots[id.0].grad.add_inplace(grad);
    }

    /// Resets every gradient accumulator to zero (keeps allocations).
    pub fn zero_grads(&mut self) {
        for slot in &mut self.slots {
            slot.grad.fill_zero();
        }
    }

    /// Iterates over all parameter handles in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.slots.len()).map(ParamId)
    }

    /// Iterates `(name, value)` pairs in registration order — the
    /// checkpoint export path: together with [`ParamStore::set_value`]
    /// this round-trips a store bit-exactly through external storage.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.slots.iter().map(|s| (s.name.as_str(), &s.value))
    }

    /// Replaces a parameter's value (the checkpoint import path). The new
    /// value must have the registered shape; the gradient accumulator is
    /// reset to zero so a freshly loaded model starts from a clean slate.
    pub fn set_value(&mut self, id: ParamId, value: Tensor) {
        let slot = &mut self.slots[id.0];
        assert_eq!(
            slot.value.dims(),
            value.dims(),
            "parameter {} shape mismatch: registered {:?}, loaded {:?}",
            slot.name,
            slot.value.dims(),
            value.dims()
        );
        std::mem::replace(&mut slot.value, value).recycle();
        slot.grad.fill_zero();
    }

    /// Rescales all gradients so their global L2 norm is at most `max_norm`.
    ///
    /// Standard gradient clipping; the recurrent baselines need it to keep
    /// long-window training stable.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let total: f32 = self.slots.iter().map(|s| s.grad.sq_norm()).sum();
        let norm = total.sqrt();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for slot in &mut self.slots {
                slot.grad.scale_inplace(scale);
            }
        }
    }

    /// Squared L2 distance between the parameter vectors of two stores
    /// with identical registration layouts.
    pub fn param_distance_sq(&self, other: &ParamStore) -> f32 {
        assert_eq!(self.len(), other.len(), "stores have different layouts");
        self.slots
            .iter()
            .zip(other.slots.iter())
            .map(|(a, b)| {
                assert_eq!(
                    a.value.dims(),
                    b.value.dims(),
                    "parameter {} shape mismatch",
                    a.name
                );
                a.value.sub(&b.value).sq_norm()
            })
            .sum()
    }
}

/// Copies a random fraction `beta` of scalar parameters from `src` into
/// `dst`, elementwise (paper Figure 9: a new basic model receives a randomly
/// selected fraction β of the previous model's parameters; the remaining
/// 1−β keep their fresh initialization and are trained in later epochs).
///
/// Both stores must have identical registration layouts. Returns the number
/// of scalars transferred.
pub fn transfer_fraction<R: Rng + ?Sized>(
    src: &ParamStore,
    dst: &mut ParamStore,
    beta: f64,
    rng: &mut R,
) -> usize {
    assert!(
        (0.0..=1.0).contains(&beta),
        "transfer fraction beta {beta} outside [0, 1]"
    );
    assert_eq!(src.len(), dst.len(), "stores have different layouts");
    let mut transferred = 0usize;
    for i in 0..src.slots.len() {
        let s = &src.slots[i].value;
        let d = &mut dst.slots[i].value;
        assert_eq!(
            s.dims(),
            d.dims(),
            "parameter {} shape mismatch during transfer",
            src.slots[i].name
        );
        for (dv, &sv) in d.data_mut().iter_mut().zip(s.data().iter()) {
            if rng.gen_bool(beta) {
                *dv = sv;
                transferred += 1;
            }
        }
    }
    transferred
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn register_and_access() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::ones(&[2, 2]));
        let b = store.register("b", Tensor::zeros(&[2]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.num_scalars(), 6);
        assert_eq!(store.name(w), "w");
        assert_eq!(store.value(b).dims(), &[2]);
        assert_eq!(store.grad(w).sum(), 0.0);
    }

    #[test]
    fn grad_accumulation_and_reset() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::zeros(&[3]));
        store.accumulate_grad(w, &Tensor::ones(&[3]));
        store.accumulate_grad(w, &Tensor::ones(&[3]));
        assert_eq!(store.grad(w).data(), &[2.0, 2.0, 2.0]);
        store.zero_grads();
        assert_eq!(store.grad(w).data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn clip_grad_norm_scales_down_only() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::zeros(&[2]));
        store.accumulate_grad(w, &Tensor::from_vec(vec![3.0, 4.0], &[2]));
        store.clip_grad_norm(10.0); // below: untouched
        assert_eq!(store.grad(w).data(), &[3.0, 4.0]);
        store.clip_grad_norm(1.0); // norm 5 -> scaled by 1/5
        cae_tensor::assert_close(store.grad(w).data(), &[0.6, 0.8], 1e-6);
    }

    #[test]
    fn transfer_all_or_nothing() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut src = ParamStore::new();
        src.register("w", Tensor::full(&[4, 4], 7.0));
        let mut dst = ParamStore::new();
        dst.register("w", Tensor::zeros(&[4, 4]));

        let n = transfer_fraction(&src, &mut dst, 0.0, &mut rng);
        assert_eq!(n, 0);
        assert_eq!(dst.value(ParamId(0)).sum(), 0.0);

        let n = transfer_fraction(&src, &mut dst, 1.0, &mut rng);
        assert_eq!(n, 16);
        assert_eq!(dst.value(ParamId(0)).sum(), 7.0 * 16.0);
    }

    #[test]
    fn transfer_fraction_is_approximately_beta() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut src = ParamStore::new();
        src.register("w", Tensor::full(&[100, 100], 1.0));
        let mut dst = ParamStore::new();
        dst.register("w", Tensor::zeros(&[100, 100]));
        let n = transfer_fraction(&src, &mut dst, 0.3, &mut rng);
        let rate = n as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "transfer rate {rate}");
        // transferred entries are exactly the ones now equal to 1.0
        assert_eq!(dst.value(ParamId(0)).sum() as usize, n);
    }

    #[test]
    fn iter_yields_registration_order() {
        let mut store = ParamStore::new();
        store.register("a", Tensor::ones(&[2]));
        store.register("b", Tensor::zeros(&[3, 1]));
        let named: Vec<(&str, Vec<usize>)> = store
            .iter()
            .map(|(name, value)| (name, value.dims().to_vec()))
            .collect();
        assert_eq!(named, [("a", vec![2]), ("b", vec![3, 1])]);
    }

    #[test]
    fn set_value_replaces_and_clears_grad() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::zeros(&[2]));
        store.accumulate_grad(w, &Tensor::ones(&[2]));
        store.set_value(w, Tensor::from_vec(vec![5.0, 6.0], &[2]));
        assert_eq!(store.value(w).data(), &[5.0, 6.0]);
        assert_eq!(store.grad(w).data(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn set_value_rejects_wrong_shape() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::zeros(&[2]));
        store.set_value(w, Tensor::zeros(&[3]));
    }

    #[test]
    fn clone_copies_values_but_zeroes_grads() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(vec![1.0, 2.0], &[2]));
        store.accumulate_grad(w, &Tensor::ones(&[2]));
        let copy = store.clone();
        assert_eq!(copy.len(), 1);
        assert_eq!(copy.name(w), "w");
        assert_eq!(copy.value(w).data(), &[1.0, 2.0]);
        assert_eq!(copy.grad(w).data(), &[0.0, 0.0], "clone starts clean");
        assert_eq!(store.grad(w).data(), &[1.0, 1.0], "original untouched");
    }

    #[test]
    fn param_distance_zero_on_identical() {
        let mut a = ParamStore::new();
        a.register("w", Tensor::full(&[3], 2.0));
        let mut b = ParamStore::new();
        b.register("w", Tensor::full(&[3], 2.0));
        assert_eq!(a.param_distance_sq(&b), 0.0);
        b.value_mut(ParamId(0)).data_mut()[0] = 4.0;
        assert_eq!(a.param_distance_sq(&b), 4.0);
    }
}
