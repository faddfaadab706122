// cae-lint: path=crates/core/src/ensemble.rs
//! H1 needs no reachability: a wall-clock read in a hot-scope fn that no
//! scoring entry calls still fires, and an allocation does not.

pub fn fit_report(epochs: usize) -> Vec<f32> {
    let started = Instant::now(); // line 6: H1
    let losses = vec![0.0; epochs];
    log_elapsed(started);
    losses
}
