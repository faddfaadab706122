//! Clippy fixture for the retired cae-lint rule C1: a thread spawn outside
//! the sanctioned modules; `disallowed_methods` fires at line 5.

pub fn fan_out() -> u32 {
    let worker = std::thread::spawn(|| 1 + 1);
    worker.join().unwrap_or(0)
}
