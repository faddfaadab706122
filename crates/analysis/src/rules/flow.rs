//! Pass-2 flow rules: A1, W1 and F1.
//!
//! These run over the whole-workspace [`SymbolGraph`] after every file
//! has been analyzed, so they can reason about properties a per-file
//! token walk cannot see: which functions a spawn's closure transitively
//! runs (A1), and whether a `rename` has a `sync_all` anywhere on its
//! write path (F1).

use super::{is_reader_path, is_test_path, FileAnalysis, Finding};
use crate::graph::SymbolGraph;
use crate::parser::{FnItem, IoOp};

/// Pinned pure-counter allowlist for A1: `(scope path, receiver)` pairs
/// whose Relaxed read-modify-writes are monotone statistics — no other
/// memory is published through them, so no ordering is required.
///
/// * `par.rs / spawned`: worker-thread count, read only for diagnostics
///   (`pool_threads_spawned`); the pool's handshake is `holders` (AcqRel).
/// * `par.rs / next`: the work-stealing cursor; it only partitions
///   indices between workers, every slot is written before the
///   `holders` AcqRel handshake that publishes the results.
/// * `registry.rs / cell`: the metric cells behind `Counter::add` and
///   `Gauge::set` — monotone counts and last-write-wins gauge bits.
///   Readers (`value`, `snapshot`) tolerate any interleaving; nothing
///   else is published through them.
/// * `registry.rs / sum`, `registry.rs / max`: the histogram running sum
///   and watermark; same monotone-statistic contract, read only by
///   snapshots.
const A1_PURE_COUNTERS: &[(&str, &str)] = &[
    ("crates/tensor/src/par.rs", "spawned"),
    ("crates/tensor/src/par.rs", "next"),
    ("crates/obs/src/registry.rs", "cell"),
    ("crates/obs/src/registry.rs", "sum"),
    ("crates/obs/src/registry.rs", "max"),
];

/// Runs every flow rule; findings are appended pre-allow-filtering.
pub fn run(files: &[FileAnalysis], graph: &SymbolGraph, findings: &mut Vec<Finding>) {
    rule_a1_atomic_ordering(files, graph, findings);
    rule_w1_wire_safety(files, findings);
    rule_f1_durability_ordering(files, graph, findings);
}

fn fn_of<'a>(
    files: &'a [FileAnalysis],
    graph: &SymbolGraph,
    id: usize,
) -> (&'a FileAnalysis, &'a FnItem) {
    let n = graph.nodes[id];
    let f = &files[n.file];
    (f, &f.fns[n.func])
}

/// A node that participates in production analysis: not `#[cfg(test)]`
/// and not in a test-ish file location.
fn is_live(files: &[FileAnalysis], graph: &SymbolGraph, id: usize) -> bool {
    let (f, item) = fn_of(files, graph, id);
    !item.is_test && !is_test_path(&f.scope_path)
}

fn all_caps(name: &str) -> bool {
    name.len() > 1
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
}

/// A1: a `Relaxed` store/rmw on an atomic that other functions also
/// touch, where the publish is provably cross-thread (an endpoint is
/// spawn-reachable, or the receiver is an `ALL_CAPS` static — statics
/// exist to be shared, and fn-pointer dispatch hides some spawn paths
/// from the call graph). Pure counters are pinned in
/// [`A1_PURE_COUNTERS`].
fn rule_a1_atomic_ordering(
    files: &[FileAnalysis],
    graph: &SymbolGraph,
    findings: &mut Vec<Finding>,
) {
    // Spawn-origin reachability: everything a spawned closure may run.
    let seeds: Vec<usize> = (0..graph.nodes.len())
        .filter(|&id| {
            is_live(files, graph, id) && !fn_of(files, graph, id).1.sites.spawns.is_empty()
        })
        .collect();
    let spawn_reach = graph.reachable(&seeds);

    // Every live atomic site, tagged with its grouping key: statics
    // group workspace-wide, field receivers group per file.
    const GLOBAL: usize = usize::MAX;
    let mut sites: Vec<(usize, &str, usize, &crate::parser::AtomicSite)> = Vec::new();
    for id in 0..graph.nodes.len() {
        if !is_live(files, graph, id) {
            continue;
        }
        let n = graph.nodes[id];
        let (f, item) = fn_of(files, graph, id);
        let _ = f;
        for a in &item.sites.atomics {
            let key = if all_caps(&a.receiver) {
                GLOBAL
            } else {
                n.file
            };
            sites.push((key, a.receiver.as_str(), id, a));
        }
    }

    for &(key, recv, id, a) in &sites {
        if a.ordering != "Relaxed" || a.op == "load" || recv == "<expr>" {
            continue;
        }
        let group: Vec<&(usize, &str, usize, &crate::parser::AtomicSite)> = sites
            .iter()
            .filter(|(k, r, _, _)| *k == key && *r == recv)
            .collect();
        let multi_fn = group.iter().any(|(_, _, other, _)| *other != id);
        if !multi_fn {
            continue;
        }
        let cross_thread =
            key == GLOBAL || group.iter().any(|(_, _, other, _)| spawn_reach[*other]);
        if !cross_thread {
            continue;
        }
        let (f, _) = fn_of(files, graph, id);
        if A1_PURE_COUNTERS.contains(&(f.scope_path.as_str(), recv)) {
            continue;
        }
        findings.push(Finding {
            rule: "A1",
            path: f.path.clone(),
            line: a.line,
            message: format!(
                "`{recv}.{op}(…, Ordering::Relaxed)` publishes to other functions across threads without ordering: use Release (pair the loads with Acquire), pin `{recv}` in the A1 pure-counter allowlist, or `// cae-lint: allow(A1)` with the external-sync invariant",
                op = a.op
            ),
        });
    }
}

/// W1: in wire-reader code, an `as usize` value (or a binding derived
/// from one) used as a slice index without a preceding bounds guard.
/// The guard vocabulary is a comparison against the value, `.min(…)` /
/// `.clamp(…)`, or a checked context such as `get(…)`.
fn rule_w1_wire_safety(files: &[FileAnalysis], findings: &mut Vec<Finding>) {
    for f in files {
        if !is_reader_path(&f.scope_path) || is_test_path(&f.scope_path) {
            continue;
        }
        let sites = f
            .fns
            .iter()
            .filter(|item| !item.is_test)
            .flat_map(|item| item.sites.wire_casts.iter());
        for c in sites {
            findings.push(Finding {
                rule: "W1",
                path: f.path.clone(),
                line: c.line,
                message: format!(
                    "unguarded `as usize` slice index on `{}` in wire-reader code: length/offset fields from disk must be bounds-checked (`get(..)`, `.min(..)`, or an explicit compare) before indexing",
                    c.what
                ),
            });
        }
    }
}

/// F1: a fn that calls `rename` while its write path (itself plus every
/// reachable callee) wrote file contents must also have a
/// `sync_all`/`sync_data` on that path — otherwise a crash can persist
/// the rename but not the data it was supposed to commit.
fn rule_f1_durability_ordering(
    files: &[FileAnalysis],
    graph: &SymbolGraph,
    findings: &mut Vec<Finding>,
) {
    for id in 0..graph.nodes.len() {
        if !is_live(files, graph, id) {
            continue;
        }
        let (f, item) = fn_of(files, graph, id);
        let renames: Vec<usize> = item
            .sites
            .io
            .iter()
            .filter(|io| io.op == IoOp::Rename)
            .map(|io| io.line)
            .collect();
        if renames.is_empty() {
            continue;
        }
        let reach = graph.reachable(&[id]);
        let mut has_write = false;
        let mut has_sync = false;
        for other in 0..graph.nodes.len() {
            if !reach[other] {
                continue;
            }
            let (_, oitem) = fn_of(files, graph, other);
            for io in &oitem.sites.io {
                match io.op {
                    IoOp::Write => has_write = true,
                    IoOp::SyncAll | IoOp::SyncData => has_sync = true,
                    IoOp::Rename => {}
                }
            }
        }
        if has_write && !has_sync {
            for line in renames {
                findings.push(Finding {
                    rule: "F1",
                    path: f.path.clone(),
                    line,
                    message: "`rename` on a write path with no `sync_all`/`sync_data` before it: a crash can persist the rename but not the written data (torn checkpoint); fsync the temp file first".to_string(),
                });
            }
        }
    }
}
