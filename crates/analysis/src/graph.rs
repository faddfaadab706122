//! The workspace symbol graph: pass-1 fn items wired together by a
//! call-edge approximation, plus the reachability queries pass 2 runs.
//!
//! Edge resolution is heuristic by design (no type information):
//!
//! * `Qual::name(…)` prefers targets whose impl type, file stem or
//!   enclosing inline module matches `Qual` (`Self::` resolves against
//!   the caller's own impl type); when nothing matches and the name is
//!   not ambient, every same-named fn is a target.
//! * Bare/method calls with an *ambient* name (`push`, `len`, `get`, …
//!   — names that collide with std methods on every collection) resolve
//!   within the caller's file only; any other name resolves
//!   workspace-wide.
//! * Closures are not items: their bodies' sites and calls belong to the
//!   enclosing fn, which is exactly what makes spawn-reachability see
//!   through `thread::spawn(move || worker_loop(…))`.
//!
//! Over-approximation (extra edges) costs a spurious finding that a
//! review either fixes or allowlists; under-approximation would silently
//! hide real ones, so ties break toward more edges.

use crate::rules::FileAnalysis;
use std::collections::HashMap;

/// Method/fn names so generic that cross-file name matching would wire
/// unrelated types together; they resolve same-file only.
const AMBIENT: &[&str] = &[
    "add",
    "all",
    "any",
    "as_mut",
    "as_ref",
    "call",
    "chain",
    "clear",
    "clone",
    "cmp",
    "contains",
    "count",
    "default",
    "deref",
    "drain",
    "drop",
    "eq",
    "extend",
    "filter",
    "find",
    "first",
    "flush",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "get_or_init",
    "hash",
    "index",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "join",
    "last",
    "len",
    "load",
    "lock",
    "map",
    "max",
    "min",
    "new",
    "next",
    "pop",
    "push",
    "read",
    "recv",
    "remove",
    "reset",
    "rev",
    "run",
    "send",
    "set",
    "skip",
    "store",
    "sum",
    "swap",
    "take",
    "wait",
    "with",
    "write",
    "zip",
];

/// One graph node: `files[file].fns[func]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    pub file: usize,
    pub func: usize,
}

/// The workspace call graph over every parsed fn item.
#[derive(Debug)]
pub struct SymbolGraph {
    pub nodes: Vec<Node>,
    /// Adjacency: `edges[n]` are the node IDs `n` may call.
    pub edges: Vec<Vec<usize>>,
}

fn file_stem(path: &str) -> &str {
    let base = path.rsplit('/').next().unwrap_or(path);
    base.strip_suffix(".rs").unwrap_or(base)
}

impl SymbolGraph {
    pub fn build(files: &[FileAnalysis]) -> SymbolGraph {
        let mut nodes = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for fj in 0..f.fns.len() {
                nodes.push(Node { file: fi, func: fj });
            }
        }
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (id, n) in nodes.iter().enumerate() {
            by_name
                .entry(files[n.file].fns[n.func].name.as_str())
                .or_default()
                .push(id);
        }

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (id, n) in nodes.iter().enumerate() {
            let caller = &files[n.file].fns[n.func];
            for call in &caller.sites.calls {
                let Some(cands) = by_name.get(call.name.as_str()) else {
                    continue;
                };
                let ambient = AMBIENT.contains(&call.name.as_str());
                let qual = match call.qual.as_deref() {
                    Some("Self") => caller.qual.as_deref(),
                    q => q,
                };
                let targets: Vec<usize> = if let Some(q) = qual {
                    let matched: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&c| {
                            let cf = &files[nodes[c].file];
                            let cfn = &cf.fns[nodes[c].func];
                            cfn.qual.as_deref() == Some(q)
                                || file_stem(&cf.scope_path) == q
                                || cfn.modpath.last().is_some_and(|m| m == q)
                        })
                        .collect();
                    if !matched.is_empty() {
                        matched
                    } else if ambient {
                        Vec::new()
                    } else {
                        cands.clone()
                    }
                } else if ambient {
                    cands
                        .iter()
                        .copied()
                        .filter(|&c| nodes[c].file == n.file)
                        .collect()
                } else {
                    cands.clone()
                };
                edges[id].extend(targets);
            }
            edges[id].sort_unstable();
            edges[id].dedup();
            edges[id].retain(|&e| e != id);
        }
        SymbolGraph { nodes, edges }
    }

    /// Every node reachable from `seeds` (seeds included).
    pub fn reachable(&self, seeds: &[usize]) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = Vec::new();
        for &s in seeds {
            if s < seen.len() && !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
        while let Some(n) = stack.pop() {
            for &e in &self.edges[n] {
                if !seen[e] {
                    seen[e] = true;
                    stack.push(e);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::analyze_source;

    fn graph_of(sources: &[(&str, &str)]) -> (Vec<FileAnalysis>, SymbolGraph) {
        let files: Vec<FileAnalysis> = sources.iter().map(|(p, s)| analyze_source(p, s)).collect();
        let g = SymbolGraph::build(&files);
        (files, g)
    }

    fn find(files: &[FileAnalysis], g: &SymbolGraph, name: &str) -> usize {
        (0..g.nodes.len())
            .find(|&id| {
                let n = g.nodes[id];
                files[n.file].fns[n.func].name == name
            })
            .unwrap()
    }

    #[test]
    fn unique_names_resolve_across_files() {
        let (files, g) = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "pub fn caller() { helper_unique(); }\n",
            ),
            ("crates/b/src/util.rs", "pub fn helper_unique() {}\n"),
        ]);
        let caller = find(&files, &g, "caller");
        let helper = find(&files, &g, "helper_unique");
        assert_eq!(g.edges[caller], vec![helper]);
    }

    #[test]
    fn ambient_names_resolve_same_file_only() {
        let (files, g) = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "pub fn caller(v: &mut Vec<u32>) { v.push(1); }\nfn push() {}\n",
            ),
            ("crates/b/src/lib.rs", "pub fn push() {}\n"),
        ]);
        let caller = find(&files, &g, "caller");
        // Only the same-file `push` is a target, not crates/b's.
        assert_eq!(g.edges[caller].len(), 1);
        let target = g.edges[caller][0];
        assert_eq!(g.nodes[target].file, g.nodes[caller].file);
    }

    #[test]
    fn qualified_calls_prefer_matching_impl_or_file_stem() {
        let (files, g) = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "pub fn caller() { scratch::take(); Widget::new(); }\n",
            ),
            ("crates/t/src/scratch.rs", "pub fn take() {}\n"),
            (
                "crates/a/src/widget.rs",
                "impl Widget { pub fn new() -> Widget { Widget } }\nimpl Other { pub fn new() -> Other { Other } }\n",
            ),
        ]);
        let caller = find(&files, &g, "caller");
        let take = find(&files, &g, "take");
        assert!(g.edges[caller].contains(&take), "file-stem qual match");
        // Exactly one `new` target: the Widget impl, not Other's.
        let new_targets: Vec<usize> = g.edges[caller]
            .iter()
            .copied()
            .filter(|&t| {
                let n = g.nodes[t];
                files[n.file].fns[n.func].name == "new"
            })
            .collect();
        assert_eq!(new_targets.len(), 1);
        let n = g.nodes[new_targets[0]];
        assert_eq!(files[n.file].fns[n.func].qual.as_deref(), Some("Widget"));
    }

    #[test]
    fn spawn_reachability_sees_through_spawn_closures() {
        let (files, g) = graph_of(&[(
            "crates/t/src/par.rs",
            "fn ensure_workers() { std::thread::Builder::new().spawn(move || worker_loop()); }\n\
             fn worker_loop() { job_run_once(); }\n\
             fn job_run_once() {}\n",
        )]);
        let spawner = find(&files, &g, "ensure_workers");
        let reach = g.reachable(&[spawner]);
        let run = find(&files, &g, "job_run_once");
        assert!(reach[run], "worker body must be spawn-reachable");
    }
}
