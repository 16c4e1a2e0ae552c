//! Workspace **call graph** for the interprocedural rules (R3v2, R4v2,
//! R6v2).
//!
//! Built over the item trees of every scanned file ([`Unit`]), the
//! graph resolves calls by crate-qualified name with a deliberate
//! method-call over-approximation (`.name(...)` edges to *every*
//! workspace method of that name). Over-approximation is the safe
//! direction for the reachability rules: it can only make more sites
//! reachable, never hide one.
//!
//! Resolution strategy (see DESIGN.md § Call-graph IR):
//!
//! - **Bare calls** `name(...)` — same file, else same crate, else any
//!   workspace free fn of that name (covers `use`-imported calls).
//! - **Path calls** `a::b::name(...)` — the head segment picks the
//!   crate (`rsm_core` → `core`; `crate`/`self`/`super` → the caller's
//!   crate; `Self` → the caller's impl type; `std`/`core`/`alloc` →
//!   external, no edge); remaining segments must all appear in the
//!   candidate's module/impl path.
//! - **Method calls** `.name(...)` — every workspace method named
//!   `name`, in any crate.
//! - Unresolvable names (std and vendored-dep calls) produce no edge.
//!
//! Each node also records its **violation sites** (panic, nondet,
//! materialization); the rule layer combines them with reachability.
//!
//! For the v5 summary engine the graph also exposes its **strongly
//! connected components** ([`CallGraph::sccs`], iterative Tarjan):
//! emitted in reverse topological order (callees before callers), which
//! is exactly the order a bottom-up summary computation needs, with a
//! fixpoint only inside non-trivial components.

use std::collections::VecDeque;

use crate::lexer::{lex, Token, TokenKind};
use crate::parse::{parse_items, FnItem};
use crate::rules::{mark_test_spans, FileClass};

/// Impl-type names whose methods are matrix-free entry fronts for
/// rule R6v2 (transitive materialization).
pub const FRONT_TYPES: [&str; 2] = ["LarConfig", "LassoCdConfig"];

/// Function names that are matrix-free entry fronts for rule R6v2.
pub const FRONT_FNS: [&str; 3] = ["cross_validate", "cross_validate_source", "fit"];

/// Function names that are hot-path kernel entry points for the perf
/// rules R10–R12 (ROADMAP item 1: the streaming correlate / column
/// evaluation inner loops, plus the session-refactor hot paths — the
/// rank-1 factor downdates and the per-batch delta fold).
pub const KERNEL_FNS: [&str; 8] = [
    "correlate",
    "column_block_into",
    "columns_into",
    "column_sq_norms",
    "gram_active",
    // PR 8 incremental sessions: Givens downdates run O(p²) per lasso
    // drop / OMP deselect, and the delta fold runs once per sample
    // batch on the pipeline's consumer side.
    "drop_column",
    "remove_column",
    "apply_delta",
];

/// Files whose every non-test fn is a kernel entry point (the dense
/// vector primitives and the Hermite evaluation the kernels sit on).
pub const KERNEL_FILES: [&str; 2] = ["vec_ops.rs", "hermite.rs"];

/// One parsed file: source tokens plus the recovered item tree. The
/// whole workspace is parsed into units first; the call graph and the
/// rule passes then run over the full set.
#[derive(Debug)]
pub struct Unit {
    /// Workspace-relative path (diagnostic label).
    pub rel: String,
    /// Crate/test classification.
    pub class: FileClass,
    /// Full token stream (comments included — the suppression parser
    /// needs them).
    pub tokens: Vec<Token>,
    /// Function items parsed out of `tokens`.
    pub items: Vec<FnItem>,
    /// The file's source text. Token spans are byte ranges into this —
    /// the perf rules slice it to synthesize machine-applicable fixes.
    pub src: String,
}

impl Unit {
    /// Lexes and item-parses one file.
    pub fn new(rel: String, src: &str, class: FileClass) -> Unit {
        let tokens = lex(src);
        let items = parse_items(&tokens);
        Unit {
            rel,
            class,
            tokens,
            items,
            src: src.to_string(),
        }
    }
}

/// A violation site inside one function body (or at module scope).
#[derive(Debug, Clone)]
pub struct Site {
    /// 1-based source line.
    pub line: u32,
    /// Short human label (`unwrap()`, `env::var`, `design_matrix()`).
    pub detail: String,
    /// True for `env::*` reads — the only site kind the `RSM_THREADS`
    /// shim sanctions.
    pub env: bool,
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Callee node index.
    pub callee: usize,
    /// 1-based line of the call site in the caller.
    pub line: u32,
}

/// One call-graph node: a function item, or the per-file module-scope
/// pseudo-node that holds top-level sites (`use` lines, const
/// initializers) so file-level violations keep firing.
#[derive(Debug, Clone)]
pub struct Node {
    /// Stable display key: `crate::mods::Type::name`.
    pub key: String,
    /// Bare function name (`(module)` for the pseudo-node).
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn` keyword (1 for module scope).
    pub line: u32,
    /// Index into the unit slice the graph was built from.
    pub unit: usize,
    /// Crate name from the file's [`FileClass`].
    pub crate_name: Option<String>,
    /// File-module path + inline mod/impl path + name.
    pub segments: Vec<String>,
    /// Reachability root for R3v2/R4v2: an externally visible (`pub`
    /// or trait-surface) non-test fn, or a production file's module
    /// scope.
    pub is_entry: bool,
    /// Reachability root for R6v2 (matrix-free front).
    pub is_front: bool,
    /// Reachability root for the perf rules R10–R12: a hot-path kernel
    /// entry point (`correlate`/`column_block_into`/`columns_into`/
    /// `column_sq_norms` by name, or any fn defined in `vec_ops.rs` /
    /// `hermite.rs`). Non-test only.
    pub is_kernel: bool,
    /// Test code (`#[test]`, `#[cfg(test)]`, or a tests/ file).
    pub is_test: bool,
    /// Defined in an `impl`/`trait` block.
    pub is_method: bool,
    /// The per-file module-scope pseudo-node.
    pub module_scope: bool,
    /// The sanctioned `RSM_THREADS` shim: a `crates/runtime` fn whose
    /// body mentions the `RSM_THREADS` literal. Its env reads are the
    /// one place ambient state may enter.
    pub shim: bool,
    /// Outgoing edges, sorted by (callee key, line), deduped by callee.
    pub calls: Vec<Call>,
    /// `unwrap()` / `expect()` / `panic!` sites.
    pub panic_sites: Vec<Site>,
    /// Wall-clock / thread-identity / env sites.
    pub nondet_sites: Vec<Site>,
    /// `design_matrix(...)` call sites.
    pub mat_sites: Vec<Site>,
}

/// How a node is reached from the root set of a BFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// Not reachable.
    No,
    /// A root itself.
    Entry,
    /// Reached through `caller`'s call at `line` (shortest path).
    Via {
        /// Caller node index.
        caller: usize,
        /// Call-site line in the caller.
        line: u32,
    },
}

impl Reach {
    /// True for `Entry` or `Via`.
    pub fn yes(self) -> bool {
        !matches!(self, Reach::No)
    }
}

/// The resolved workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All nodes; function nodes follow their file's module node.
    pub nodes: Vec<Node>,
}

/// What a scanned call site looked like syntactically.
enum CallRef {
    Bare(String),
    Path(Vec<String>),
    Method(String),
}

impl CallGraph {
    /// Builds the graph over the full unit set.
    pub fn build(units: &[Unit]) -> CallGraph {
        let mut g = CallGraph::default();
        // Pass 1: nodes.
        for (ui, unit) in units.iter().enumerate() {
            let file_mods = file_mod_segments(&unit.rel);
            let crate_label = unit
                .class
                .crate_name
                .clone()
                .unwrap_or_else(|| unit.rel.clone());
            g.nodes.push(Node {
                key: format!("{}::(module)", unit.rel),
                name: "(module)".into(),
                file: unit.rel.clone(),
                line: 1,
                unit: ui,
                crate_name: unit.class.crate_name.clone(),
                segments: vec!["(module)".into()],
                is_entry: !unit.class.is_test_file,
                is_front: false,
                is_kernel: false,
                is_test: unit.class.is_test_file,
                is_method: false,
                module_scope: true,
                shim: false,
                calls: Vec::new(),
                panic_sites: Vec::new(),
                nondet_sites: Vec::new(),
                mat_sites: Vec::new(),
            });
            for item in &unit.items {
                let mut segments = file_mods.clone();
                segments.extend(item.path.iter().cloned());
                segments.push(item.name.clone());
                let is_test = item.is_test || unit.class.is_test_file;
                let impl_type = item.path.last().map(String::as_str);
                let is_front = !is_test
                    && (FRONT_FNS.contains(&item.name.as_str())
                        || (item.is_method && impl_type.is_some_and(|t| FRONT_TYPES.contains(&t))));
                let in_kernel_file = KERNEL_FILES
                    .iter()
                    .any(|f| unit.rel.ends_with(f) && unit.class.is_lib_crate());
                let is_kernel = !is_test
                    && unit.class.is_lib_crate()
                    && (KERNEL_FNS.contains(&item.name.as_str()) || in_kernel_file);
                g.nodes.push(Node {
                    key: format!("{crate_label}::{}", segments.join("::")),
                    name: item.name.clone(),
                    file: unit.rel.clone(),
                    line: item.line,
                    unit: ui,
                    crate_name: unit.class.crate_name.clone(),
                    segments,
                    is_entry: !is_test && item.is_entry_visible(),
                    is_front,
                    is_kernel,
                    is_test,
                    is_method: item.is_method,
                    module_scope: false,
                    shim: false,
                    calls: Vec::new(),
                    panic_sites: Vec::new(),
                    nondet_sites: Vec::new(),
                    mat_sites: Vec::new(),
                });
            }
        }
        // Index from (unit, item ordinal) to node: module node first,
        // then items in parse order.
        let unit_first_item = unit_first_item(units);
        // Pass 2: body scans + resolution.
        let mut edges: Vec<Vec<Call>> = vec![Vec::new(); g.nodes.len()];
        for (ui, unit) in units.iter().enumerate() {
            let code: Vec<(usize, &Token)> = unit
                .tokens
                .iter()
                .enumerate()
                .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
                .collect();
            let mut covered = vec![false; unit.tokens.len()];
            for (oi, item) in unit.items.iter().enumerate() {
                let Some((start, end)) = item.body else {
                    continue;
                };
                for c in covered.iter_mut().take(end).skip(start) {
                    *c = true;
                }
                let ni = unit_first_item[ui] + oi;
                let lo = code.partition_point(|&(o, _)| o < start);
                let hi = code.partition_point(|&(o, _)| o < end);
                let scan = scan_body(&code[lo..hi]);
                let crate_ok =
                    unit.class.crate_name.as_deref() == Some("runtime") || unit.class.explicit;
                g.nodes[ni].shim = crate_ok && scan.mentions_rsm_threads;
                g.nodes[ni].panic_sites = scan.panic_sites;
                g.nodes[ni].nondet_sites = scan.nondet_sites;
                g.nodes[ni].mat_sites = scan.mat_sites;
                for (cref, line) in scan.calls {
                    for callee in g.resolve(ni, &cref) {
                        edges[ni].push(Call { callee, line });
                    }
                }
            }
            // Module scope: sites only (top-level Rust code has no
            // executable calls outside const initializers, which we
            // accept as a documented false-negative class).
            let in_test = mark_test_spans(&unit.tokens);
            let module_code: Vec<(usize, &Token)> = code
                .iter()
                .filter(|&&(o, _)| !covered[o] && !in_test[o])
                .copied()
                .collect();
            let scan = scan_body(&module_code);
            let mi = unit_first_item[ui] - 1;
            g.nodes[mi].panic_sites = scan.panic_sites;
            g.nodes[mi].nondet_sites = scan.nondet_sites;
            g.nodes[mi].mat_sites = scan.mat_sites;
        }
        for (ni, mut calls) in edges.into_iter().enumerate() {
            calls.sort_by(|a, b| {
                g.nodes[a.callee]
                    .key
                    .cmp(&g.nodes[b.callee].key)
                    .then(a.line.cmp(&b.line))
            });
            calls.dedup_by_key(|c| c.callee);
            g.nodes[ni].calls = calls;
        }
        g
    }

    /// Resolves one syntactic call in `caller` to candidate node
    /// indices. Empty for external (std/vendored) calls.
    fn resolve(&self, caller: usize, cref: &CallRef) -> Vec<usize> {
        let nodes = &self.nodes;
        let fn_nodes = || nodes.iter().enumerate().filter(|(_, n)| !n.module_scope);
        match cref {
            CallRef::Method(name) => fn_nodes()
                .filter(|(_, n)| n.is_method && n.name == *name)
                .map(|(i, _)| i)
                .collect(),
            CallRef::Bare(name) => {
                let cands: Vec<usize> = fn_nodes()
                    .filter(|(_, n)| !n.is_method && n.name == *name)
                    .map(|(i, _)| i)
                    .collect();
                let same_file: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| nodes[i].unit == nodes[caller].unit)
                    .collect();
                if !same_file.is_empty() {
                    return same_file;
                }
                let same_crate: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| {
                        nodes[i].crate_name.is_some()
                            && nodes[i].crate_name == nodes[caller].crate_name
                    })
                    .collect();
                if !same_crate.is_empty() {
                    return same_crate;
                }
                cands
            }
            CallRef::Path(segs) => {
                let name = segs.last().cloned().unwrap_or_default();
                let mut quals: Vec<String> = segs[..segs.len() - 1].to_vec();
                let mut crate_filter: Option<String> = None;
                let mut require_free = false;
                if let Some(head) = quals.first().cloned() {
                    match head.as_str() {
                        // `core` the std facade shadows our `core`
                        // crate in paths; imports of the workspace
                        // crate are spelled `rsm_core`.
                        "std" | "core" | "alloc" => return Vec::new(),
                        "crate" | "self" | "super" => {
                            crate_filter = nodes[caller].crate_name.clone();
                            while quals
                                .first()
                                .is_some_and(|q| matches!(q.as_str(), "crate" | "self" | "super"))
                            {
                                quals.remove(0);
                            }
                        }
                        "Self" => {
                            let ty = nodes[caller]
                                .segments
                                .len()
                                .checked_sub(2)
                                .and_then(|i| nodes[caller].segments.get(i))
                                .cloned();
                            quals.remove(0);
                            if let Some(ty) = ty {
                                quals.insert(0, ty);
                            }
                            crate_filter = nodes[caller].crate_name.clone();
                        }
                        h if h.starts_with("rsm_") => {
                            crate_filter = Some(h["rsm_".len()..].replace('_', "-"));
                            quals.remove(0);
                        }
                        "sparse_rsm" => {
                            crate_filter = Some("sparse-rsm".into());
                            quals.remove(0);
                        }
                        _ => {}
                    }
                }
                if quals.is_empty() {
                    require_free = true;
                }
                fn_nodes()
                    .filter(|(_, n)| n.name == name)
                    .filter(|(_, n)| !(require_free && n.is_method))
                    .filter(|(_, n)| crate_filter.is_none() || n.crate_name == crate_filter)
                    .filter(|(_, n)| {
                        let qpath = &n.segments[..n.segments.len() - 1];
                        quals.iter().all(|q| qpath.iter().any(|s| s == q))
                    })
                    .map(|(i, _)| i)
                    .collect()
            }
        }
    }

    /// Multi-source BFS over call edges. Roots are taken in key order
    /// and adjacency lists are key-sorted, so the parent pointers (and
    /// therefore every printed call chain) are deterministic.
    pub fn reach(&self, root: impl Fn(&Node) -> bool) -> Vec<Reach> {
        let mut roots: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| root(&self.nodes[i]))
            .collect();
        roots.sort_by(|&a, &b| {
            self.nodes[a]
                .key
                .cmp(&self.nodes[b].key)
                .then(self.nodes[a].line.cmp(&self.nodes[b].line))
        });
        let mut reach = vec![Reach::No; self.nodes.len()];
        let mut q = VecDeque::new();
        for r in roots {
            if !reach[r].yes() {
                reach[r] = Reach::Entry;
                q.push_back(r);
            }
        }
        while let Some(u) = q.pop_front() {
            for call in &self.nodes[u].calls {
                if !reach[call.callee].yes() {
                    reach[call.callee] = Reach::Via {
                        caller: u,
                        line: call.line,
                    };
                    q.push_back(call.callee);
                }
            }
        }
        reach
    }

    /// Like [`reach`](Self::reach), but propagation only continues
    /// *through* nodes satisfying `through`: a node failing the
    /// predicate is still marked reachable (it is a legitimate finding
    /// target) but its own callees are not enqueued on its account.
    ///
    /// This is how R3/R4/R6 prune test intermediaries: a `#[test]` fn
    /// calling into the library does not make everything downstream of
    /// the test "entry-reachable" — only the functions the test touches
    /// directly via a qualifying root. Results are always a subset of
    /// plain `reach` with the same roots.
    pub fn reach_via(
        &self,
        root: impl Fn(&Node) -> bool,
        through: impl Fn(&Node) -> bool,
    ) -> Vec<Reach> {
        let mut roots: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| root(&self.nodes[i]))
            .collect();
        roots.sort_by(|&a, &b| {
            self.nodes[a]
                .key
                .cmp(&self.nodes[b].key)
                .then(self.nodes[a].line.cmp(&self.nodes[b].line))
        });
        let mut reach = vec![Reach::No; self.nodes.len()];
        let mut q = VecDeque::new();
        for r in roots {
            if !reach[r].yes() {
                reach[r] = Reach::Entry;
                if through(&self.nodes[r]) {
                    q.push_back(r);
                }
            }
        }
        while let Some(u) = q.pop_front() {
            for call in &self.nodes[u].calls {
                if !reach[call.callee].yes() {
                    reach[call.callee] = Reach::Via {
                        caller: u,
                        line: call.line,
                    };
                    if through(&self.nodes[call.callee]) {
                        q.push_back(call.callee);
                    }
                }
            }
        }
        reach
    }

    /// The shortest root→…→`node` call chain under `reach`, one frame
    /// per element (`key (file:line)`), root first. Empty if the node
    /// is unreachable.
    pub fn chain(&self, reach: &[Reach], node: usize) -> Vec<String> {
        let mut frames = Vec::new();
        let mut cur = node;
        loop {
            let n = &self.nodes[cur];
            match reach[cur] {
                Reach::No => return Vec::new(),
                Reach::Entry => {
                    frames.push(format!("{} ({}:{})", n.key, n.file, n.line));
                    break;
                }
                Reach::Via { caller, line } => {
                    frames.push(format!("{} ({}:{})", n.key, n.file, line));
                    cur = caller;
                }
            }
        }
        frames.reverse();
        frames
    }

    /// Strongly connected components of the call graph (iterative
    /// Tarjan, no recursion — bodies can nest arbitrarily deep).
    ///
    /// Components are emitted in **reverse topological order**: every
    /// callee's component appears before its callers' (ignoring
    /// intra-component edges). Members are sorted by node index.
    /// Determinism: roots are visited in index order and adjacency
    /// lists are key-sorted at build time, so the output is identical
    /// run to run.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.nodes.len();
        const UNVISITED: usize = usize::MAX;
        let mut index = vec![UNVISITED; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut frames: Vec<(usize, usize)> = Vec::new();
        let mut next = 0usize;
        let mut out: Vec<Vec<usize>> = Vec::new();
        for root in 0..n {
            if index[root] != UNVISITED {
                continue;
            }
            index[root] = next;
            low[root] = next;
            next += 1;
            stack.push(root);
            on_stack[root] = true;
            frames.push((root, 0));
            while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
                let ei = *cursor;
                if ei < self.nodes[v].calls.len() {
                    *cursor += 1;
                    let w = self.nodes[v].calls[ei].callee;
                    if index[w] == UNVISITED {
                        index[w] = next;
                        low[w] = next;
                        next += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&mut (u, _)) = frames.last_mut() {
                        let lv = low[v];
                        low[u] = low[u].min(lv);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        out.push(comp);
                    }
                }
            }
        }
        out
    }

    /// Per-node flag: true when the node sits on a call cycle — a
    /// non-trivial SCC, or a direct self-call. These are the nodes the
    /// summary pass must iterate to a fixpoint.
    pub fn in_cycle(&self) -> Vec<bool> {
        let mut cyc = vec![false; self.nodes.len()];
        for comp in self.sccs() {
            if comp.len() > 1 {
                for &i in &comp {
                    cyc[i] = true;
                }
            } else {
                let i = comp[0];
                if self.nodes[i].calls.iter().any(|c| c.callee == i) {
                    cyc[i] = true;
                }
            }
        }
        cyc
    }

    /// Serializes the graph to a deterministic text snapshot: nodes in
    /// key order with their flags, edges, and sites.
    pub fn snapshot(&self) -> String {
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by(|&a, &b| {
            self.nodes[a]
                .key
                .cmp(&self.nodes[b].key)
                .then(self.nodes[a].file.cmp(&self.nodes[b].file))
                .then(self.nodes[a].line.cmp(&self.nodes[b].line))
        });
        let edges: usize = self.nodes.iter().map(|n| n.calls.len()).sum();
        let cyc = self.in_cycle();
        let cycles = self
            .sccs()
            .iter()
            .filter(|c| c.len() > 1 || cyc[c[0]])
            .count();
        let mut out = format!(
            "# rsm-lint call graph v3 — {} nodes, {edges} edges, {cycles} cycles\n",
            self.nodes.len()
        );
        for i in order {
            let n = &self.nodes[i];
            let mut flags = Vec::new();
            for (on, label) in [
                (n.is_entry, "entry"),
                (n.is_front, "front"),
                (n.is_kernel, "kernel"),
                (n.is_test, "test"),
                (n.is_method, "method"),
                (n.shim, "shim"),
                (cyc[i], "cycle"),
            ] {
                if on {
                    flags.push(label);
                }
            }
            let flags = if flags.is_empty() {
                String::new()
            } else {
                format!(" [{}]", flags.join(","))
            };
            out.push_str(&format!("node {}{flags} ({}:{})\n", n.key, n.file, n.line));
            for c in &n.calls {
                out.push_str(&format!("  -> {} @{}\n", self.nodes[c.callee].key, c.line));
            }
            for (kind, sites) in [
                ("panic", &n.panic_sites),
                ("nondet", &n.nondet_sites),
                ("materialize", &n.mat_sites),
            ] {
                for s in sites {
                    out.push_str(&format!("  {kind} {} @{}\n", s.detail, s.line));
                }
            }
        }
        out
    }
}

/// Sites and syntactic calls found in one body's code tokens.
struct BodyScan {
    calls: Vec<(CallRef, u32)>,
    panic_sites: Vec<Site>,
    nondet_sites: Vec<Site>,
    mat_sites: Vec<Site>,
    mentions_rsm_threads: bool,
}

/// Scans a comment-free token slice (with original indices) for call
/// references and violation sites.
fn scan_body(code: &[(usize, &Token)]) -> BodyScan {
    let mut scan = BodyScan {
        calls: Vec::new(),
        panic_sites: Vec::new(),
        nondet_sites: Vec::new(),
        mat_sites: Vec::new(),
        mentions_rsm_threads: false,
    };
    let at = |j: isize| -> Option<&Token> { code.get(usize::try_from(j).ok()?).map(|&(_, t)| t) };
    for (ci, &(_, tok)) in code.iter().enumerate() {
        let i = ci as isize;
        if let TokenKind::Literal(text) = &tok.kind {
            if text.contains("RSM_THREADS") {
                scan.mentions_rsm_threads = true;
            }
            continue;
        }
        // Panic sites: `.unwrap()` / `.expect(` / `panic!`.
        if tok.is_punct(".") {
            if let Some(name @ ("unwrap" | "expect")) = at(i + 1).and_then(Token::ident) {
                if at(i + 2).is_some_and(|t| t.is_punct("(")) {
                    scan.panic_sites.push(Site {
                        line: at(i + 1).map_or(tok.line, |t| t.line),
                        detail: format!("{name}()"),
                        env: false,
                    });
                }
            }
            continue;
        }
        let Some(ident) = tok.ident() else { continue };
        if ident == "panic" && at(i + 1).is_some_and(|t| t.is_punct("!")) {
            scan.panic_sites.push(Site {
                line: tok.line,
                detail: "panic!".into(),
                env: false,
            });
            continue;
        }
        // Nondeterminism sites (same patterns as the v1 lexical rule).
        if ident == "SystemTime" {
            scan.nondet_sites.push(Site {
                line: tok.line,
                detail: "SystemTime".into(),
                env: false,
            });
            continue;
        }
        if ident == "thread"
            && at(i + 1).is_some_and(|t| t.is_punct("::"))
            && at(i + 2).and_then(Token::ident) == Some("current")
        {
            scan.nondet_sites.push(Site {
                line: tok.line,
                detail: "thread::current()".into(),
                env: false,
            });
            continue;
        }
        if ident == "env" && at(i + 1).is_some_and(|t| t.is_punct("::")) {
            if let Some(f @ ("var" | "vars" | "var_os" | "set_var" | "remove_var")) =
                at(i + 2).and_then(Token::ident)
            {
                scan.nondet_sites.push(Site {
                    line: tok.line,
                    detail: format!("env::{f}"),
                    env: true,
                });
                continue;
            }
        }
        // Materialization sites: `design_matrix(` that is a call, not
        // the definition.
        if ident == "design_matrix"
            && at(i + 1).is_some_and(|t| t.is_punct("("))
            && at(i - 1).and_then(Token::ident) != Some("fn")
        {
            scan.mat_sites.push(Site {
                line: tok.line,
                detail: "design_matrix()".into(),
                env: false,
            });
            // Fall through: it is also a call edge (to the definition,
            // which holds no sites of its own).
        }
        // Call references.
        if matches!(
            ident,
            "if" | "while" | "for" | "match" | "return" | "loop" | "fn"
        ) {
            continue;
        }
        if at(i - 1)
            .and_then(Token::ident)
            .is_some_and(|p| matches!(p, "fn" | "struct" | "enum" | "union" | "mod" | "trait"))
        {
            continue;
        }
        // The token after the (possibly turbofished) name must open a
        // call argument list.
        let mut after = i + 1;
        if at(after).is_some_and(|t| t.is_punct("::"))
            && at(after + 1).is_some_and(|t| t.is_punct("<"))
        {
            let mut depth = 0usize;
            let mut j = after + 1;
            loop {
                match at(j) {
                    Some(t) if t.is_punct("<") => depth += 1,
                    Some(t) if t.is_punct(">") => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            after = j + 1;
                            break;
                        }
                    }
                    Some(_) => {}
                    None => {
                        after = j;
                        break;
                    }
                }
                j += 1;
            }
        }
        if !at(after).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        if at(i + 1).is_some_and(|t| t.is_punct("!")) {
            continue; // non-panic macro
        }
        // Gather the `::`-path backwards from the name.
        let mut segs = vec![ident.to_string()];
        let mut j = i;
        while at(j - 1).is_some_and(|t| t.is_punct("::")) {
            match at(j - 2).and_then(Token::ident) {
                Some(seg) => {
                    segs.insert(0, seg.to_string());
                    j -= 2;
                }
                None => break, // `<T as Trait>::name` — keep what we have
            }
        }
        let line = tok.line;
        if at(j - 1).is_some_and(|t| t.is_punct(".")) && segs.len() == 1 {
            scan.calls.push((CallRef::Method(segs.remove(0)), line));
        } else if segs.len() > 1 {
            scan.calls.push((CallRef::Path(segs), line));
        } else {
            scan.calls.push((CallRef::Bare(segs.remove(0)), line));
        }
    }
    scan
}

/// Node index of each unit's **first item node** in a graph built over
/// `units`: the module pseudo-node of unit `ui` is
/// `unit_first_item[ui] - 1` and item `oi` of that unit is
/// `unit_first_item[ui] + oi`. Shared by every pass that walks bodies
/// against the graph (rules, perf, summaries).
pub fn unit_first_item(units: &[Unit]) -> Vec<usize> {
    let mut first = vec![0usize; units.len()];
    let mut next = 0usize;
    for (ui, unit) in units.iter().enumerate() {
        first[ui] = next + 1; // skip module node
        next += 1 + unit.items.len();
    }
    first
}

/// Fn-qualified key (graph-node format, `crate::mods::Type::name`) of
/// the **innermost** function item in `unit` whose span covers `line`
/// — the stable identity the baseline ratchet uses for findings.
/// `None` for module-scope lines outside every function.
pub fn fn_key_at(unit: &Unit, line: u32) -> Option<String> {
    let crate_label = unit
        .class
        .crate_name
        .clone()
        .unwrap_or_else(|| unit.rel.clone());
    let file_mods = file_mod_segments(&unit.rel);
    let mut best: Option<(u32, &FnItem)> = None;
    for item in &unit.items {
        let Some((start, end)) = item.body else {
            continue;
        };
        let lo = item.line.min(unit.tokens[start].line);
        let hi = unit.tokens[end.saturating_sub(1)].line;
        if line < lo || line > hi {
            continue;
        }
        let span = hi - lo;
        if best.is_none_or(|(s, _)| span < s) {
            best = Some((span, item));
        }
    }
    best.map(|(_, item)| {
        let mut segments = file_mods.clone();
        segments.extend(item.path.iter().cloned());
        segments.push(item.name.clone());
        format!("{crate_label}::{}", segments.join("::"))
    })
}

/// Derives the file-level module path from a workspace-relative path:
/// `crates/core/src/a/b.rs` → `["a", "b"]`; `lib.rs`/`main.rs`/`mod.rs`
/// contribute nothing; files outside `src/` (tests, fixtures) have an
/// empty module path.
fn file_mod_segments(rel: &str) -> Vec<String> {
    let parts: Vec<&str> = rel.split('/').collect();
    let Some(src_at) = parts.iter().position(|p| *p == "src") else {
        return Vec::new();
    };
    let mut segs: Vec<String> = Vec::new();
    for (k, part) in parts[src_at + 1..].iter().enumerate() {
        let last = k == parts.len() - src_at - 2;
        let name = if last {
            part.strip_suffix(".rs").unwrap_or(part)
        } else {
            part
        };
        if matches!(name, "lib" | "main" | "mod") {
            continue;
        }
        segs.push(name.to_string());
    }
    segs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(rel: &str, src: &str) -> Unit {
        Unit::new(rel.into(), src, FileClass::from_path(rel))
    }

    fn find<'g>(g: &'g CallGraph, name: &str) -> (usize, &'g Node) {
        g.nodes
            .iter()
            .enumerate()
            .find(|(_, n)| n.name == name)
            .unwrap_or_else(|| panic!("no node named {name}"))
    }

    #[test]
    fn bare_call_prefers_same_file_then_same_crate() {
        let units = vec![
            unit(
                "crates/core/src/a.rs",
                "pub fn entry() { helper(); }\nfn helper() {}\n",
            ),
            unit("crates/core/src/b.rs", "fn helper() {}\n"),
            unit("crates/basis/src/lib.rs", "pub fn helper() {}\n"),
        ];
        let g = CallGraph::build(&units);
        let (_, entry) = find(&g, "entry");
        assert_eq!(entry.calls.len(), 1);
        let callee = &g.nodes[entry.calls[0].callee];
        assert_eq!(callee.file, "crates/core/src/a.rs");
    }

    #[test]
    fn path_call_resolves_crate_and_type() {
        let units = vec![
            unit(
                "crates/cli/src/lib.rs",
                "pub fn run() { rsm_core::solver::fit(); Matrix::new(); }\n",
            ),
            unit("crates/core/src/solver.rs", "pub fn fit() {}\n"),
            unit("crates/core/src/other.rs", "pub fn fit() {}\n"),
            unit(
                "crates/linalg/src/dense.rs",
                "impl Matrix { pub fn new() {} }\n",
            ),
        ];
        let g = CallGraph::build(&units);
        let (_, run) = find(&g, "run");
        let callees: Vec<&str> = run
            .calls
            .iter()
            .map(|c| g.nodes[c.callee].key.as_str())
            .collect();
        // `solver::` qualifier rules out core::other::fit.
        assert_eq!(
            callees,
            vec!["core::solver::fit", "linalg::dense::Matrix::new"]
        );
    }

    #[test]
    fn std_paths_produce_no_edges() {
        let units = vec![unit(
            "crates/core/src/a.rs",
            "pub fn f() { std::mem::take(&mut 3); }\nfn take() {}\n",
        )];
        let g = CallGraph::build(&units);
        let (_, f) = find(&g, "f");
        assert!(
            f.calls.is_empty(),
            "std::mem::take must not edge to local take"
        );
    }

    #[test]
    fn method_calls_edge_to_all_methods_of_that_name() {
        let units = vec![
            unit(
                "crates/core/src/a.rs",
                "pub fn go(x: &dyn S) { x.atom(0); }\n",
            ),
            unit(
                "crates/basis/src/s1.rs",
                "impl S for A { fn atom(&self, j: usize) {} }\n",
            ),
            unit(
                "crates/circuits/src/s2.rs",
                "impl S for B { fn atom(&self, j: usize) {} }\n",
            ),
        ];
        let g = CallGraph::build(&units);
        let (_, go) = find(&g, "go");
        assert_eq!(go.calls.len(), 2, "method approximation fans out");
    }

    #[test]
    fn self_paths_resolve_to_impl_type() {
        let units = vec![unit(
            "crates/core/src/a.rs",
            "impl Cfg {\n  pub fn fit(&self) { Self::check(); }\n  fn check() {}\n}\n",
        )];
        let g = CallGraph::build(&units);
        let (_, fit) = find(&g, "fit");
        assert_eq!(fit.calls.len(), 1);
        assert_eq!(g.nodes[fit.calls[0].callee].name, "check");
    }

    #[test]
    fn reachability_and_chain_are_deterministic() {
        let units = vec![unit(
            "crates/core/src/a.rs",
            "pub fn entry() { mid(); }\nfn mid() { deep(); }\nfn deep() { let x: Option<u8> = None; x.unwrap(); }\nfn orphan() { let x: Option<u8> = None; x.unwrap(); }\n",
        )];
        let g = CallGraph::build(&units);
        let reach = g.reach(|n| n.is_entry && !n.module_scope);
        let (di, deep) = find(&g, "deep");
        assert!(reach[di].yes());
        assert_eq!(deep.panic_sites.len(), 1);
        let chain = g.chain(&reach, di);
        assert_eq!(chain.len(), 3);
        assert!(chain[0].starts_with("core::a::entry "), "{chain:?}");
        assert!(chain[2].starts_with("core::a::deep "), "{chain:?}");
        let (oi, _) = find(&g, "orphan");
        assert!(!reach[oi].yes(), "uncalled private fn is unreachable");
    }

    #[test]
    fn reach_via_marks_but_does_not_expand_pruned_nodes() {
        let units = vec![unit(
            "crates/core/src/a.rs",
            "pub fn entry() { mid(); }\nfn mid() { deep(); }\nfn deep() {}\n#[test]\nfn t() { only_via_test(); }\nfn only_via_test() { deeper(); }\nfn deeper() {}\n",
        )];
        let g = CallGraph::build(&units);
        let r = g.reach_via(|n| n.is_entry && !n.module_scope, |n| !n.is_test);
        let (di, _) = find(&g, "deep");
        assert!(r[di].yes(), "plain chains still propagate");
        // `only_via_test` is only called by the test: with test nodes
        // pruned as intermediaries, neither it nor its callees are
        // reached (the test itself is not a root here).
        let (oi, _) = find(&g, "only_via_test");
        let (ddi, _) = find(&g, "deeper");
        assert!(!r[oi].yes() && !r[ddi].yes(), "test-only chains pruned");
        // A root failing `through` is marked but not expanded.
        let r2 = g.reach_via(|n| n.name == "only_via_test", |n| n.name != "only_via_test");
        assert!(r2[oi].yes(), "pruned root is still marked reachable");
        assert!(!r2[ddi].yes(), "…but nothing is reached through it");
        // reach_via with an always-true predicate equals plain reach.
        let plain = g.reach(|n| n.is_entry && !n.module_scope);
        let all = g.reach_via(|n| n.is_entry && !n.module_scope, |_| true);
        assert_eq!(plain, all);
    }

    #[test]
    fn shim_is_recognized_in_runtime_crate_only() {
        let src =
            "pub fn threads() -> usize {\n  match std::env::var(\"RSM_THREADS\") { _ => 1 }\n}\n";
        let g = CallGraph::build(&[unit("crates/runtime/src/lib.rs", src)]);
        assert!(find(&g, "threads").1.shim);
        let g = CallGraph::build(&[unit("crates/core/src/lib.rs", src)]);
        assert!(!find(&g, "threads").1.shim, "only crates/runtime may shim");
    }

    #[test]
    fn module_scope_holds_top_level_sites() {
        let units = vec![unit(
            "crates/core/src/a.rs",
            "use std::time::SystemTime;\npub fn f() {}\n",
        )];
        let g = CallGraph::build(&units);
        let m = &g.nodes[0];
        assert!(m.module_scope && m.is_entry);
        assert_eq!(m.nondet_sites.len(), 1);
        // The fn body holds none.
        assert!(find(&g, "f").1.panic_sites.is_empty());
    }

    #[test]
    fn fronts_are_flagged() {
        let units = vec![unit(
            "crates/core/src/select.rs",
            "pub fn cross_validate() {}\nimpl LarConfig { pub fn fit(&self) {} }\npub fn other() {}\n",
        )];
        let g = CallGraph::build(&units);
        assert!(find(&g, "cross_validate").1.is_front);
        assert!(find(&g, "fit").1.is_front);
        assert!(!find(&g, "other").1.is_front);
    }

    #[test]
    fn snapshot_is_stable_and_ordered() {
        let units = vec![unit(
            "crates/core/src/a.rs",
            "pub fn b() { a(); }\nfn a() {}\n",
        )];
        let g = CallGraph::build(&units);
        let s1 = g.snapshot();
        let s2 = CallGraph::build(&units).snapshot();
        assert_eq!(s1, s2);
        assert!(s1.starts_with("# rsm-lint call graph v3"));
        let a_at = s1.find("node core::a::a ").expect("a");
        let b_at = s1.find("node core::a::b ").expect("b");
        assert!(a_at < b_at, "key-sorted");
    }

    #[test]
    fn sccs_group_mutual_recursion_in_reverse_topo_order() {
        let units = vec![unit(
            "crates/core/src/a.rs",
            "pub fn top() { ping(0); }\nfn ping(n: usize) { pong(n); }\nfn pong(n: usize) { ping(n); leaf(); }\nfn leaf() {}\n",
        )];
        let g = CallGraph::build(&units);
        let sccs = g.sccs();
        let (pi, _) = find(&g, "ping");
        let (qi, _) = find(&g, "pong");
        let (li, _) = find(&g, "leaf");
        let (ti, _) = find(&g, "top");
        let cycle = sccs
            .iter()
            .find(|c| c.len() > 1)
            .expect("ping/pong form a non-trivial SCC");
        assert_eq!(cycle, &{
            let mut v = vec![pi, qi];
            v.sort_unstable();
            v
        });
        // Reverse topological: leaf's component before the cycle,
        // the cycle before top's component.
        let pos = |i: usize| sccs.iter().position(|c| c.contains(&i)).unwrap();
        assert!(pos(li) < pos(pi), "callee component first");
        assert!(pos(pi) < pos(ti), "caller component last");
        // Deterministic.
        assert_eq!(sccs, g.sccs());
        // in_cycle flags exactly the mutual pair.
        let cyc = g.in_cycle();
        assert!(cyc[pi] && cyc[qi]);
        assert!(!cyc[li] && !cyc[ti]);
    }

    #[test]
    fn direct_self_recursion_is_a_cycle() {
        let units = vec![unit(
            "crates/core/src/a.rs",
            "pub fn rec(n: usize) { if n > 0 { rec(n - 1); } }\n",
        )];
        let g = CallGraph::build(&units);
        let (ri, _) = find(&g, "rec");
        assert!(g.in_cycle()[ri]);
        let snap = g.snapshot();
        assert!(snap.contains("cycle"), "{snap}");
    }

    #[test]
    fn turbofish_calls_still_resolve() {
        let units = vec![unit(
            "crates/core/src/a.rs",
            "pub fn f() { helper::<f64>(); }\nfn helper<T>() {}\n",
        )];
        let g = CallGraph::build(&units);
        assert_eq!(find(&g, "f").1.calls.len(), 1);
    }
}
