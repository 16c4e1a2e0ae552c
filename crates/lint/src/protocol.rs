//! R13 — session-protocol **typestate** analysis.
//!
//! PR 8's resumable solver sessions (`LarSession` / `OmpSession` /
//! `LassoCdSession` / `MethodSession`) carry call-order invariants that
//! the runtime enforces with `BadConfig` errors: samples must be
//! ingested (`extend_samples` / `apply_delta`) before any `step`-like
//! call, `into_path` consumes the session, and the one-shot solvers
//! (`Method::Ls`, `Method::Star`) reject streaming sessions outright.
//! This pass catches those misuses statically, with the same
//! decl → flow → sink traces as R7–R9.
//!
//! The engine is a forward may/must dataflow over the body CFG
//! ([`crate::cfg`]). Each local bound to a `*Session::new(..)` call
//! carries a state bit-set:
//!
//! * `CREATED` — constructed, no ingestion observed on this path;
//! * `FED` — at least one ingestion (or step — a step "touches" the
//!   session so one misuse yields one finding, not a cascade);
//! * `CONSUMED` — moved into `into_path()`.
//!
//! Joins union the bit-sets, and sinks fire on **definite** states
//! only (`states == CREATED`, `states == CONSUMED`): a session fed on
//! *some* path is not flagged, which keeps the rule zero-false-positive
//! on branchy driver code at the cost of missing the maybe-unfed case
//! (documented imprecision).
//!
//! Deliberately **not** flagged: `extend_samples`/`apply_delta` after a
//! finished path — `OmpSession::apply_delta` legitimately resumes a
//! finished session (the streaming driver in `rsm-core` depends on it),
//! so "feed after finish" is the protocol working as designed, not a
//! violation.

use std::collections::BTreeMap;

use crate::cfg::{
    parse_body, skip_group, solve, split_args, Cfg, ExprRange, Forward, NonConvergence, StmtKind,
};
use crate::lexer::Token;

/// Ingestion methods: establish `FED`.
const FEED_METHODS: [&str; 2] = ["extend_samples", "apply_delta"];

/// Step-like methods: require ingestion first.
const STEP_METHODS: [&str; 4] = ["step", "run", "run_to", "deselect"];

/// The consuming method.
const CONSUME_METHOD: &str = "into_path";

/// Non-consuming query surface — calling any of these on a consumed
/// session is a use-after-consume.
const QUERY_METHODS: [&str; 10] = [
    "is_converged",
    "is_finished",
    "model",
    "num_atoms",
    "path",
    "rows_seen",
    "selected",
    "steps_taken",
    "sweeps",
    "sweeps_done",
];

/// One-shot solver variants that reject streaming sessions at runtime.
const ONE_SHOT_METHODS: [&str; 2] = ["Ls", "Star"];

const CREATED: u8 = 1;
const FED: u8 = 2;
const CONSUMED: u8 = 4;

/// What the typestate scan found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolKind {
    /// `MethodSession::new(Method::Ls | Method::Star, ..)` — the
    /// one-shot solvers reject streaming sessions at runtime.
    StreamingConfig {
        /// The offending variant name (`Ls` / `Star`).
        method: String,
    },
    /// A step-like call on a session no path has fed.
    StepBeforeFeed {
        /// The session local.
        name: String,
        /// The step-like method called.
        method: String,
    },
    /// A session method call after `into_path()` consumed the session.
    UseAfterConsume {
        /// The session local.
        name: String,
        /// The method called on the consumed session.
        method: String,
    },
}

/// One R13 finding: kind, sink line, decl → flow → sink trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolEvent {
    /// What was found.
    pub kind: ProtocolKind,
    /// 1-based sink line.
    pub line: u32,
    /// Def-use witness, decl first, sink last.
    pub trace: Vec<String>,
}

/// Per-variable typestate fact.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StateFact {
    /// Union of `CREATED` / `FED` / `CONSUMED` over paths reaching
    /// the program point.
    states: u8,
    /// Decl trace frame (constructor site).
    decl: String,
    /// Line of the consuming `into_path` call, when `CONSUMED` is set.
    consumed_at: u32,
}

type Env = BTreeMap<String, StateFact>;

/// Runs the typestate analysis over one body (comment-free token slice
/// including the outer braces). Returns line-sorted events.
pub fn analyze(code: &[(usize, &Token)], file: &str) -> Result<Vec<ProtocolEvent>, NonConvergence> {
    analyze_seeded(code, file, &[])
}

/// [`analyze`] with the function's `*Session`-typed parameters seeded
/// into the entry state as `(binder, type-name, decl-line)` triples
/// (see [`crate::summary::session_params`]). A parameter session has
/// an unknown feeding history, so it is seeded `FED` — step-before-feed
/// can never fire on it — but `into_path()` consumption is definite,
/// so use-after-consume still does.
///
/// # Errors
///
/// [`NonConvergence`] if the fixpoint hits the round cap.
pub fn analyze_seeded(
    code: &[(usize, &Token)],
    file: &str,
    seeds: &[(String, String, u32)],
) -> Result<Vec<ProtocolEvent>, NonConvergence> {
    let ir = parse_body(code);
    let cfg = Cfg::build(&ir);
    let a = Pass {
        code,
        file,
        ir: &ir,
    };

    let mut entry = Env::new();
    for (name, ty, line) in seeds {
        entry.insert(
            name.clone(),
            StateFact {
                states: FED,
                decl: format!("`{name}` received as a `{ty}` parameter ({file}:{line})"),
                consumed_at: 0,
            },
        );
    }
    let mut events = Vec::new();
    solve(&a, &cfg, entry, |env, sid| {
        for range in ir.stmts[sid].kind.expr_ranges() {
            a.scan(env, &range, &mut events);
        }
    })?;
    events.sort_by_key(|e| e.line);
    events.dedup();
    Ok(events)
}

struct Pass<'a> {
    code: &'a [(usize, &'a Token)],
    file: &'a str,
    ir: &'a crate::cfg::BodyIr,
}

impl Pass<'_> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.code.get(i).map(|&(_, t)| t)
    }

    fn at(&self, line: u32) -> String {
        format!("{}:{}", self.file, line)
    }

    /// The constructor call in `range`, if any: an identifier ending in
    /// `Session` followed by `::new(`. Returns (type-name index,
    /// argument ranges).
    fn session_ctor(&self, range: &ExprRange) -> Option<(usize, Vec<ExprRange>)> {
        for i in range.clone() {
            let is_ctor = self
                .tok(i)
                .and_then(Token::ident)
                .is_some_and(|id| id.ends_with("Session"))
                && self.tok(i + 1).is_some_and(|t| t.is_punct("::"))
                && self.tok(i + 2).and_then(Token::ident) == Some("new")
                && self.tok(i + 3).is_some_and(|t| t.is_punct("("));
            if is_ctor {
                let close = skip_group(self.code, i + 3);
                return Some((i, split_args(self.code, i + 4, close.saturating_sub(1))));
            }
        }
        None
    }

    /// `Method::<Variant>` literal spelled in `range`, or a variable
    /// the transfer const-propagated one into.
    fn method_variant(&self, env: &MethodEnv, range: &ExprRange) -> Option<String> {
        for i in range.clone() {
            if self.tok(i).and_then(Token::ident) == Some("Method")
                && self.tok(i + 1).is_some_and(|t| t.is_punct("::"))
            {
                return self.tok(i + 2).and_then(Token::ident).map(str::to_string);
            }
        }
        // Single-identifier argument: look it up.
        if range.len() == 1 {
            if let Some(id) = self.tok(range.start).and_then(Token::ident) {
                return env.get(id).cloned();
            }
        }
        None
    }

    /// Method calls on tracked receivers in `range`: `(name, method,
    /// token index)` triples, in order.
    fn method_calls(&self, range: &ExprRange) -> Vec<(String, String, usize)> {
        let mut out = Vec::new();
        for i in range.clone() {
            let Some(recv) = self.tok(i).and_then(Token::ident) else {
                continue;
            };
            let is_call = self.tok(i + 1).is_some_and(|t| t.is_punct("."))
                && self.tok(i + 3).is_some_and(|t| t.is_punct("("));
            if !is_call {
                continue;
            }
            // Not a field access chain head (`a.b.method(..)` tracks
            // nothing — sessions are locals here).
            if i > range.start && self.tok(i - 1).is_some_and(|t| t.is_punct(".")) {
                continue;
            }
            if let Some(m) = self.tok(i + 2).and_then(Token::ident) {
                out.push((recv.to_string(), m.to_string(), i + 2));
            }
        }
        out
    }
}

impl Forward for Pass<'_> {
    type Env = Env;
    const ENGINE: &'static str = "protocol";

    /// Unions the state bit-sets; the first consuming line wins.
    fn join(dst: &mut Env, src: &Env) -> bool {
        let mut changed = false;
        for (name, fact) in src {
            match dst.get_mut(name) {
                Some(d) => {
                    let merged = d.states | fact.states;
                    if merged != d.states {
                        d.states = merged;
                        changed = true;
                    }
                    if d.consumed_at == 0 && fact.consumed_at != 0 {
                        d.consumed_at = fact.consumed_at;
                        changed = true;
                    }
                }
                None => {
                    dst.insert(name.clone(), fact.clone());
                    changed = true;
                }
            }
        }
        changed
    }

    fn transfer(&self, env: &mut Env, sid: usize) {
        // Mirror the method-literal const-prop env inline: it is tiny
        // and only `Let` statements write it, so it is reconstructed
        // per-pass inside `scan` via the shared `transfer` order. To
        // keep one source of truth the literal env lives in `Env`
        // under an impossible variable name prefix.
        for range in self.ir.stmts[sid].kind.expr_ranges() {
            for (recv, m, mi) in self.method_calls(&range) {
                let line = self.tok(mi).map_or(0, |t| t.line);
                let Some(fact) = env.get_mut(&recv) else {
                    continue;
                };
                if FEED_METHODS.contains(&m.as_str()) || STEP_METHODS.contains(&m.as_str()) {
                    fact.states = (fact.states & !CREATED) | FED;
                } else if m == CONSUME_METHOD {
                    fact.states = CONSUMED;
                    fact.consumed_at = line;
                }
            }
        }
        if let StmtKind::Let {
            names,
            init: Some(r),
        } = &self.ir.stmts[sid].kind
        {
            if let Some((ti, _)) = self.session_ctor(r) {
                if let [name] = names.as_slice() {
                    let ty = self
                        .tok(ti)
                        .and_then(Token::ident)
                        .unwrap_or("Session")
                        .to_string();
                    let line = self.ir.stmts[sid].line;
                    env.insert(
                        name.clone(),
                        StateFact {
                            states: CREATED,
                            decl: format!(
                                "`{name}` created via `{ty}::new(..)` ({})",
                                self.at(line)
                            ),
                            consumed_at: 0,
                        },
                    );
                }
            }
            // Method-literal const-prop: `let m = Method::Ls;`.
            if let [name] = names.as_slice() {
                if let Some(v) = self.method_variant(&BTreeMap::new(), r) {
                    env.insert(
                        name.clone(),
                        StateFact {
                            states: 0,
                            decl: v,
                            consumed_at: 0,
                        },
                    );
                }
            }
        }
    }
}

impl Pass<'_> {
    fn scan(&self, env: &Env, range: &ExprRange, events: &mut Vec<ProtocolEvent>) {
        // Streaming entry on a one-shot config.
        if let Some((ti, args)) = self.session_ctor(range) {
            let is_method_session = self.tok(ti).and_then(Token::ident) == Some("MethodSession");
            if is_method_session {
                let lits: MethodEnv = env
                    .iter()
                    .filter(|(_, f)| f.states == 0)
                    .map(|(k, f)| (k.clone(), f.decl.clone()))
                    .collect();
                if let Some(v) = args.first().and_then(|a| self.method_variant(&lits, a)) {
                    if ONE_SHOT_METHODS.contains(&v.as_str()) {
                        let line = self.tok(ti).map_or(0, |t| t.line);
                        events.push(ProtocolEvent {
                            kind: ProtocolKind::StreamingConfig { method: v.clone() },
                            line,
                            trace: vec![
                                format!(
                                    "`Method::{v}` selects a one-shot solver ({})",
                                    self.at(line)
                                ),
                                format!(
                                    "passed to `MethodSession::new(..)`, which rejects \
                                     streaming sessions for it at runtime ({})",
                                    self.at(line)
                                ),
                            ],
                        });
                    }
                }
            }
        }

        for (recv, m, mi) in self.method_calls(range) {
            let Some(fact) = env.get(&recv) else { continue };
            let line = self.tok(mi).map_or(0, |t| t.line);
            if fact.states == CREATED && STEP_METHODS.contains(&m.as_str()) {
                events.push(ProtocolEvent {
                    kind: ProtocolKind::StepBeforeFeed {
                        name: recv.clone(),
                        method: m.clone(),
                    },
                    line,
                    trace: vec![
                        fact.decl.clone(),
                        format!(
                            "`.{m}(..)` called before any `extend_samples`/`apply_delta` \
                             ingestion ({})",
                            self.at(line)
                        ),
                    ],
                });
            }
            let is_session_method = FEED_METHODS.contains(&m.as_str())
                || STEP_METHODS.contains(&m.as_str())
                || QUERY_METHODS.contains(&m.as_str())
                || m == CONSUME_METHOD;
            if fact.states == CONSUMED && is_session_method {
                events.push(ProtocolEvent {
                    kind: ProtocolKind::UseAfterConsume {
                        name: recv.clone(),
                        method: m.clone(),
                    },
                    line,
                    trace: vec![
                        fact.decl.clone(),
                        format!("consumed by `.into_path()` ({})", self.at(fact.consumed_at)),
                        format!(
                            "`.{m}(..)` called on the consumed session ({})",
                            self.at(line)
                        ),
                    ],
                });
            }
        }
    }
}

/// Variable → `Method::<Variant>` literal, for the tiny const-prop
/// feeding the streaming-config check.
type MethodEnv = BTreeMap<String, String>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, TokenKind};

    fn events_of(body: &str) -> Vec<ProtocolEvent> {
        let toks = lex(body);
        let code: Vec<(usize, &Token)> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
            .collect();
        analyze(&code, "test.rs").expect("converges")
    }

    #[test]
    fn step_before_feed_fires_with_decl_trace() {
        let ev = events_of("{ let mut s = LarSession::new(cfg, m)?; s.step(&g, &f)?; }");
        assert_eq!(ev.len(), 1, "{ev:?}");
        assert!(matches!(
            &ev[0].kind,
            ProtocolKind::StepBeforeFeed { name, method } if name == "s" && method == "step"
        ));
        assert!(
            ev[0].trace[0].contains("LarSession::new"),
            "{:?}",
            ev[0].trace
        );
    }

    #[test]
    fn feeding_first_is_clean_and_one_misuse_does_not_cascade() {
        let clean = events_of(
            "{ let mut s = OmpSession::new(cfg, m)?; s.extend_samples(&g, &f, n)?; \
               s.run(&g, &f)?; let p = s.into_path(); }",
        );
        assert!(clean.is_empty(), "{clean:?}");
        // Two steps on an unfed session: only the first fires (the
        // step transfer marks the session touched).
        let ev = events_of(
            "{ let mut s = LarSession::new(cfg, m)?; s.step(&g, &f)?; s.step(&g, &f)?; }",
        );
        assert_eq!(ev.len(), 1, "{ev:?}");
    }

    #[test]
    fn fed_on_some_path_is_not_flagged() {
        // May-fed: the definite-state gate keeps this silent.
        let ev = events_of(
            "{ let mut s = LarSession::new(cfg, m)?; \
               if warm { s.extend_samples(&g, &f, n)?; } s.run(&g, &f)?; }",
        );
        assert!(ev.is_empty(), "{ev:?}");
    }

    #[test]
    fn use_after_into_path_fires_for_queries_and_feeds() {
        let ev = events_of(
            "{ let mut s = LarSession::new(cfg, m)?; s.extend_samples(&g, &f, n)?; \
               let p = s.into_path(); let k = s.steps_taken(); }",
        );
        assert_eq!(ev.len(), 1, "{ev:?}");
        assert!(matches!(
            &ev[0].kind,
            ProtocolKind::UseAfterConsume { method, .. } if method == "steps_taken"
        ));
        assert_eq!(ev[0].trace.len(), 3, "{:?}", ev[0].trace);
    }

    #[test]
    fn one_shot_methods_reject_streaming_sessions() {
        let ev = events_of("{ let s = MethodSession::new(Method::Ls, lmax, m); }");
        assert_eq!(ev.len(), 1, "{ev:?}");
        assert!(matches!(
            &ev[0].kind,
            ProtocolKind::StreamingConfig { method } if method == "Ls"
        ));
        // Const-propagated variant.
        let ev = events_of("{ let m0 = Method::Star; let s = MethodSession::new(m0, lmax, m); }");
        assert_eq!(ev.len(), 1, "{ev:?}");
        // Streaming-capable variants are fine.
        assert!(events_of("{ let s = MethodSession::new(Method::Lar, lmax, m); }").is_empty());
        assert!(events_of("{ let s = MethodSession::new(chosen, lmax, m); }").is_empty());
    }

    #[test]
    fn seeded_parameter_sessions_track_consumption_but_not_feeding() {
        let toks = lex("{ let p = s.into_path(); let n = s.rows_seen(); }");
        let code: Vec<(usize, &Token)> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
            .collect();
        let seeds = vec![("s".to_string(), "OmpSession".to_string(), 7u32)];
        let ev = analyze_seeded(&code, "test.rs", &seeds).expect("converges");
        assert_eq!(ev.len(), 1, "{ev:?}");
        assert!(matches!(
            &ev[0].kind,
            ProtocolKind::UseAfterConsume { method, .. } if method == "rows_seen"
        ));
        assert!(ev[0].trace[0].contains("parameter"), "{:?}", ev[0].trace);
        // Stepping a parameter session is never flagged: its feeding
        // history is unknown, and the rule only fires on definite state.
        let toks = lex("{ s.step(&g, &f)?; }");
        let code: Vec<(usize, &Token)> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
            .collect();
        let seeds = vec![("s".to_string(), "LarSession".to_string(), 3u32)];
        assert!(analyze_seeded(&code, "test.rs", &seeds)
            .expect("converges")
            .is_empty());
    }

    #[test]
    fn unrelated_locals_and_methods_stay_silent() {
        assert!(events_of("{ let v = Vec::new(); v.push(1); v.len(); }").is_empty());
        assert!(
            events_of("{ let s = LarSession::new(cfg, m)?; let n = s.rows_seen(); }").is_empty(),
            "queries on an unfed session are legal"
        );
    }
}
