//! Intraprocedural **statement recovery and control-flow graph** — the
//! IR underneath the dataflow rules (R7/R8/R9).
//!
//! The item parser ([`crate::parse`]) leaves function bodies as opaque
//! token ranges. This module recovers a *statement tree* from such a
//! range — `let`/`const` bindings, `if`/`while`/`loop`/`for`/`match`
//! control structure, everything else as opaque expression statements —
//! and lowers it to a small CFG whose joins give the forward dataflow
//! pass ([`crate::dataflow`]) its merge points: branch arms join after
//! the `if`/`match`, loop bodies feed a back edge into their header.
//!
//! Deliberate approximations (documented in DESIGN.md § Dataflow IR):
//!
//! - Expressions stay token ranges; nested control flow *inside* an
//!   expression (a `match` in a `let` initializer) is scanned linearly,
//!   not branch-joined. Linear scanning unions everything, which
//!   over-approximates in the safe direction.
//! - `break`/`continue`/`return` do not cut edges: every loop header
//!   also edges to the loop exit, so code after a loop is always
//!   considered reachable with the loop-body facts joined in.
//! - Pattern binders are recovered heuristically (lowercase-start
//!   identifiers in binding position); path/constructor segments and
//!   struct field names are excluded.

use crate::lexer::Token;

/// Index of a statement in a [`BodyIr`] arena.
pub type StmtId = usize;
/// Index of a block (statement list) in a [`BodyIr`] arena.
pub type BlockId = usize;

/// A half-open token range `[start, end)` into the **code slice** the
/// body was parsed from (comment-free tokens of one fn body).
pub type ExprRange = std::ops::Range<usize>;

/// One `match` arm: binder names introduced by the pattern, the
/// optional guard expression, and the arm body.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Names bound by the arm pattern.
    pub names: Vec<String>,
    /// `if` guard expression, when present.
    pub guard: Option<ExprRange>,
    /// Arm body (expression arms become single-statement blocks).
    pub body: BlockId,
}

/// Statement forms the dataflow pass distinguishes.
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// `let PAT(: TY)? (= INIT)? ;`
    Let {
        /// Names bound by the pattern.
        names: Vec<String>,
        /// Initializer expression, when present.
        init: Option<ExprRange>,
    },
    /// `const NAME: TY = INIT;` or `static NAME: TY = INIT;` — a
    /// *named, documented* local constant: rule R8 treats its uses as
    /// sanctioned and its initializer as the definition site.
    Const {
        /// The constant's name.
        name: String,
        /// Initializer expression.
        init: ExprRange,
    },
    /// `if COND { .. } (else ..)?` — the else branch is a block that
    /// may itself hold a single `if` statement (`else if` chains).
    If {
        /// Condition expression.
        cond: ExprRange,
        /// Then branch.
        then_block: BlockId,
        /// Else branch, when present.
        else_block: Option<BlockId>,
    },
    /// `while COND { .. }` (including `while let`).
    While {
        /// Condition expression.
        cond: ExprRange,
        /// Loop body.
        body: BlockId,
    },
    /// `loop { .. }`.
    Loop {
        /// Loop body.
        body: BlockId,
    },
    /// `for PAT in ITER { .. }`.
    For {
        /// Names bound by the loop pattern.
        names: Vec<String>,
        /// Iterated expression.
        iter: ExprRange,
        /// Loop body.
        body: BlockId,
    },
    /// `match SCRUT { arms }`.
    Match {
        /// Scrutinee expression.
        scrutinee: ExprRange,
        /// The arms, in source order.
        arms: Vec<Arm>,
    },
    /// A bare `{ .. }` (or `unsafe { .. }`) block statement.
    BlockStmt {
        /// The nested block.
        body: BlockId,
    },
    /// Any other statement — assignments, calls, tail expressions —
    /// kept as an opaque expression range.
    Expr {
        /// The statement's token range.
        range: ExprRange,
    },
}

impl StmtKind {
    /// The expression ranges the statement evaluates in its own basic
    /// block, in source order: initializer, condition, iterator, or
    /// scrutinee plus arm guards. Nested bodies belong to successor
    /// blocks and are not included; neither is a `const` initializer,
    /// which only the shape pass scans.
    pub fn expr_ranges(&self) -> Vec<ExprRange> {
        match self {
            StmtKind::Let { init, .. } => init.iter().cloned().collect(),
            StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => vec![cond.clone()],
            StmtKind::For { iter, .. } => vec![iter.clone()],
            StmtKind::Match { scrutinee, arms } => std::iter::once(scrutinee.clone())
                .chain(arms.iter().filter_map(|a| a.guard.clone()))
                .collect(),
            StmtKind::Expr { range } => vec![range.clone()],
            StmtKind::Const { .. } | StmtKind::Loop { .. } | StmtKind::BlockStmt { .. } => {
                Vec::new()
            }
        }
    }
}

/// One recovered statement.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// What kind of statement, with its sub-structure.
    pub kind: StmtKind,
    /// 1-based source line of the statement's first token.
    pub line: u32,
}

/// A list of statements (one lexical block).
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Statement ids in source order.
    pub stmts: Vec<StmtId>,
}

/// The recovered statement tree of one function body.
#[derive(Debug, Default)]
pub struct BodyIr {
    /// Statement arena.
    pub stmts: Vec<Stmt>,
    /// Block arena.
    pub blocks: Vec<Block>,
    /// The body's outermost block.
    pub root: BlockId,
}

/// Keywords that can never be pattern binders.
const NON_BINDERS: [&str; 8] = ["mut", "ref", "box", "_", "in", "if", "else", "as"];

/// Collects binder names from a pattern token slice: lowercase-start
/// identifiers in binding position. Identifiers followed by `(`, `::`,
/// `{` or `!` are path/constructor segments; ones followed by `:` are
/// struct field names; uppercase-start identifiers are types/variants.
pub fn pattern_binders(code: &[(usize, &Token)], range: ExprRange) -> Vec<String> {
    let mut names = Vec::new();
    for i in range.clone() {
        let Some(id) = code[i].1.ident() else {
            continue;
        };
        if NON_BINDERS.contains(&id) || id.starts_with(|c: char| c.is_uppercase()) {
            continue;
        }
        if let Some(&(_, next)) = code.get(i + 1) {
            if range.contains(&(i + 1))
                && (next.is_punct("(")
                    || next.is_punct("::")
                    || next.is_punct("{")
                    || next.is_punct("!")
                    || next.is_punct(":"))
            {
                continue;
            }
        }
        if !names.contains(&id.to_string()) {
            names.push(id.to_string());
        }
    }
    names
}

/// Advances past one balanced delimiter group if `i` opens one;
/// otherwise advances one token. Only `()[]{}` nest — `<`/`>` are
/// comparison operators to this layer.
pub fn skip_group(code: &[(usize, &Token)], i: usize) -> usize {
    let tok = |j: usize| code.get(j).map(|&(_, t)| t);
    let Some(t) = tok(i) else { return i + 1 };
    for (open, close) in [("(", ")"), ("[", "]"), ("{", "}")] {
        if t.is_punct(open) {
            let mut depth = 0usize;
            let mut j = i;
            while let Some(t) = tok(j) {
                if t.is_punct(open) {
                    depth += 1;
                } else if t.is_punct(close) {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                j += 1;
            }
            return j;
        }
    }
    i + 1
}

/// Splits `[start, end)` at top-level commas, dropping empty pieces.
pub fn split_args(code: &[(usize, &Token)], start: usize, end: usize) -> Vec<ExprRange> {
    let mut out = Vec::new();
    let mut seg = start;
    let mut i = start;
    while i < end {
        let Some(&(_, t)) = code.get(i) else { break };
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            i = skip_group(code, i);
            continue;
        }
        if t.is_punct(",") {
            if i > seg {
                out.push(seg..i);
            }
            seg = i + 1;
        }
        i += 1;
    }
    if end > seg {
        out.push(seg..end);
    }
    out
}

/// Parses the statement tree of one body. `code` must be the
/// comment-free token slice of the body **including** the outer braces
/// (`code[0]` is `{`).
pub fn parse_body(code: &[(usize, &Token)]) -> BodyIr {
    let mut ir = BodyIr::default();
    let mut p = BodyParser { code, ir: &mut ir };
    let root = if code.first().is_some_and(|&(_, t)| t.is_punct("{")) {
        let (b, _) = p.block(1);
        b
    } else {
        // Brace-less range (closure expression bodies): one block.
        let (b, _) = p.stmts_until(0, code.len());
        b
    };
    ir.root = root;
    ir
}

struct BodyParser<'a, 'b> {
    code: &'a [(usize, &'a Token)],
    ir: &'b mut BodyIr,
}

impl BodyParser<'_, '_> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.code.get(i).map(|&(_, t)| t)
    }

    fn ident_at(&self, i: usize) -> Option<&str> {
        self.tok(i).and_then(Token::ident)
    }

    fn line_at(&self, i: usize) -> u32 {
        self.tok(i).map_or(0, |t| t.line)
    }

    fn push_stmt(&mut self, kind: StmtKind, line: u32) -> StmtId {
        self.ir.stmts.push(Stmt { kind, line });
        self.ir.stmts.len() - 1
    }

    fn push_block(&mut self, stmts: Vec<StmtId>) -> BlockId {
        self.ir.blocks.push(Block { stmts });
        self.ir.blocks.len() - 1
    }

    /// Scans from `i` to the first top-level token satisfying `stop`,
    /// skipping balanced groups. Returns the stop index (or EOF).
    fn scan_until(&self, mut i: usize, stop: impl Fn(&Token) -> bool) -> usize {
        while let Some(t) = self.tok(i) {
            if stop(t) {
                return i;
            }
            i = skip_group(self.code, i);
        }
        i
    }

    /// Parses a `{ .. }` block starting at the `{` at `i`; returns the
    /// block and the index one past the matching `}`.
    fn block(&mut self, i: usize) -> (BlockId, usize) {
        debug_assert!(self.tok(i.wrapping_sub(1)).is_some_and(|t| t.is_punct("{")));
        let end = skip_group(self.code, i - 1); // one past `}`
        let (b, _) = self.stmts_until(i, end.saturating_sub(1));
        (b, end)
    }

    /// Parses statements in `[i, end)`; returns the block and `end`.
    fn stmts_until(&mut self, mut i: usize, end: usize) -> (BlockId, usize) {
        let mut stmts = Vec::new();
        while i < end {
            let (sid, next) = self.stmt(i, end);
            if let Some(sid) = sid {
                stmts.push(sid);
            }
            i = next.max(i + 1);
        }
        (self.push_block(stmts), end)
    }

    /// Parses one statement starting at `i` (bounded by `end`).
    fn stmt(&mut self, i: usize, end: usize) -> (Option<StmtId>, usize) {
        let line = self.line_at(i);
        match self.ident_at(i) {
            Some("let") => self.let_stmt(i, end, line),
            Some("const") | Some("static") => self.const_stmt(i, end, line),
            Some("if") => self.if_stmt(i, end, line),
            Some("while") => {
                let cond_end = self.scan_until(i + 1, |t| t.is_punct("{")).min(end);
                let (body, after) = self.block_or_empty(cond_end);
                let kind = StmtKind::While {
                    cond: i + 1..cond_end,
                    body,
                };
                (Some(self.push_stmt(kind, line)), after)
            }
            Some("loop") => {
                let open = self.scan_until(i + 1, |t| t.is_punct("{")).min(end);
                let (body, after) = self.block_or_empty(open);
                (Some(self.push_stmt(StmtKind::Loop { body }, line)), after)
            }
            Some("for") => self.for_stmt(i, end, line),
            Some("match") => self.match_stmt(i, end, line),
            Some("unsafe") if self.tok(i + 1).is_some_and(|t| t.is_punct("{")) => {
                let (body, after) = self.block_or_empty(i + 1);
                (
                    Some(self.push_stmt(StmtKind::BlockStmt { body }, line)),
                    after,
                )
            }
            _ if self.tok(i).is_some_and(|t| t.is_punct("{")) => {
                let (body, after) = self.block_or_empty(i);
                (
                    Some(self.push_stmt(StmtKind::BlockStmt { body }, line)),
                    after,
                )
            }
            _ if self.tok(i).is_some_and(|t| t.is_punct(";")) => (None, i + 1),
            _ => {
                // Opaque expression statement (assignments included):
                // up to the top-level `;` or the region end.
                let stop = self.scan_until(i, |t| t.is_punct(";")).min(end);
                let kind = StmtKind::Expr { range: i..stop };
                (Some(self.push_stmt(kind, line)), stop + 1)
            }
        }
    }

    /// Parses the `{..}` at `open` (or records an empty block if the
    /// brace is missing/malformed); returns (block, index after).
    fn block_or_empty(&mut self, open: usize) -> (BlockId, usize) {
        if self.tok(open).is_some_and(|t| t.is_punct("{")) {
            self.block(open + 1)
        } else {
            (self.push_block(Vec::new()), open + 1)
        }
    }

    fn let_stmt(&mut self, i: usize, end: usize, line: u32) -> (Option<StmtId>, usize) {
        // Pattern runs to the top-level `:` (type annotation), `=`
        // (initializer) or `;`, whichever comes first.
        let pat_end = self
            .scan_until(i + 1, |t| {
                t.is_punct(":") || t.is_punct("=") || t.is_punct(";")
            })
            .min(end);
        let names = pattern_binders(self.code, i + 1..pat_end);
        let eq = self
            .scan_until(pat_end, |t| t.is_punct("=") || t.is_punct(";"))
            .min(end);
        let stop = self.scan_until(eq, |t| t.is_punct(";")).min(end);
        let init = if self.tok(eq).is_some_and(|t| t.is_punct("=")) && eq + 1 < stop {
            Some(eq + 1..stop)
        } else {
            None
        };
        let kind = StmtKind::Let { names, init };
        (Some(self.push_stmt(kind, line)), stop + 1)
    }

    fn const_stmt(&mut self, i: usize, end: usize, line: u32) -> (Option<StmtId>, usize) {
        let name = self.ident_at(i + 1).unwrap_or_default().to_string();
        let eq = self
            .scan_until(i + 1, |t| t.is_punct("=") || t.is_punct(";"))
            .min(end);
        let stop = self.scan_until(eq, |t| t.is_punct(";")).min(end);
        let init = if self.tok(eq).is_some_and(|t| t.is_punct("=")) {
            eq + 1..stop
        } else {
            eq..eq
        };
        let kind = StmtKind::Const { name, init };
        (Some(self.push_stmt(kind, line)), stop + 1)
    }

    fn if_stmt(&mut self, i: usize, end: usize, line: u32) -> (Option<StmtId>, usize) {
        let cond_end = self.scan_until(i + 1, |t| t.is_punct("{")).min(end);
        let (then_block, mut after) = self.block_or_empty(cond_end);
        let mut else_block = None;
        if self.ident_at(after) == Some("else") && after < end {
            if self.ident_at(after + 1) == Some("if") {
                // `else if`: wrap the chained if in its own block.
                let (sid, next) = self.if_stmt(after + 1, end, self.line_at(after + 1));
                let b = self.push_block(sid.into_iter().collect());
                else_block = Some(b);
                after = next;
            } else {
                let (b, next) = self.block_or_empty(after + 1);
                else_block = Some(b);
                after = next;
            }
        }
        let kind = StmtKind::If {
            cond: i + 1..cond_end,
            then_block,
            else_block,
        };
        (Some(self.push_stmt(kind, line)), after)
    }

    fn for_stmt(&mut self, i: usize, end: usize, line: u32) -> (Option<StmtId>, usize) {
        let in_at = self.scan_until(i + 1, |t| t.ident() == Some("in")).min(end);
        let names = pattern_binders(self.code, i + 1..in_at);
        let iter_end = self.scan_until(in_at, |t| t.is_punct("{")).min(end);
        let (body, after) = self.block_or_empty(iter_end);
        let kind = StmtKind::For {
            names,
            iter: in_at + 1..iter_end,
            body,
        };
        (Some(self.push_stmt(kind, line)), after)
    }

    fn match_stmt(&mut self, i: usize, end: usize, line: u32) -> (Option<StmtId>, usize) {
        let open = self.scan_until(i + 1, |t| t.is_punct("{")).min(end);
        let scrutinee = i + 1..open;
        let match_end = skip_group(self.code, open); // one past `}`
        let mut arms = Vec::new();
        let mut j = open + 1;
        let arms_end = match_end.saturating_sub(1);
        while j < arms_end {
            // Pattern (with optional guard) up to `=>` — the lexer does
            // not fuse `=>`, so look for `=` followed by `>`. A solo
            // `=` from a `<=`/`>=` guard is skipped over.
            let pat_start = j;
            let mut arrow = j;
            loop {
                arrow = self.scan_until(arrow, |t| t.is_punct("=")).min(arms_end);
                if arrow >= arms_end || self.tok(arrow + 1).is_some_and(|t| t.is_punct(">")) {
                    break;
                }
                arrow += 1;
            }
            if arrow >= arms_end {
                break; // malformed arm; stop rather than loop
            }
            // Split an `if` guard off the pattern region.
            let guard_at = (pat_start..arrow).find(|&k| self.ident_at(k) == Some("if"));
            let (pat_end, guard) = match guard_at {
                Some(g) => (g, Some(g + 1..arrow)),
                None => (arrow, None),
            };
            let names = pattern_binders(self.code, pat_start..pat_end);
            let body_start = arrow + 2;
            let (body, next) = if self.tok(body_start).is_some_and(|t| t.is_punct("{")) {
                let (b, after) = self.block(body_start + 1);
                // A trailing comma after a block arm is optional.
                let after = if self.tok(after).is_some_and(|t| t.is_punct(",")) {
                    after + 1
                } else {
                    after
                };
                (b, after)
            } else {
                let stop = self
                    .scan_until(body_start, |t| t.is_punct(","))
                    .min(arms_end);
                let sid = self.push_stmt(
                    StmtKind::Expr {
                        range: body_start..stop,
                    },
                    self.line_at(body_start),
                );
                let b = self.push_block(vec![sid]);
                (b, stop + 1)
            };
            arms.push(Arm { names, guard, body });
            j = next.max(j + 1);
        }
        let kind = StmtKind::Match { scrutinee, arms };
        (Some(self.push_stmt(kind, line)), match_end)
    }
}

/// One CFG basic block: a run of statements with its successor edges.
#[derive(Debug, Default)]
pub struct BasicBlock {
    /// Statement ids executed in order within this block. Control
    /// statements (`if`/`while`/...) sit at the end of their block;
    /// their condition/scrutinee/iter expressions are evaluated here,
    /// their bodies live in successor blocks.
    pub stmts: Vec<StmtId>,
    /// Successor basic-block indices.
    pub succs: Vec<usize>,
}

/// Control-flow graph lowered from a [`BodyIr`]: branch arms re-join
/// after their statement, loop bodies carry a back edge to the header,
/// and every loop header also edges past the loop (break/return
/// over-approximation).
#[derive(Debug, Default)]
pub struct Cfg {
    /// Basic blocks; `blocks[entry]` starts the body.
    pub blocks: Vec<BasicBlock>,
    /// Entry block index.
    pub entry: usize,
    /// Exit block index (always empty; every path ends here).
    pub exit: usize,
}

impl Cfg {
    /// Lowers the statement tree to basic blocks.
    pub fn build(ir: &BodyIr) -> Cfg {
        let mut cfg = Cfg::default();
        let entry = cfg.new_block();
        let last = cfg.lower_block(ir, ir.root, entry);
        let exit = cfg.new_block();
        cfg.edge(last, exit);
        cfg.entry = entry;
        cfg.exit = exit;
        cfg
    }

    fn new_block(&mut self) -> usize {
        self.blocks.push(BasicBlock::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    /// Lowers one lexical block starting in basic block `cur`; returns
    /// the basic block control falls out of.
    fn lower_block(&mut self, ir: &BodyIr, block: BlockId, mut cur: usize) -> usize {
        for &sid in &ir.blocks[block].stmts {
            cur = self.lower_stmt(ir, sid, cur);
        }
        cur
    }

    /// Lowers one statement; returns the basic block that follows it.
    fn lower_stmt(&mut self, ir: &BodyIr, sid: StmtId, cur: usize) -> usize {
        // Loop statements get a *dedicated* header block: the back edge
        // must re-enter at the loop test, not re-execute whatever
        // straight-line statements happened to precede it (a shared
        // block would replay their strong updates and kill loop-carried
        // facts every fixpoint round).
        let cur = match &ir.stmts[sid].kind {
            StmtKind::While { .. } | StmtKind::Loop { .. } | StmtKind::For { .. } => {
                let header = self.new_block();
                self.edge(cur, header);
                header
            }
            _ => cur,
        };
        self.blocks[cur].stmts.push(sid);
        match &ir.stmts[sid].kind {
            StmtKind::If {
                then_block,
                else_block,
                ..
            } => {
                let join = self.new_block();
                let t_entry = self.new_block();
                self.edge(cur, t_entry);
                let t_exit = self.lower_block(ir, *then_block, t_entry);
                self.edge(t_exit, join);
                match else_block {
                    Some(e) => {
                        let e_entry = self.new_block();
                        self.edge(cur, e_entry);
                        let e_exit = self.lower_block(ir, *e, e_entry);
                        self.edge(e_exit, join);
                    }
                    None => self.edge(cur, join),
                }
                join
            }
            StmtKind::While { body, .. } | StmtKind::Loop { body } | StmtKind::For { body, .. } => {
                // `cur` (holding the header statement) is the loop
                // header: body entry and loop exit both hang off it,
                // and the body's exit loops back.
                let b_entry = self.new_block();
                let after = self.new_block();
                self.edge(cur, b_entry);
                self.edge(cur, after);
                let b_exit = self.lower_block(ir, *body, b_entry);
                self.edge(b_exit, cur);
                after
            }
            StmtKind::Match { arms, .. } => {
                let join = self.new_block();
                if arms.is_empty() {
                    self.edge(cur, join);
                }
                for arm in arms {
                    let a_entry = self.new_block();
                    self.edge(cur, a_entry);
                    let a_exit = self.lower_block(ir, arm.body, a_entry);
                    self.edge(a_exit, join);
                }
                join
            }
            StmtKind::BlockStmt { body } => self.lower_block(ir, *body, cur),
            StmtKind::Let { .. } | StmtKind::Const { .. } | StmtKind::Expr { .. } => cur,
        }
    }
}

/// Round cap of every fixpoint in the crate. Converging inputs settle
/// far below it; reaching it is reported as [`NonConvergence`].
pub const MAX_ROUNDS: usize = 64;

/// A fixpoint still changing when its round cap ran out. Facts cut off
/// mid-iteration under-approximate what can reach a sink, so a run that
/// hits this is refused instead of reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonConvergence {
    /// The engine that gave up: `dataflow`, `protocol`, `shape` or
    /// `summary`.
    pub engine: &'static str,
    /// Key of the function analyzed (for `summary`, the first member
    /// of the call-graph cycle).
    pub fn_key: String,
    /// Rounds run before giving up.
    pub rounds: usize,
}

impl NonConvergence {
    /// Names the function the stalled body belongs to.
    pub fn in_fn(self, fn_key: &str) -> NonConvergence {
        NonConvergence {
            fn_key: fn_key.to_string(),
            ..self
        }
    }
}

impl std::fmt::Display for NonConvergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the {} fixpoint for `{}` did not converge within {} rounds; refusing to \
             report findings from a truncated analysis",
            self.engine, self.fn_key, self.rounds
        )
    }
}

/// A forward analysis over a [`Cfg`], run by [`solve`].
pub trait Forward {
    /// Per-program-point facts; `Default` is the bottom element.
    type Env: Clone + Default;
    /// Engine name reported in [`NonConvergence`].
    const ENGINE: &'static str;
    /// Applies one statement's effect to `env`.
    fn transfer(&self, env: &mut Self::Env, sid: StmtId);
    /// Joins `src` into `dst`; returns whether `dst` changed.
    fn join(dst: &mut Self::Env, src: &Self::Env) -> bool;
    /// Refined environments for the edges out of a block whose
    /// statements are `stmts` and whose exit state is `exit`: the first
    /// for `succs[0]` (the then edge), the second for every other
    /// successor. `None` sends `exit` unrefined.
    fn edge_envs(
        &self,
        _exit: &Self::Env,
        _stmts: &[StmtId],
    ) -> (Option<Self::Env>, Option<Self::Env>) {
        (None, None)
    }
}

/// Runs `a` to its fixpoint over `cfg` from `entry` (the entry block's
/// in-state), then re-walks each block from its stable in-state and
/// calls `visit` on every statement *before* its transfer, so sinks see
/// the facts that reach them.
///
/// Blocks are visited in index order (allocation order, which follows
/// the source), so the first-witness-wins traces are deterministic.
///
/// # Errors
///
/// [`NonConvergence`] (with an empty `fn_key`, see
/// [`NonConvergence::in_fn`]) when the in-states still change after
/// [`MAX_ROUNDS`] rounds.
pub fn solve<A: Forward>(
    a: &A,
    cfg: &Cfg,
    entry: A::Env,
    mut visit: impl FnMut(&A::Env, StmtId),
) -> Result<(), NonConvergence> {
    let mut envs: Vec<A::Env> = vec![A::Env::default(); cfg.blocks.len()];
    envs[cfg.entry] = entry;
    let mut rounds = 0;
    loop {
        if rounds == MAX_ROUNDS {
            return Err(NonConvergence {
                engine: A::ENGINE,
                fn_key: String::new(),
                rounds,
            });
        }
        rounds += 1;
        let mut changed = false;
        for (b, block) in cfg.blocks.iter().enumerate() {
            let mut env = envs[b].clone();
            for &sid in &block.stmts {
                a.transfer(&mut env, sid);
            }
            let (then_env, fall_env) = a.edge_envs(&env, &block.stmts);
            for (si, &s) in block.succs.iter().enumerate() {
                let refined = if si == 0 { &then_env } else { &fall_env };
                changed |= A::join(&mut envs[s], refined.as_ref().unwrap_or(&env));
            }
        }
        if !changed {
            break;
        }
    }
    for (block, mut env) in cfg.blocks.iter().zip(envs) {
        for &sid in &block.stmts {
            visit(&env, sid);
            a.transfer(&mut env, sid);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, TokenKind};

    fn code_of(tokens: &[Token]) -> Vec<(usize, &Token)> {
        tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
            .collect()
    }

    fn ir_of(src: &str) -> (Vec<Token>, BodyIr) {
        let toks = lex(src);
        let ir = parse_body(&code_of(&toks));
        (toks, ir)
    }

    fn kinds(ir: &BodyIr, block: BlockId) -> Vec<&'static str> {
        ir.blocks[block]
            .stmts
            .iter()
            .map(|&s| match ir.stmts[s].kind {
                StmtKind::Let { .. } => "let",
                StmtKind::Const { .. } => "const",
                StmtKind::If { .. } => "if",
                StmtKind::While { .. } => "while",
                StmtKind::Loop { .. } => "loop",
                StmtKind::For { .. } => "for",
                StmtKind::Match { .. } => "match",
                StmtKind::BlockStmt { .. } => "block",
                StmtKind::Expr { .. } => "expr",
            })
            .collect()
    }

    #[test]
    fn statement_forms_are_recovered() {
        let (_t, ir) = ir_of(
            "{ let x = 1.0; const TOL: f64 = 1e-9; if a { b(); } else { c(); }\n\
             for v in xs { use_it(v); } while going { step(); } loop { spin(); }\n\
             match m { Some(v) => v, None => 0.0, } tail() }",
        );
        assert_eq!(
            kinds(&ir, ir.root),
            vec!["let", "const", "if", "for", "while", "loop", "match", "expr"]
        );
    }

    #[test]
    fn let_binders_and_init_ranges() {
        let (_t, ir) = ir_of("{ let (a, b): (f64, f64) = pair(); let mut acc = 0.0; let _ = x; }");
        let StmtKind::Let { names, init } = &ir.stmts[ir.blocks[ir.root].stmts[0]].kind else {
            panic!("let expected");
        };
        assert_eq!(names, &["a", "b"]);
        assert!(init.is_some());
        let StmtKind::Let { names, .. } = &ir.stmts[ir.blocks[ir.root].stmts[1]].kind else {
            panic!("let expected");
        };
        assert_eq!(names, &["acc"], "mut is not a binder");
        let StmtKind::Let { names, .. } = &ir.stmts[ir.blocks[ir.root].stmts[2]].kind else {
            panic!("let expected");
        };
        assert!(names.is_empty(), "_ binds nothing");
    }

    #[test]
    fn pattern_binders_skip_paths_and_fields() {
        let (toks, _) = ir_of("Some(x)");
        let code = code_of(&toks);
        let names = pattern_binders(&code, 0..code.len());
        assert_eq!(names, vec!["x"]);
        let (toks, _) = ir_of("Point { x: px, y }");
        let code = code_of(&toks);
        let names = pattern_binders(&code, 0..code.len());
        assert_eq!(names, vec!["px", "y"]);
    }

    #[test]
    fn for_pattern_and_iter_are_split_at_in() {
        let (toks, ir) = ir_of("{ for (yi, pi) in y.iter_mut().zip(&part) { touch(yi); } }");
        let StmtKind::For { names, iter, .. } = &ir.stmts[ir.blocks[ir.root].stmts[0]].kind else {
            panic!("for expected");
        };
        assert_eq!(names, &["yi", "pi"]);
        let code = code_of(&toks);
        let iter_idents: Vec<&str> = iter.clone().filter_map(|i| code[i].1.ident()).collect();
        assert!(iter_idents.contains(&"y"), "{iter_idents:?}");
        assert!(iter_idents.contains(&"part"), "{iter_idents:?}");
    }

    #[test]
    fn else_if_chains_nest() {
        let (_t, ir) = ir_of("{ if a { x(); } else if b { y(); } else { z(); } }");
        let StmtKind::If { else_block, .. } = &ir.stmts[ir.blocks[ir.root].stmts[0]].kind else {
            panic!("if expected");
        };
        let chained = else_block.expect("else block");
        assert_eq!(kinds(&ir, chained), vec!["if"]);
    }

    #[test]
    fn match_arms_bind_and_guard() {
        let (_t, ir) = ir_of("{ match best { Some((j, v)) if v > w => keep(j), _ => {} } }");
        let StmtKind::Match { arms, .. } = &ir.stmts[ir.blocks[ir.root].stmts[0]].kind else {
            panic!("match expected");
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].names, vec!["j", "v"]);
        assert!(arms[0].guard.is_some());
        assert!(arms[1].names.is_empty());
    }

    #[test]
    fn nested_braces_inside_expressions_do_not_split_statements() {
        let (_t, ir) = ir_of("{ let x = if c { 1.0 } else { 2.0 }; after(); }");
        assert_eq!(kinds(&ir, ir.root), vec!["let", "expr"]);
    }

    #[test]
    fn cfg_joins_branches_and_loops() {
        let (_t, ir) = ir_of("{ let a = 1.0; if c { f(); } else { g(); } h(); }");
        let cfg = Cfg::build(&ir);
        // The entry block ends with the `if`; both arms join before h().
        let entry = &cfg.blocks[cfg.entry];
        assert_eq!(entry.succs.len(), 2, "{cfg:?}");
        // A loop body must edge back to its header.
        let (_t, ir) = ir_of("{ while c { step(); } done(); }");
        let cfg = Cfg::build(&ir);
        let header = cfg
            .blocks
            .iter()
            .position(|b| b.succs.len() == 2)
            .expect("loop header");
        let body = cfg.blocks[header].succs[0];
        assert!(
            cfg.blocks[body].succs.contains(&header),
            "back edge missing: {cfg:?}"
        );
    }

    #[test]
    fn closure_bodies_parse_without_outer_braces() {
        // `parse_body` accepts a brace-less token range (closure with
        // an expression body).
        let toks = lex("acc + x * 2.0");
        let code = code_of(&toks);
        let ir = parse_body(&code);
        assert_eq!(kinds(&ir, ir.root), vec!["expr"]);
    }

    /// Statements executed on some path into each point: a union
    /// lattice, so the loop's back edge settles after one extra round.
    struct Reached;

    impl Forward for Reached {
        type Env = std::collections::BTreeSet<StmtId>;
        const ENGINE: &'static str = "reached";
        fn transfer(&self, env: &mut Self::Env, sid: StmtId) {
            env.insert(sid);
        }
        fn join(dst: &mut Self::Env, src: &Self::Env) -> bool {
            let before = dst.len();
            dst.extend(src);
            dst.len() != before
        }
    }

    /// A join that reports a change every time: no fixpoint exists.
    struct Diverging;

    impl Forward for Diverging {
        type Env = u64;
        const ENGINE: &'static str = "diverging";
        fn transfer(&self, _env: &mut u64, _sid: StmtId) {}
        fn join(dst: &mut u64, _src: &u64) -> bool {
            *dst += 1;
            true
        }
    }

    #[test]
    fn solver_joins_loop_back_edges_and_visits_before_transfer() {
        let (_t, ir) = ir_of("{ let a = 1.0; while c { step(); } done(); }");
        let cfg = Cfg::build(&ir);
        let mut seen = Vec::new();
        solve(&Reached, &cfg, Default::default(), |env, sid| {
            seen.push((sid, env.clone()));
        })
        .expect("a union lattice converges");
        // `done()` is reached after the loop body ran on some path, and
        // its own transfer is not yet applied when it is visited.
        let (done, env) = seen.last().expect("statements visited");
        assert!(!env.contains(done));
        let StmtKind::While { body, .. } = ir.stmts[ir.blocks[ir.root].stmts[1]].kind else {
            panic!("while expected");
        };
        assert!(env.contains(&ir.blocks[body].stmts[0]), "{env:?}");
        assert_eq!(seen.len(), ir.stmts.len());
    }

    #[test]
    fn solver_refuses_at_the_round_cap() {
        let (_t, ir) = ir_of("{ let a = 1.0; if c { f(); } }");
        let cfg = Cfg::build(&ir);
        let mut visited = 0;
        let err = solve(&Diverging, &cfg, 0, |_, _| visited += 1)
            .expect_err("a join that never settles must not be reported");
        assert_eq!(
            err,
            NonConvergence {
                engine: "diverging",
                fn_key: String::new(),
                rounds: MAX_ROUNDS,
            }
        );
        assert_eq!(visited, 0, "no sink sees facts from a truncated run");
        let err = err.in_fn("core::lar::fit");
        assert!(err.to_string().contains("`core::lar::fit`"), "{err}");
        assert!(err.to_string().contains("diverging"), "{err}");
    }
}
