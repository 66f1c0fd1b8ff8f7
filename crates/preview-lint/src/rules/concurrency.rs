//! Concurrency rules: atomic-ordering discipline and lock-acquisition-order
//! cycle detection.

use std::collections::{BTreeMap, BTreeSet};

use crate::context::{FileClass, FileContext};
use crate::rules::{Family, Finding, Rule, Severity, ATOMIC_ORDERING_RULE};

/// Memory-ordering variant names of `std::sync::atomic::Ordering`.
const MEMORY_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Path suffixes whose atomic-ordering sites are exempt from the
/// annotation requirement. Kept empty on purpose: every live site in the
/// workspace carries an `ordering-ok` reason, and new code should too.
const ORDERING_ALLOWLIST: &[&str] = &[];

/// `atomic-ordering-annotation`: every `Ordering::Relaxed` / `Acquire` /
/// `Release` / `AcqRel` / `SeqCst` site in library or binary code must
/// carry a `// lint: ordering-ok(<reason>)` annotation on the same line
/// or the line above, or sit in the `ORDERING_ALLOWLIST`. The reason
/// is the reviewer-facing correctness argument; orderings without one
/// rot into cargo-culted `Relaxed`.
pub struct AtomicOrderingAnnotation;

impl Rule for AtomicOrderingAnnotation {
    fn id(&self) -> &'static str {
        ATOMIC_ORDERING_RULE
    }
    fn family(&self) -> Family {
        Family::Concurrency
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "atomic memory-ordering site without an ordering-ok(<reason>) annotation"
    }

    fn check_file(&mut self, ctx: &FileContext, out: &mut Vec<Finding>) {
        if !matches!(ctx.meta.class, FileClass::Lib | FileClass::Bin) {
            return;
        }
        if ORDERING_ALLOWLIST
            .iter()
            .any(|sfx| ctx.file.path.ends_with(sfx))
        {
            return;
        }
        for i in 0..ctx.sig_len() {
            if ctx.sig_text(i) != "Ordering"
                || ctx.sig_text(i + 1) != ":"
                || ctx.sig_text(i + 2) != ":"
                || !MEMORY_ORDERINGS.contains(&ctx.sig_text(i + 3))
            {
                continue;
            }
            let Some(tok) = ctx.sig_token(i + 3) else {
                continue;
            };
            let offset = tok.start;
            if ctx.in_test(offset) || ctx.in_use_decl(offset) {
                continue;
            }
            out.push(Finding::at(
                ctx,
                self.id(),
                self.severity(),
                offset,
                format!(
                    "`Ordering::{}` needs `// lint: ordering-ok(<why this ordering is \
                     sufficient>)` on this line or the line above",
                    ctx.sig_text(i + 3)
                ),
            ));
        }
    }
}

/// Where one lock edge was observed, for diagnostics.
#[derive(Debug, Clone)]
struct EdgeSite {
    path: String,
    line: usize,
    col: usize,
    snippet: String,
    function: String,
}

/// `lock-order-cycle`: builds a lock-acquisition-order graph from
/// `<name>.lock()` / `<name>.read()` / `<name>.write()` sites (empty
/// argument lists only, which excludes `io::Read::read(&mut buf)` and
/// friends) and flags cycles. Within one function, acquiring `a` before
/// `b` adds the edge `a -> b`; a cycle across the workspace means two
/// code paths can acquire the same locks in opposite orders — a
/// potential deadlock.
///
/// Heuristics, by design: locks are identified by the last identifier of
/// the receiver path (`self.state.lock()` -> `state`), guards are
/// assumed held for the rest of the function, and same-name self-edges
/// (e.g. locking each shard `s` in a loop) are skipped.
#[derive(Default)]
pub struct LockOrderCycle {
    /// Edge -> first site where the *second* lock of the pair was taken.
    edges: BTreeMap<(String, String), EdgeSite>,
}

impl Rule for LockOrderCycle {
    fn id(&self) -> &'static str {
        "lock-order-cycle"
    }
    fn family(&self) -> Family {
        Family::Concurrency
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "two code paths acquire the same locks in opposite orders"
    }

    fn check_file(&mut self, ctx: &FileContext, _out: &mut Vec<Finding>) {
        if !matches!(ctx.meta.class, FileClass::Lib | FileClass::Bin) {
            return;
        }
        let n = ctx.sig_len();
        let mut i = 0usize;
        while i < n {
            if ctx.sig_text(i) != "fn" {
                i += 1;
                continue;
            }
            let function = ctx.sig_text(i + 1).to_string();
            // Find the body: first `{` at zero paren/bracket depth.
            let mut j = i + 2;
            let mut depth = 0usize;
            while j < n {
                match ctx.sig_text(j) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    "{" if depth == 0 => break,
                    ";" if depth == 0 => break, // trait method without body
                    _ => {}
                }
                j += 1;
            }
            if j >= n || ctx.sig_text(j) == ";" {
                i = j.max(i + 1);
                continue;
            }
            // Scan the body (to the matching `}`) for acquisition sites.
            let mut brace = 1usize;
            let mut k = j + 1;
            let mut acquired: Vec<(String, usize)> = Vec::new();
            while k < n && brace > 0 {
                match ctx.sig_text(k) {
                    "{" => brace += 1,
                    "}" => brace -= 1,
                    "." => {
                        let method = ctx.sig_text(k + 1);
                        if matches!(method, "lock" | "read" | "write")
                            && ctx.sig_text(k + 2) == "("
                            && ctx.sig_text(k + 3) == ")"
                            && k >= 1
                            && ctx.sig_kind(k - 1) == Some(crate::lexer::TokenKind::Ident)
                        {
                            let name = ctx.sig_text(k - 1).to_string();
                            let offset = ctx.sig_token(k + 1).map(|t| t.start).unwrap_or(0);
                            if !ctx.in_test(offset) {
                                acquired.push((name, offset));
                            }
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            for a in 0..acquired.len() {
                for b in (a + 1)..acquired.len() {
                    let (from, _) = &acquired[a];
                    let (to, offset) = &acquired[b];
                    if from == to {
                        continue;
                    }
                    let key = (from.clone(), to.clone());
                    self.edges.entry(key).or_insert_with(|| {
                        let (line, col) = ctx.file.line_col(*offset);
                        EdgeSite {
                            path: ctx.file.path.clone(),
                            line,
                            col,
                            snippet: ctx.file.line_text(line).trim().to_string(),
                            function: function.clone(),
                        }
                    });
                }
            }
            i = k.max(i + 1);
        }
    }

    fn finish(&mut self, out: &mut Vec<Finding>) {
        // Strongly connected components over the lock graph; any SCC with
        // more than one node contains a cycle.
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (from, to) in self.edges.keys() {
            adj.entry(from).or_default().insert(to);
            adj.entry(to).or_default();
        }
        let scc = tarjan(&adj);
        let mut component: BTreeMap<&str, usize> = BTreeMap::new();
        for (idx, members) in scc.iter().enumerate() {
            for m in members {
                component.insert(m, idx);
            }
        }
        for ((from, to), site) in &self.edges {
            let same = component.get(from.as_str()) == component.get(to.as_str());
            if !same || scc[component[from.as_str()]].len() < 2 {
                continue;
            }
            let members = scc[component[from.as_str()]].join(", ");
            out.push(Finding {
                rule: self.id(),
                severity: self.severity(),
                path: site.path.clone(),
                line: site.line,
                col: site.col,
                snippet: site.snippet.clone(),
                message: format!(
                    "lock `{to}` acquired while `{from}` may be held (fn `{}`), but the \
                     reverse order also exists; cycle among locks: {{{members}}}",
                    site.function
                ),
                file_scope: false,
                suppressed: None,
            });
        }
    }
}

/// Iterative Tarjan SCC over a borrowed adjacency map. Returns components
/// as sorted name lists, in a deterministic order.
fn tarjan<'a>(adj: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> Vec<Vec<&'a str>> {
    struct State<'a> {
        index: BTreeMap<&'a str, usize>,
        lowlink: BTreeMap<&'a str, usize>,
        on_stack: BTreeSet<&'a str>,
        stack: Vec<&'a str>,
        next: usize,
        out: Vec<Vec<&'a str>>,
    }
    let mut st = State {
        index: BTreeMap::new(),
        lowlink: BTreeMap::new(),
        on_stack: BTreeSet::new(),
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    // Explicit work stack: (node, neighbour iterator position).
    for &root in adj.keys() {
        if st.index.contains_key(root) {
            continue;
        }
        let mut work: Vec<(&str, Vec<&str>, usize)> = Vec::new();
        let neighbours: Vec<&str> = adj[root].iter().copied().collect();
        st.index.insert(root, st.next);
        st.lowlink.insert(root, st.next);
        st.next += 1;
        st.stack.push(root);
        st.on_stack.insert(root);
        work.push((root, neighbours, 0));
        while let Some((node, neigh, mut pos)) = work.pop() {
            let mut descended = false;
            while pos < neigh.len() {
                let w = neigh[pos];
                pos += 1;
                if !st.index.contains_key(w) {
                    st.index.insert(w, st.next);
                    st.lowlink.insert(w, st.next);
                    st.next += 1;
                    st.stack.push(w);
                    st.on_stack.insert(w);
                    let wn: Vec<&str> = adj
                        .get(w)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default();
                    work.push((node, neigh, pos));
                    work.push((w, wn, 0));
                    descended = true;
                    break;
                } else if st.on_stack.contains(w) {
                    let low = st.lowlink[node].min(st.index[w]);
                    st.lowlink.insert(node, low);
                }
            }
            if descended {
                continue;
            }
            if st.lowlink[node] == st.index[node] {
                let mut comp = Vec::new();
                while let Some(w) = st.stack.pop() {
                    st.on_stack.remove(w);
                    comp.push(w);
                    if w == node {
                        break;
                    }
                }
                comp.sort_unstable();
                st.out.push(comp);
            }
            if let Some(&(parent, _, _)) = work.last() {
                let low = st.lowlink[parent].min(st.lowlink[node]);
                st.lowlink.insert(parent, low);
            }
        }
    }
    st.out
}
