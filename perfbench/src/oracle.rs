//! The correctness check every run makes, outside its timed region:
//! `sim::serializability_violations` on the run's history. When it fails,
//! the jobs it blames count as failed: on a conflict cycle, every job on a
//! non-trivial strongly connected component of the serialization graph; on
//! a replay divergence (acyclic graph, but commit order is not a serial
//! order), every job whose reads differ from the serial replay's.

use rtdb::prelude::*;
use rtdb::sim::{serializability_violations, Violation};
use rtdb::storage::{replay_serial, ReplayViolation};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// The oracle's answer for one history.
pub struct Verdict {
    /// Jobs the violations blame.
    pub blamed: HashSet<InstanceId>,
    /// Violations that name no job (a final-state mismatch alone).
    pub unblamed: usize,
    /// What `serializability_violations` reported (empty: serializable).
    pub violations: Vec<Violation>,
    /// Wall time of the check.
    pub elapsed: Duration,
}

impl Verdict {
    /// True when every violation is blamed on jobs, so counting those jobs
    /// as failed accounts for it. A violation that names no job cannot be
    /// counted that way and makes the run incorrect instead.
    pub fn attributed(&self) -> bool {
        self.unblamed == 0 && (self.violations.is_empty() || !self.blamed.is_empty())
    }

    /// One-line run-level verdict for standard error.
    pub fn summary(&self) -> String {
        match self.violations.first() {
            None => "serializable".to_string(),
            Some(Violation::ConflictCycle(cycle)) => format!(
                "NOT serializable: conflict cycle of {} instances; {} jobs on cycles",
                cycle.len(),
                self.blamed.len()
            ),
            Some(v) => format!(
                "NOT serializable: {v:?}; {} jobs read non-serial values, {} violations name no job",
                self.blamed.len(),
                self.unblamed
            ),
        }
    }
}

/// Check one history. Commit order is the serialization order PCP-DA
/// claims (Theorem 3), so the replay runs in commit order.
pub fn check(set: &TransactionSet, history: &History, db: &Database) -> Verdict {
    let t = Instant::now();
    let violations = serializability_violations(set, history, db, true);
    let (blamed, unblamed) = match violations.first() {
        None => (HashSet::new(), 0),
        Some(Violation::ConflictCycle(_)) => {
            (cycle_members(&SerializationGraph::build(history)), 0)
        }
        Some(_) => {
            let replay = replay_serial(set, history, db);
            let mut blamed = HashSet::new();
            let mut unblamed = 0;
            for v in &replay.violations {
                match v {
                    ReplayViolation::ReadMismatch { instance, .. }
                    | ReplayViolation::ReadCountMismatch { instance, .. } => {
                        blamed.insert(*instance);
                    }
                    ReplayViolation::FinalStateMismatch { .. } => unblamed += 1,
                }
            }
            (blamed, unblamed)
        }
    };
    Verdict {
        blamed,
        unblamed,
        violations,
        elapsed: t.elapsed(),
    }
}

/// Members of every strongly connected component with more than one node
/// (iterative Tarjan; histories hold hundreds of thousands of jobs).
fn cycle_members(graph: &SerializationGraph) -> HashSet<InstanceId> {
    let nodes: Vec<InstanceId> = graph.nodes().iter().copied().collect();
    let index: HashMap<InstanceId, usize> =
        nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut adj = vec![Vec::new(); nodes.len()];
    for e in graph.edges() {
        adj[index[&e.from]].push(index[&e.to]);
    }
    const UNSEEN: usize = usize::MAX;
    let n = nodes.len();
    let (mut order, mut low) = (vec![UNSEEN; n], vec![0usize; n]);
    let mut on_stack = vec![false; n];
    let (mut stack, mut call) = (Vec::new(), Vec::<(usize, usize)>::new());
    let mut next = 0;
    let mut out = HashSet::new();
    for root in 0..n {
        if order[root] != UNSEEN {
            continue;
        }
        order[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        on_stack[root] = true;
        call.push((root, 0));
        while let Some(&(v, pos)) = call.last() {
            if let Some(&w) = adj[v].get(pos) {
                call.last_mut().expect("non-empty").1 += 1;
                if order[w] == UNSEEN {
                    order[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(order[w]);
                }
                continue;
            }
            call.pop();
            if let Some(&(u, _)) = call.last() {
                low[u] = low[u].min(low[v]);
            }
            if low[v] == order[v] {
                let mut members = Vec::new();
                loop {
                    let w = stack.pop().expect("v is on the stack");
                    on_stack[w] = false;
                    members.push(nodes[w]);
                    if w == v {
                        break;
                    }
                }
                if members.len() > 1 {
                    out.extend(members);
                }
            }
        }
    }
    out
}
