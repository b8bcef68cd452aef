//! Exact plan search: the model's cheapest plan, found as a shortest path
//! over bit positions.
//!
//! Under §4's model a plan's cost is a sum of per-round terms
//! ([`CostModel::t_round`]). Each term depends only on where the round
//! starts (through the group estimate of the bits before it), its width
//! and bank, and whether it is the first or the last round. The massage
//! term is a sum too: `I_FIP` counts the input cuts plus every round end
//! that is not one. So the cheapest plan over a fixed column order is a
//! shortest path from bit 0 to bit `W`, with one edge per (start, width ≤
//! 64) in the width's tight bank. The column-aligned plan is priced on its
//! own, because the model charges it no massage at all when every key is
//! ascending.
//!
//! When the column order is free (GROUP BY / PARTITION BY), a node is
//! (set of whole columns consumed, column in progress, bits into it). The
//! group estimate at a node depends on the consumed set only, because
//! [`possible_prefixes`](mcs_cost::possible_prefixes) is a product over
//! columns, so a path through these nodes prices every order at once.
//! There are about `2^(m−1)·W` of them, so above [`MAX_ORDER_COLUMNS`]
//! columns the search plans the query's own order instead.
//!
//! The search is a fixed amount of work per instance: no clock decides
//! what it returns.

use std::time::Instant;

use mcs_core::{MassagePlan, Round};
use mcs_cost::{estimate_over_prefixes, prefix_product, CostModel, GroupEstimate, SortInstance};
use mcs_telemetry as telemetry;

use crate::error::SearchError;
use crate::roga::{permute_instance, SearchResult};

/// Above this many sort columns an order-free search plans the query's own
/// column order. The order lattice has about `2^(m−1)·W` nodes. Measured
/// on the 27 suite queries at 4,096 rows (2-core x86-64 VM, warm loop):
/// `tpcds_q47`'s 5 columns search in about 0.1 ms, while `tpcds_q67`'s 8
/// took 2.4 ms over all orders against 33 µs in its own order, for a plan
/// of the same cost.
pub const MAX_ORDER_COLUMNS: usize = 5;

/// The widest round: a 64-bit bank.
const MAX_ROUND: usize = 64;

/// A node of the search: the columns consumed whole (`done`), and `bits`
/// of column `col` consumed beyond them (`col` is `NONE` at a column
/// boundary). An order-free search encodes `done` as a bit set; a
/// fixed-order one as the number of leading columns, since its consumed
/// columns are always a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    done: usize,
    col: usize,
    bits: u32,
}

const NONE: usize = usize::MAX;

/// Where a round lands: on a node (paying the massage cut if it is not a
/// column boundary), or through a column boundary with bits still to go.
enum Landing {
    Node(usize, bool),
    Through(usize, usize),
}

/// The nodes of one search. Boundary nodes come first, the boundary after
/// the columns `done` encodes having id `done`; the nodes inside column
/// `c` after them follow from `mid[done * m + c]`.
struct Lattice<'a> {
    inst: &'a SortInstance,
    free: bool,
    total: usize,
    /// `top[off[c] + b]`: distinct values of column `c`'s top `b` bits.
    top: Vec<f64>,
    off: Vec<usize>,
    nodes: Vec<Node>,
    /// Bit position of each node.
    at: Vec<usize>,
    /// Id of node (`done`, `c`, 1); (`done`, `c`, `b`) is `b − 1` after it.
    mid: Vec<usize>,
    /// The boundary after `done` and then column `c`: `then[done * m + c]`.
    then: Vec<usize>,
    /// Node ids by bit position.
    order: Vec<usize>,
}

impl<'a> Lattice<'a> {
    fn new(inst: &'a SortInstance, free: bool) -> Lattice<'a> {
        let m = inst.specs.len();
        let mut off = Vec::with_capacity(m + 1);
        let mut top = Vec::new();
        for s in &inst.stats {
            off.push(top.len());
            top.extend((0..=s.width).map(|b| s.distinct_top_bits(b)));
        }
        off.push(top.len());
        let sets = if free { 1 << m } else { m + 1 };
        let mut lat = Lattice {
            inst,
            free,
            total: inst.total_width() as usize,
            top,
            off,
            nodes: (0..sets)
                .map(|done| Node {
                    done,
                    col: NONE,
                    bits: 0,
                })
                .collect(),
            at: Vec::new(),
            mid: vec![usize::MAX; sets * m],
            then: vec![usize::MAX; sets * m],
            order: Vec::new(),
        };
        for done in 0..sets {
            for c in 0..m {
                if !lat.follows(done, c) {
                    continue;
                }
                lat.then[done * m + c] = lat.take(done, c);
                lat.mid[done * m + c] = lat.nodes.len();
                let bits = 1..lat.width(c);
                lat.nodes
                    .extend(bits.map(|bits| Node { done, col: c, bits }));
            }
        }
        lat.at = lat.nodes.iter().map(|&n| lat.position(n)).collect();
        lat.order = (0..lat.nodes.len()).collect();
        lat.order.sort_by_key(|&i| lat.at[i]);
        lat
    }

    fn width(&self, c: usize) -> u32 {
        self.inst.specs[c].width
    }

    fn columns(&self) -> usize {
        self.inst.specs.len()
    }

    /// Whether column `c` is among the consumed ones.
    fn consumed(&self, done: usize, c: usize) -> bool {
        if self.free {
            done >> c & 1 == 1
        } else {
            c < done
        }
    }

    /// `done` and then column `c`, with every zero-width column the next
    /// step could take consumed too (it adds no bits, so no position).
    fn take(&self, done: usize, c: usize) -> usize {
        let mut done = if self.free { done | 1 << c } else { done + 1 };
        while let Some(c) = self.next_columns(done).find(|&c| self.width(c) == 0) {
            done = if self.free { done | 1 << c } else { done + 1 };
        }
        done
    }

    /// Whether a round may continue from the boundary after `done` into
    /// column `c`.
    fn follows(&self, done: usize, c: usize) -> bool {
        if self.free {
            done >> c & 1 == 0
        } else {
            c == done
        }
    }

    /// The columns a round may continue into from a column boundary.
    fn next_columns(&self, done: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.columns()).filter(move |&c| self.follows(done, c))
    }

    fn start(&self) -> usize {
        let zero = (0..self.columns()).find(|&c| self.width(c) == 0);
        match zero {
            Some(c) if self.free || c == 0 => self.take(0, c),
            _ => 0,
        }
    }

    fn end(&self) -> usize {
        if self.free {
            (1 << self.columns()) - 1
        } else {
            self.columns()
        }
    }

    fn position(&self, node: Node) -> usize {
        let whole: u32 = (0..self.columns())
            .filter(|&c| self.consumed(node.done, c))
            .map(|c| self.width(c))
            .sum();
        (whole + node.bits) as usize
    }

    /// Where `bits` bits into column `c`, entered from boundary `done`,
    /// land.
    fn land(&self, done: usize, c: usize, bits: u32) -> Landing {
        let width = self.width(c);
        let at = done * self.columns() + c;
        if bits < width {
            Landing::Node(self.mid[at] + bits as usize - 1, true)
        } else if bits == width {
            Landing::Node(self.then[at], false)
        } else {
            Landing::Through(self.then[at], (bits - width) as usize)
        }
    }

    /// The group estimate entering a round that starts at `node`: `None`
    /// at bit 0, where the first round sorts every row in one invocation.
    fn estimate(&self, node: Node) -> Option<GroupEstimate> {
        if self.position(node) == 0 {
            return None;
        }
        let whole = (0..self.columns())
            .filter(|&c| self.consumed(node.done, c))
            .map(|c| self.top[self.off[c + 1] - 1]);
        let part = (node.col != NONE).then(|| self.top[self.off[node.col] + node.bits as usize]);
        let d = prefix_product(whole.chain(part));
        Some(estimate_over_prefixes(self.inst.rows, d))
    }

    /// Price a round of `width` bits entering the groups `est` expects.
    fn round(
        &self,
        model: &CostModel,
        est: Option<&GroupEstimate>,
        width: usize,
        last: bool,
    ) -> f64 {
        let scan = !last || self.inst.want_final_groups;
        model
            .t_round(self.inst.rows, est, Round::tight(width as u32), scan)
            .total()
    }

    /// Shortest path from bit 0 to bit `W` over every plan, massage
    /// included. Returns each node's predecessor on its cheapest path (the
    /// start of the round that ends there), the path's cost and the
    /// number of rounds priced.
    ///
    /// Nodes are settled in bit order. A round that runs past the end of
    /// its column waits at that column's boundary as a token with its bits
    /// still to go; tokens that meet there with equal bits to go keep the
    /// cheaper, and the boundary sends each on into every column that may
    /// follow it.
    fn cheapest(&self, model: &CostModel) -> (Vec<usize>, f64, usize) {
        let n = self.inst.rows;
        let cut = model.t_massage(n, 1);
        let mut dist = vec![f64::INFINITY; self.nodes.len()];
        let mut pred = vec![usize::MAX; self.nodes.len()];
        let mut tokens = vec![(f64::INFINITY, usize::MAX); self.end() * MAX_ROUND + MAX_ROUND];
        dist[self.start()] = model.t_massage(n, self.columns());
        let mut priced = 0;
        let mut relax =
            |to: Landing, cost: f64, from: usize, dist: &mut [f64], tokens: &mut [(f64, usize)]| {
                match to {
                    Landing::Node(j, mid) => {
                        let cost = if mid { cost + cut } else { cost };
                        if cost < dist[j] {
                            dist[j] = cost;
                            pred[j] = from;
                        }
                    }
                    Landing::Through(done, bits) => {
                        let slot = &mut tokens[done * MAX_ROUND + bits - 1];
                        if cost < slot.0 {
                            *slot = (cost, from);
                        }
                    }
                }
            };
        for &i in &self.order {
            let node = self.nodes[i];
            let p = self.at[i];
            let reach = (self.total - p).min(MAX_ROUND);
            // Rounds cost no less than nothing: a node no cheaper than the
            // best complete plan so far cannot start a cheaper one.
            let spawn = dist[i] < dist[self.end()];
            let est = if spawn { self.estimate(node) } else { None };
            // Widths of one class price alike, bar the last round's scan:
            // price each class once.
            let mut class = [None; MAX_ROUND / 8 + 1];
            for width in (1..=reach).filter(|_| spawn) {
                let last = p + width == self.total;
                let k = CostModel::width_class(width as u32) as usize;
                let price = match class[k] {
                    Some(price) if !last => {
                        debug_assert_eq!(price, self.round(model, est.as_ref(), width, last));
                        price
                    }
                    _ => {
                        priced += 1;
                        let price = self.round(model, est.as_ref(), width, last);
                        class[k] = class[k].or((!last).then_some(price));
                        price
                    }
                };
                let to = if node.col == NONE {
                    Landing::Through(node.done, width)
                } else {
                    self.land(node.done, node.col, node.bits + width as u32)
                };
                relax(to, dist[i] + price, i, &mut dist, &mut tokens);
            }
            // Rounds passing through a boundary go on whatever the
            // boundary's own distance.
            if node.col == NONE {
                for c in self.next_columns(node.done) {
                    for bits in 1..=reach {
                        let (cost, from) = tokens[node.done * MAX_ROUND + bits - 1];
                        if cost < dist[self.end()] {
                            relax(
                                self.land(node.done, c, bits as u32),
                                cost,
                                from,
                                &mut dist,
                                &mut tokens,
                            );
                        }
                    }
                }
            }
        }
        (pred, dist[self.end()], priced)
    }

    /// The cheapest column-aligned plan (one round per column, in its
    /// tight bank) under the identity discount: no massage. Returns each
    /// boundary's predecessor and the plan's cost.
    fn cheapest_aligned(&self, model: &CostModel) -> (Vec<usize>, f64) {
        let mut dist = vec![f64::INFINITY; self.nodes.len()];
        let mut pred = vec![usize::MAX; self.nodes.len()];
        dist[self.start()] = 0.0;
        for &i in &self.order {
            let node = self.nodes[i];
            if node.col != NONE || !dist[i].is_finite() {
                continue;
            }
            let est = self.estimate(node);
            for c in self.next_columns(node.done) {
                let j = self.then[node.done * self.columns() + c];
                let width = self.width(c) as usize;
                let cost = dist[i] + self.round(model, est.as_ref(), width, j == self.end());
                if cost < dist[j] {
                    dist[j] = cost;
                    pred[j] = i;
                }
            }
        }
        (pred, dist[self.end()])
    }

    /// The column order and plan of the path that `pred` leads back along
    /// from the end. Columns a round consumes whole are listed in index
    /// order: the round's cost does not depend on theirs.
    fn walk(&self, pred: &[usize]) -> (Vec<usize>, MassagePlan) {
        let mut path = vec![self.end()];
        while let Some(&i) = path.last().filter(|&&i| i != self.start()) {
            path.push(pred[i]);
        }
        path.reverse();
        let mut order: Vec<usize> = Vec::with_capacity(self.columns());
        let mut listed = vec![false; self.columns()];
        for &i in &path {
            let node = self.nodes[i];
            let whole = (0..self.columns()).filter(|&c| self.consumed(node.done, c));
            let part = (node.col != NONE).then_some(node.col);
            for c in whole.chain(part) {
                if !std::mem::replace(&mut listed[c], true) {
                    order.push(c);
                }
            }
        }
        let widths: Vec<u32> = path
            .windows(2)
            .map(|w| (self.at[w[1]] - self.at[w[0]]) as u32)
            .collect();
        (order, MassagePlan::from_widths(&widths))
    }
}

/// The plan of least estimated `T_mcs` for `inst` under `model`, by the
/// shortest path of the module docs; with `permute_columns` (GROUP BY /
/// PARTITION BY semantics) over every column order too, up to
/// [`MAX_ORDER_COLUMNS`] columns.
///
/// The returned `est_cost` is `model.t_mcs` of the returned plan on the
/// permuted instance, which equals the path's length; `plans_costed`
/// counts the rounds priced. Fails with [`SearchError::EmptySortKey`] on a
/// zero-width instance.
pub fn optimal(
    inst: &SortInstance,
    model: &CostModel,
    permute_columns: bool,
) -> Result<SearchResult, SearchError> {
    if inst.total_width() == 0 {
        return Err(SearchError::EmptySortKey);
    }
    let start = Instant::now();
    if mcs_faults::fault_point!(mcs_faults::points::PLANNER_SEARCH) {
        return Err(SearchError::Injected(mcs_faults::points::PLANNER_SEARCH));
    }
    let m = inst.specs.len();
    let lat = Lattice::new(inst, permute_columns && m > 1 && m <= MAX_ORDER_COLUMNS);
    let (pred, mut cost, plans_costed) = lat.cheapest(model);
    let mut walked = lat.walk(&pred);
    if inst.specs.iter().all(|s| !s.descending && s.width > 0) {
        let (pred, aligned) = lat.cheapest_aligned(model);
        if aligned <= cost {
            cost = aligned;
            walked = lat.walk(&pred);
        }
    }
    let (column_order, plan) = walked;
    let permuted;
    let pinst = if column_order.iter().enumerate().all(|(i, &c)| i == c) {
        inst
    } else {
        permuted = permute_instance(inst, &column_order);
        &permuted
    };
    let est_cost = model.t_mcs(pinst, &plan);
    debug_assert!(
        !est_cost.is_finite()
            || inst.specs.iter().any(|s| s.width == 0)
            || (est_cost - cost).abs() <= 1e-9 * est_cost.abs().max(1.0),
        "path {cost} drifted from T_mcs {est_cost} for {plan}"
    );
    if telemetry::is_enabled() {
        telemetry::record_span(
            "planner.optimal",
            start.elapsed().as_nanos() as u64,
            vec![
                ("rounds_priced", plans_costed.into()),
                ("est_cost_ns", est_cost.into()),
                ("plan", plan.notation().into()),
            ],
        );
    }
    Ok(SearchResult {
        plan,
        column_order,
        est_cost,
        plans_costed,
        elapsed: start.elapsed(),
        timed_out: false,
    })
}
