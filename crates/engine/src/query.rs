//! Logical query description.
//!
//! Queries are the subset of SQL the paper's evaluation needs: conjunctive
//! range/equality filters over one (wide) table, `GROUP BY` with
//! aggregates, `ORDER BY` (over columns or aggregate outputs, ASC/DESC),
//! and SQL:2003 `RANK() OVER (PARTITION BY … ORDER BY …)` windows.

use mcs_columnar::Predicate;

/// A conjunctive filter term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filter {
    /// Column the predicate applies to.
    pub column: String,
    /// Predicate over the column's *codes*.
    pub predicate: Predicate,
}

/// Aggregate kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggKind {
    /// `COUNT(*)`
    Count,
    /// `COUNT(DISTINCT col)`
    CountDistinct(String),
    /// `SUM(col)` over codes (encodings are affine, so sums of codes map
    /// back to sums of values up to a per-group-count offset).
    Sum(String),
    /// `AVG(col)` over codes, rounded down.
    Avg(String),
    /// `MIN(col)`
    Min(String),
    /// `MAX(col)`
    Max(String),
}

/// A labelled aggregate (`SUM(price) AS revenue`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Agg {
    /// What to compute.
    pub kind: AggKind,
    /// Output column label (referencable from `order_by`).
    pub label: String,
}

impl Agg {
    /// Convenience constructor.
    pub fn new(kind: AggKind, label: impl Into<String>) -> Agg {
        Agg {
            kind,
            label: label.into(),
        }
    }
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderKey {
    /// Column name or aggregate label.
    pub column: String,
    /// `DESC`?
    pub descending: bool,
}

impl OrderKey {
    /// Ascending key.
    pub fn asc(column: impl Into<String>) -> OrderKey {
        OrderKey {
            column: column.into(),
            descending: false,
        }
    }

    /// Descending key.
    pub fn desc(column: impl Into<String>) -> OrderKey {
        OrderKey {
            column: column.into(),
            descending: true,
        }
    }
}

/// A logical query over one table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Query {
    /// Query identifier (for reporting).
    pub name: String,
    /// Conjunctive WHERE clause.
    pub filters: Vec<Filter>,
    /// Projected columns (used by ORDER BY-only and window queries).
    pub select: Vec<String>,
    /// GROUP BY attributes.
    pub group_by: Vec<String>,
    /// Aggregates (require `group_by`).
    pub aggregates: Vec<Agg>,
    /// ORDER BY keys: plain columns, or (for grouped queries) group-by
    /// columns and aggregate labels.
    pub order_by: Vec<OrderKey>,
    /// `PARTITION BY` attributes of a `RANK()` window.
    pub partition_by: Vec<String>,
    /// `ORDER BY` inside the window (requires `partition_by`).
    pub window_order: Vec<OrderKey>,
}

impl Query {
    /// New empty query with a name.
    pub fn named(name: impl Into<String>) -> Query {
        Query {
            name: name.into(),
            ..Query::default()
        }
    }

    /// The columns whose multi-column sort this query triggers, in sort
    /// order, with directions — the planner's input.
    ///
    /// * window queries sort `partition_by ++ window_order`;
    /// * grouped queries sort `group_by`;
    /// * otherwise `order_by`.
    pub fn sort_keys(&self) -> Vec<OrderKey> {
        if !self.partition_by.is_empty() {
            let mut keys: Vec<OrderKey> = self
                .partition_by
                .iter()
                .map(|c| OrderKey::asc(c.clone()))
                .collect();
            keys.extend(self.window_order.iter().cloned());
            keys
        } else if !self.group_by.is_empty() {
            self.group_by
                .iter()
                .map(|c| OrderKey::asc(c.clone()))
                .collect()
        } else {
            self.order_by.clone()
        }
    }

    /// Whether the sort-column order is free (GROUP BY / PARTITION BY
    /// without a window order constrain nothing; ORDER BY fixes the
    /// sequence). Determines whether the planner may permute columns.
    pub fn order_free(&self) -> bool {
        if !self.partition_by.is_empty() {
            // Partition keys could permute among themselves, but the
            // window order is positional; be conservative.
            self.window_order.is_empty()
        } else {
            !self.group_by.is_empty()
        }
    }

    /// Number of attributes in the triggered multi-column sort.
    pub fn sort_width(&self) -> usize {
        self.sort_keys().len()
    }

    /// Number of attributes in the widest multi-column sort anywhere in
    /// the pipeline. A grouped (or windowed) query with an ORDER BY over
    /// group keys / aggregate labels triggers a *second* sort on the
    /// grouped table (TPC-H Q13's situation), which `sort_width` — the
    /// planner-facing width of the primary sort — does not count.
    pub fn max_sort_width(&self) -> usize {
        let resort = if self.group_by.is_empty() && self.partition_by.is_empty() {
            0
        } else {
            self.order_by.len()
        };
        self.sort_width().max(resort)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_keys_selection() {
        let mut q = Query::named("g");
        q.group_by = vec!["a".into(), "b".into()];
        q.order_by = vec![OrderKey::desc("x")];
        assert_eq!(q.sort_keys(), vec![OrderKey::asc("a"), OrderKey::asc("b")]);
        assert!(q.order_free());

        let mut q = Query::named("w");
        q.partition_by = vec!["p".into()];
        q.window_order = vec![OrderKey::asc("o")];
        assert_eq!(q.sort_keys(), vec![OrderKey::asc("p"), OrderKey::asc("o")]);
        assert!(!q.order_free());
        assert_eq!(q.sort_width(), 2);

        let mut q = Query::named("o");
        q.order_by = vec![OrderKey::asc("a"), OrderKey::desc("b")];
        assert_eq!(q.sort_keys().len(), 2);
        assert!(!q.order_free());
    }
}
