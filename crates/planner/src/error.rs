//! Typed failures of the plan search.

/// Why a plan search could not produce any result.
///
/// Note that deadline expiry is *not* an error: a timed-out search still
/// returns its incumbent (at worst `P_0`) with
/// [`SearchResult::timed_out`](crate::SearchResult::timed_out) set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchError {
    /// The sort instance has no key bits — nothing to plan for.
    EmptySortKey,
    /// A fault-injection point fired (chaos testing only; carries the
    /// fault-point name).
    Injected(&'static str),
}

impl core::fmt::Display for SearchError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SearchError::EmptySortKey => write!(f, "sort key has zero total width"),
            SearchError::Injected(name) => write!(f, "injected fault: {name}"),
        }
    }
}

impl std::error::Error for SearchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(SearchError::EmptySortKey.to_string().contains("zero"));
        assert!(SearchError::Injected("planner.search.fail")
            .to_string()
            .contains("planner.search.fail"));
    }
}
