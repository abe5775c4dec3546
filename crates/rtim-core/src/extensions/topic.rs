//! Topic-aware SIM (Appendix A).
//!
//! Each action is annotated by a topic oracle with the set of topics it
//! relates to; a topic-aware SIM query `q` concerns a subset of topics
//! `T_q` and is answered by running IC/SIC on the sub-stream
//! `{a_t | T_t ∩ T_q ≠ ∅}`.

use super::{Annotated, StreamFilter};
use std::collections::BTreeSet;

/// Identifier of a topic.
pub type TopicId = u16;

/// A set of topics attached to an action or a query.
pub type TopicSet = BTreeSet<TopicId>;

/// Accepts actions sharing at least one topic with the query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopicFilter {
    query_topics: TopicSet,
}

impl TopicFilter {
    /// A filter for a query about the given topics.
    pub fn new(topics: impl IntoIterator<Item = TopicId>) -> Self {
        TopicFilter {
            query_topics: topics.into_iter().collect(),
        }
    }

    /// The query's topic set.
    pub fn topics(&self) -> &TopicSet {
        &self.query_topics
    }
}

impl StreamFilter<Annotated<TopicSet>> for TopicFilter {
    fn accept(&self, annotated: &Annotated<TopicSet>) -> bool {
        annotated.tag.iter().any(|t| self.query_topics.contains(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extensions::filter_slide;
    use rtim_stream::Action;

    fn annotate(id: u64, user: u32, topics: &[TopicId]) -> Annotated<TopicSet> {
        Annotated::new(Action::root(id, user), topics.iter().copied().collect())
    }

    #[test]
    fn keeps_only_overlapping_topics() {
        let filter = TopicFilter::new([1, 2]);
        let slide = vec![
            annotate(1, 10, &[1]),
            annotate(2, 11, &[3]),
            annotate(3, 12, &[2, 3]),
            annotate(4, 13, &[]),
        ];
        let kept = filter_slide(&slide, &filter);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].id.0, 1);
        assert_eq!(kept[1].id.0, 3);
        assert_eq!(filter.topics().len(), 2);
    }

    #[test]
    fn empty_query_accepts_nothing() {
        let filter = TopicFilter::new([]);
        let slide = vec![annotate(1, 10, &[1])];
        assert!(filter_slide(&slide, &filter).is_empty());
    }
}
