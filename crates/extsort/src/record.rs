//! Sort records.

/// A fixed-size sort record: a 64-bit key plus the record's original
/// position, which doubles as a stability tie-breaker and lets tests verify
/// that sorting permutes rather than invents data.
///
/// The paper's 4096-byte blocks hold 40 records of ~102 bytes; only the key
/// participates in comparisons, so the payload is not materialized here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Record {
    /// Sort key.
    pub key: u64,
    /// Original input position (tie-breaker).
    pub rid: u64,
}

impl Record {
    /// Creates a record.
    #[must_use]
    pub fn new(key: u64, rid: u64) -> Self {
        Record { key, rid }
    }
}

impl Ord for Record {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key).then(self.rid.cmp(&other.rid))
    }
}

impl PartialOrd for Record {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The key is the prefix: records order by key first.
impl pm_core::KeyPrefix for Record {
    #[inline(always)]
    fn key_prefix(&self) -> u64 {
        self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_key_then_rid() {
        assert!(Record::new(1, 5) < Record::new(2, 0));
        assert!(Record::new(3, 1) < Record::new(3, 2));
        assert_eq!(Record::new(3, 1), Record::new(3, 1));
    }
}
