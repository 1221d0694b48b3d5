//! Tournament (loser) tree for `k`-way merging.

/// A loser tree over `k` sources.
///
/// Internal nodes remember the *loser* of each match; only the overall
/// winner bubbles to the top, so replacing the winner and re-establishing
/// the tournament costs one comparison per level — `O(log k)` per record,
/// the textbook structure for multiway merging (Knuth vol. 3 §5.4.1).
///
/// Exhausted sources hold `None`, which loses to everything; ties are
/// broken by source index, making the merge stable when sources are fed in
/// input order.
///
/// # Examples
///
/// ```
/// use pm_core::LoserTree;
///
/// let mut tree = LoserTree::new(vec![Some(3), Some(1), Some(2)]);
/// assert_eq!(tree.winner(), Some((1, &1)));
/// // Source 1 is exhausted; the next-smallest head wins.
/// let (src, v) = tree.pop_and_replace(None).unwrap();
/// assert_eq!((src, v), (1, 1));
/// assert_eq!(tree.winner(), Some((2, &2)));
/// ```
#[derive(Debug, Clone)]
pub struct LoserTree<T: Ord> {
    /// Padded source count (power of two).
    p: usize,
    /// Real source count.
    k: usize,
    /// `losers[node]` for internal nodes `1..p`: the source index that lost
    /// the match at `node`.
    losers: Vec<usize>,
    /// Current head item of each (padded) source; `None` = exhausted.
    items: Vec<Option<T>>,
    /// Source index of the overall winner.
    winner: usize,
}

impl<T: Ord> LoserTree<T> {
    /// Builds the tournament from each source's initial head item.
    ///
    /// # Panics
    ///
    /// Panics if `heads` is empty.
    #[must_use]
    pub fn new(heads: Vec<Option<T>>) -> Self {
        let k = heads.len();
        assert!(k > 0, "loser tree needs at least one source");
        let p = k.next_power_of_two();
        let mut items = heads;
        items.resize_with(p, || None);
        let mut losers = vec![0; p.max(2)];
        // Bottom-up build: winners[] is scratch, losers[] is kept.
        let mut winners: Vec<usize> = vec![0; 2 * p];
        for (i, w) in winners.iter_mut().enumerate().skip(p) {
            *w = i - p;
        }
        for node in (1..p).rev() {
            let l = winners[2 * node];
            let r = winners[2 * node + 1];
            let (win, lose) = if Self::beats(&items, l, r) { (l, r) } else { (r, l) };
            winners[node] = win;
            losers[node] = lose;
        }
        let winner = winners[1.min(2 * p - 1)];
        LoserTree {
            p,
            k,
            losers,
            items,
            winner,
        }
    }

    /// `true` if source `a`'s head beats source `b`'s (smaller item wins;
    /// `None` loses; ties go to the lower index).
    fn beats(items: &[Option<T>], a: usize, b: usize) -> bool {
        match (&items[a], &items[b]) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(x), Some(y)) => match x.cmp(y) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => a < b,
            },
        }
    }

    /// Number of real sources.
    #[must_use]
    pub fn num_sources(&self) -> usize {
        self.k
    }

    /// The current winning source and its item; `None` when every source is
    /// exhausted.
    #[must_use]
    pub fn winner(&self) -> Option<(usize, &T)> {
        self.items[self.winner].as_ref().map(|t| (self.winner, t))
    }

    /// Removes the winning item, installs `replacement` as that source's
    /// new head (or `None` if the source is exhausted), and re-runs the
    /// tournament along one root-to-leaf path.
    ///
    /// Returns the removed `(source, item)`, or `None` if the tree was
    /// already empty (in which case `replacement` must be `None`).
    ///
    /// Always inlined: this is the per-record step of every merge, and
    /// an out-of-line call here costs a merge loop several percent.
    #[inline(always)]
    pub fn pop_and_replace(&mut self, replacement: Option<T>) -> Option<(usize, T)> {
        let source = self.winner;
        let item = match self.items[source].take() {
            Some(item) => item,
            None => {
                assert!(
                    replacement.is_none(),
                    "cannot feed an exhausted tournament"
                );
                return None;
            }
        };
        self.items[source] = replacement;
        // Replay matches from the winner's leaf up to the root.
        let mut candidate = source;
        if self.p > 1 {
            let mut node = (self.p + source) / 2;
            while node >= 1 {
                let other = self.losers[node];
                if Self::beats(&self.items, other, candidate) {
                    self.losers[node] = candidate;
                    candidate = other;
                }
                node /= 2;
            }
        }
        self.winner = candidate;
        Some((source, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Merges fully-materialized sorted sources through the tree.
    fn merge_all(sources: Vec<Vec<u32>>) -> Vec<(usize, u32)> {
        let mut iters: Vec<std::vec::IntoIter<u32>> =
            sources.into_iter().map(Vec::into_iter).collect();
        let heads: Vec<Option<u32>> = iters.iter_mut().map(Iterator::next).collect();
        let mut tree = LoserTree::new(heads);
        let mut out = Vec::new();
        while let Some((src, _)) = tree.winner() {
            let next = iters[src].next();
            let (s, v) = tree.pop_and_replace(next).unwrap();
            out.push((s, v));
        }
        out
    }

    #[test]
    fn merges_sorted_sources() {
        let out = merge_all(vec![vec![1, 4, 7], vec![2, 5, 8], vec![3, 6, 9]]);
        let values: Vec<u32> = out.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn single_source() {
        let out = merge_all(vec![vec![5, 6, 7]]);
        assert_eq!(out, vec![(0, 5), (0, 6), (0, 7)]);
    }

    #[test]
    fn non_power_of_two_sources() {
        let out = merge_all(vec![
            vec![10, 20],
            vec![1, 30],
            vec![15],
            vec![2, 3, 40],
            vec![25],
        ]);
        let values: Vec<u32> = out.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, vec![1, 2, 3, 10, 15, 20, 25, 30, 40]);
    }

    #[test]
    fn empty_sources_are_skipped() {
        let out = merge_all(vec![vec![], vec![4, 5], vec![]]);
        assert_eq!(out, vec![(1, 4), (1, 5)]);
    }

    #[test]
    fn all_sources_empty() {
        let mut tree: LoserTree<u32> = LoserTree::new(vec![None, None, None]);
        assert_eq!(tree.winner(), None);
        assert_eq!(tree.pop_and_replace(None), None);
    }

    #[test]
    fn ties_resolve_to_lower_source_index() {
        let out = merge_all(vec![vec![5], vec![5], vec![5]]);
        assert_eq!(out, vec![(0, 5), (1, 5), (2, 5)]);
    }

    #[test]
    fn interleaving_tracks_sources_correctly() {
        let out = merge_all(vec![vec![1, 3, 5], vec![2, 4, 6]]);
        assert_eq!(
            out,
            vec![(0, 1), (1, 2), (0, 3), (1, 4), (0, 5), (1, 6)]
        );
    }

    #[test]
    fn large_random_merge_matches_std_sort() {
        use pm_sim::SimRng;
        let mut rng = SimRng::seed_from_u64(42);
        let mut sources: Vec<Vec<u32>> = (0..17)
            .map(|_| {
                let len = rng.index(200);
                let mut v: Vec<u32> = (0..len).map(|_| rng.next_u64() as u32).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let mut expected: Vec<u32> = sources.iter().flatten().copied().collect();
        expected.sort_unstable();
        let merged: Vec<u32> = merge_all(std::mem::take(&mut sources))
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        assert_eq!(merged, expected);
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn zero_sources_rejected() {
        let _: LoserTree<u32> = LoserTree::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "exhausted tournament")]
    fn feeding_empty_tree_panics() {
        let mut tree: LoserTree<u32> = LoserTree::new(vec![None]);
        tree.pop_and_replace(Some(1));
    }
}
