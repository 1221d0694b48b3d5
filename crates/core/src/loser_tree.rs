//! Tournament (loser) tree for `k`-way merging, keyed by abbreviated
//! `u64` prefixes.

use std::hint::select_unpredictable;

/// An order-preserving `u64` abbreviation of an item's sort key, for
/// [`LoserTree`]'s fast path.
///
/// The law: `a.key_prefix() < b.key_prefix()` implies `a < b`. Equal
/// items therefore have equal prefixes; unequal items may share one, and
/// the tree then falls back to the full [`Ord`].
///
/// # Examples
///
/// ```
/// use pm_core::KeyPrefix;
///
/// assert!((-1i32).key_prefix() < 0i32.key_prefix());
/// assert_eq!(7u8.key_prefix(), 7);
/// ```
pub trait KeyPrefix: Ord {
    /// The prefix; see the trait docs for the law it must keep.
    fn key_prefix(&self) -> u64;
}

macro_rules! unsigned_prefix {
    ($($t:ty),*) => {$(
        impl KeyPrefix for $t {
            #[inline(always)]
            fn key_prefix(&self) -> u64 {
                u64::from(*self)
            }
        }
    )*};
}
unsigned_prefix!(u8, u16, u32, u64);

macro_rules! signed_prefix {
    ($($t:ty),*) => {$(
        impl KeyPrefix for $t {
            /// Sign-extended, then the sign bit flipped: `MIN` maps to 0.
            #[inline(always)]
            fn key_prefix(&self) -> u64 {
                (i64::from(*self) as u64) ^ (1 << 63)
            }
        }
    )*};
}
signed_prefix!(i8, i16, i32, i64);

/// A loser tree over `k` sources.
///
/// Internal nodes remember the *loser* of each match; only the overall
/// winner bubbles to the top, so replacing the winner and re-establishing
/// the tournament costs one comparison per level — `O(log k)` per record,
/// the textbook structure for multiway merging (Knuth vol. 3 §5.4.1).
///
/// Beside each source's head item the tree keeps its [`KeyPrefix`] in a
/// compact `u64` array, so a match is one `u64` compare and conditional
/// moves; the full [`Ord`] runs only when two prefixes are equal.
/// Exhausted sources hold `None` (prefix `u64::MAX`), which loses to
/// everything; ties are broken by source index, making the merge stable
/// when sources are fed in input order.
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
pub struct LoserTree<T: KeyPrefix> {
    /// Padded source count (power of two).
    p: usize,
    /// Real source count.
    k: usize,
    /// `nodes[node]` for internal nodes `1..p`: the source that lost
    /// the match at `node` (`nodes[0]` is unused).
    nodes: Vec<u32>,
    /// Prefix of each (padded) source's head; `u64::MAX` = exhausted.
    prefixes: Vec<u64>,
    /// Current head item of each (padded) source; `None` = exhausted.
    items: Vec<Option<T>>,
    /// Source of the overall winner.
    winner: usize,
}

/// The prefix a source's head carries in the tree.
#[inline(always)]
fn prefix_of<T: KeyPrefix>(item: Option<&T>) -> u64 {
    item.map_or(u64::MAX, KeyPrefix::key_prefix)
}

impl<T: KeyPrefix> LoserTree<T> {
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
        let prefixes: Vec<u64> = items.iter().map(|item| prefix_of(item.as_ref())).collect();
        let mut nodes = vec![0; p];
        // Bottom-up build: winners[] is scratch, nodes[1..] keep losers.
        let mut winners: Vec<u32> = vec![0; p];
        winners.extend(0..p as u32);
        for node in (1..p).rev() {
            let l = winners[2 * node];
            let r = winners[2 * node + 1];
            let (win, lose) = if Self::wins(&prefixes, &items, l, r) {
                (l, r)
            } else {
                (r, l)
            };
            winners[node] = win;
            nodes[node] = lose;
        }
        LoserTree {
            p,
            k,
            nodes,
            prefixes,
            items,
            winner: winners[1.min(2 * p - 1)] as usize,
        }
    }

    /// `true` if source `a`'s head beats source `b`'s: the lower prefix
    /// wins; equal prefixes fall back to [`Self::beats`].
    fn wins(prefixes: &[u64], items: &[Option<T>], a: u32, b: u32) -> bool {
        let (pa, pb) = (prefixes[a as usize], prefixes[b as usize]);
        if pa == pb {
            Self::beats(items, a as usize, b as usize)
        } else {
            pa < pb
        }
    }

    /// `true` if source `a`'s head beats source `b`'s (smaller item wins;
    /// `None` loses; ties go to the lower index).
    #[inline(always)]
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
        let mut prefix = prefix_of(replacement.as_ref());
        let Some(item) = std::mem::replace(&mut self.items[source], replacement) else {
            assert!(
                self.items[source].is_none(),
                "cannot feed an exhausted tournament"
            );
            return None;
        };
        self.prefixes[source] = prefix;
        // Replay matches from the winner's leaf up to the root. The path
        // depends only on `source`, so no node or prefix load waits on a
        // compare. Unequal prefixes decide a match with selects, which
        // keep the unpredictable outcome of random keys off the branch
        // unit; equal prefixes (duplicate keys, usually in long
        // predictable streaks) take the full-order branch.
        let mut candidate = source as u32;
        let mut node = (self.p + source) / 2;
        while node >= 1 {
            let other = self.nodes[node];
            let other_prefix = self.prefixes[other as usize];
            if other_prefix == prefix {
                if Self::beats(&self.items, other as usize, candidate as usize) {
                    self.nodes[node] = candidate;
                    candidate = other;
                }
            } else {
                let other_wins = other_prefix < prefix;
                self.nodes[node] = select_unpredictable(other_wins, candidate, other);
                candidate = select_unpredictable(other_wins, other, candidate);
                prefix = select_unpredictable(other_wins, other_prefix, prefix);
            }
            node /= 2;
        }
        self.winner = candidate as usize;
        Some((source, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Merges fully-materialized sorted sources through the tree.
    fn merge_all<T: KeyPrefix>(sources: Vec<Vec<T>>) -> Vec<(usize, T)> {
        let mut iters: Vec<std::vec::IntoIter<T>> =
            sources.into_iter().map(Vec::into_iter).collect();
        let heads: Vec<Option<T>> = iters.iter_mut().map(Iterator::next).collect();
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
    fn equal_items_pop_in_source_order() {
        let out = merge_all(vec![vec![7, 7], vec![3, 7], vec![7], vec![], vec![7, 9]]);
        assert_eq!(
            out,
            vec![(1, 3), (0, 7), (0, 7), (1, 7), (2, 7), (4, 7), (4, 9)]
        );
    }

    #[test]
    fn live_max_key_beats_an_exhausted_lower_source() {
        // Source 0 empties first; its `u64::MAX` prefix then ties with
        // source 1's live `u64::MAX` key, which must win.
        let mut tree = LoserTree::new(vec![Some(5u64), Some(u64::MAX)]);
        assert_eq!(tree.pop_and_replace(None), Some((0, 5)));
        assert_eq!(tree.winner(), Some((1, &u64::MAX)));
        assert_eq!(tree.pop_and_replace(None), Some((1, u64::MAX)));
        assert_eq!(tree.winner(), None);

        let out = merge_all(vec![vec![], vec![u64::MAX], vec![1, u64::MAX]]);
        assert_eq!(out, vec![(2, 1), (1, u64::MAX), (2, u64::MAX)]);
    }

    /// Items whose prefix keeps only the top bits: nearly every match
    /// ties on the prefix and is decided by the full order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Coarse(u64);

    impl KeyPrefix for Coarse {
        fn key_prefix(&self) -> u64 {
            self.0 >> 60
        }
    }

    #[test]
    fn coarse_prefixes_fall_back_to_the_full_order() {
        use pm_sim::SimRng;
        let mut rng = SimRng::seed_from_u64(9);
        let sources: Vec<Vec<Coarse>> = (0..13)
            .map(|_| {
                let len = rng.index(100);
                let mut v: Vec<Coarse> = (0..len).map(|_| Coarse(rng.next_u64() >> 2)).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let mut expected: Vec<Coarse> = sources.iter().flatten().copied().collect();
        expected.sort_unstable();
        let merged: Vec<Coarse> = merge_all(sources).into_iter().map(|(_, v)| v).collect();
        assert_eq!(merged, expected);
    }

    #[test]
    fn signed_prefixes_order_like_the_integers() {
        let values = [i64::MIN, -2, -1, 0, 1, i64::MAX];
        for w in values.windows(2) {
            assert!(w[0].key_prefix() < w[1].key_prefix());
        }
        assert!(i8::MIN.key_prefix() < (-1i8).key_prefix());
        assert!((-1i16).key_prefix() < 0i16.key_prefix());
        assert_eq!(i32::MIN.key_prefix(), i64::from(i32::MIN).key_prefix());
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
