//! An append-only persistent vector: the tuple store behind [`Relation`]
//! and the position lists of storage partitions.
//!
//! [`Relation`]: crate::Relation

use std::fmt;
use std::ops::{Index, Range};
use std::sync::Arc;

/// Radix bits per trie level.
const BITS: u32 = 6;
/// Elements per leaf and children per branch.
const WIDTH: usize = 1 << BITS;
const MASK: usize = WIDTH - 1;

/// A node of the trie. All leaves sit at the same depth and are full.
#[derive(Clone)]
enum Node<T> {
    Leaf(Vec<T>),
    Branch(Vec<Arc<Node<T>>>),
}

/// An append-only vector whose clones share structure.
///
/// A 64-ary radix trie of full, `Arc`'d leaves plus one `Arc`'d tail of at
/// most 64 elements. [`PVec::clone`] bumps two reference counts whatever
/// the length. [`PVec::push`] mutates in place while nothing else holds
/// the touched nodes (`Arc::get_mut` succeeds), and otherwise copies the
/// tail (≤ 64 elements) and, once per 64 pushes, the `log₆₄ n` branch
/// nodes on the path to the new leaf — never the whole vector. A clone
/// taken earlier keeps exactly the elements it had: nodes are only ever
/// copied, never edited, while shared.
///
/// Reads go by position ([`PVec::get`], `log₆₄ n` hops) or leaf by leaf
/// ([`PVec::slices`], [`PVec::iter`]), which is what scans use.
#[derive(Clone)]
pub struct PVec<T> {
    /// The full leaves: `len - tail.len()` elements.
    root: Option<Arc<Node<T>>>,
    /// Branch levels above the leaves (0 while the root is a leaf).
    height: u32,
    tail: Arc<Vec<T>>,
    len: usize,
}

impl<T> Default for PVec<T> {
    fn default() -> PVec<T> {
        PVec {
            root: None,
            height: 0,
            tail: Arc::new(Vec::new()),
            len: 0,
        }
    }
}

impl<T> PVec<T> {
    /// An empty vector.
    pub fn new() -> PVec<T> {
        PVec::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the vector empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Position of the tail's first element — the element count of the trie.
    fn tail_offset(&self) -> usize {
        self.len - self.tail.len()
    }

    /// The leaf (or tail) holding position `pos`, whole. Leaves start at
    /// multiples of [`WIDTH`], so `pos & MASK` indexes into the result.
    fn leaf_of(&self, pos: usize) -> &[T] {
        let (true, Some(mut node)) = (pos < self.tail_offset(), self.root.as_deref()) else {
            return &self.tail;
        };
        let mut level = self.height;
        loop {
            match node {
                Node::Leaf(items) => return items,
                Node::Branch(children) => {
                    node = &children[(pos >> (BITS * level)) & MASK];
                    level -= 1;
                }
            }
        }
    }

    /// The element at `pos`, if in bounds.
    pub fn get(&self, pos: usize) -> Option<&T> {
        if pos < self.len {
            self.leaf_of(pos).get(pos & MASK)
        } else {
            None
        }
    }

    /// The first element, if any.
    pub fn first(&self) -> Option<&T> {
        self.get(0)
    }

    /// Do `self` and `other` share the storage of position `pos` — the
    /// same leaf (or tail) allocation, not merely equal elements? What
    /// the structural-sharing tests assert on.
    pub fn shares_leaf_with(&self, other: &PVec<T>, pos: usize) -> bool {
        pos < self.len.min(other.len)
            && std::ptr::eq(self.leaf_of(pos).as_ptr(), other.leaf_of(pos).as_ptr())
    }

    /// The elements of `range` (clamped to the vector) as consecutive
    /// slices, one per leaf touched — the scan primitive: a reader copies
    /// or walks whole leaves instead of descending once per element.
    pub fn slices(&self, range: Range<usize>) -> Slices<'_, T> {
        let end = range.end.min(self.len);
        Slices {
            vec: self,
            pos: range.start.min(end),
            end,
        }
    }

    /// Iterates the elements in order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            slices: self.slices(0..self.len),
            current: [].iter(),
            remaining: self.len,
        }
    }
}

impl<T: Clone> PVec<T> {
    /// Appends `item`.
    pub fn push(&mut self, item: T) {
        if self.tail.len() == WIDTH {
            let full = std::mem::replace(&mut self.tail, Arc::new(Vec::with_capacity(WIDTH)));
            let offset = self.len - WIDTH;
            self.push_leaf(
                offset,
                Arc::try_unwrap(full).unwrap_or_else(|shared| (*shared).clone()),
            );
        }
        Arc::make_mut(&mut self.tail).push(item);
        self.len += 1;
    }

    /// Hangs a full leaf holding positions `offset..offset + WIDTH` at the
    /// trie's right edge, copying only the shared nodes on the way down.
    fn push_leaf(&mut self, offset: usize, leaf: Vec<T>) {
        let leaf = Arc::new(Node::Leaf(leaf));
        let Some(root) = &mut self.root else {
            self.root = Some(leaf);
            return;
        };
        if offset == WIDTH << (BITS * self.height) {
            // The trie is full at this height: grow a level.
            let grown = Node::Branch(vec![Arc::clone(root), spine(self.height, leaf)]);
            self.root = Some(Arc::new(grown));
            self.height += 1;
            return;
        }
        let mut node = Arc::make_mut(root);
        let mut level = self.height;
        loop {
            let Node::Branch(children) = node else {
                // lint: no-panic-ok(a leaf root holds WIDTH elements, so the growth branch above took it; reaching a leaf here means the height is corrupt)
                unreachable!("descended to a leaf above level 1");
            };
            let slot = (offset >> (BITS * level)) & MASK;
            if level == 1 || slot == children.len() {
                children.push(spine(level - 1, leaf));
                return;
            }
            node = Arc::make_mut(&mut children[slot]);
            level -= 1;
        }
    }

    /// Shortens the vector to its first `len` elements (a no-op when it is
    /// already that short). Clones taken earlier keep their elements.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        let offset = self.tail_offset();
        if len >= offset {
            Arc::make_mut(&mut self.tail).truncate(len - offset);
            self.len = len;
            return;
        }
        // The kept prefix ends inside the trie: its last, partial leaf
        // becomes the tail and the trie is cut back to the full leaves
        // before it.
        let kept = len - (len & MASK);
        self.tail = Arc::new(self.leaf_of(kept)[..len - kept].to_vec());
        self.len = len;
        if kept == 0 {
            self.root = None;
            self.height = 0;
            return;
        }
        let last = kept - 1;
        let mut node = self.root.as_mut();
        let mut level = self.height;
        while let Some(Node::Branch(children)) = node.map(Arc::make_mut) {
            let slot = (last >> (BITS * level)) & MASK;
            children.truncate(slot + 1);
            // Level-1 children are leaves, all full and all kept.
            node = (level > 1).then(|| &mut children[slot]);
            level -= 1;
        }
        // A root left with one child is that child.
        while let Some(Node::Branch(children)) = self.root.as_deref() {
            if children.len() > 1 {
                break;
            }
            self.root = Some(Arc::clone(&children[0]));
            self.height -= 1;
        }
    }
}

/// `leaf` under `levels` single-child branches.
fn spine<T>(levels: u32, leaf: Arc<Node<T>>) -> Arc<Node<T>> {
    (0..levels).fold(leaf, |node, _| Arc::new(Node::Branch(vec![node])))
}

impl<T> From<Vec<T>> for PVec<T> {
    /// Bulk build: cuts `items` into leaves and stacks the branch levels
    /// bottom-up — O(n), no per-element path copying.
    fn from(items: Vec<T>) -> PVec<T> {
        let len = items.len();
        let mut items = items.into_iter();
        let mut level: Vec<Arc<Node<T>>> = (0..len / WIDTH)
            .map(|_| Arc::new(Node::Leaf(items.by_ref().take(WIDTH).collect())))
            .collect();
        let tail: Vec<T> = items.collect();
        let mut height = 0;
        while level.len() > 1 {
            level = level
                .chunks(WIDTH)
                .map(|group| Arc::new(Node::Branch(group.to_vec())))
                .collect();
            height += 1;
        }
        PVec {
            root: level.pop(),
            height,
            tail: Arc::new(tail),
            len,
        }
    }
}

impl<T> FromIterator<T> for PVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> PVec<T> {
        PVec::from(iter.into_iter().collect::<Vec<T>>())
    }
}

impl<T> Index<usize> for PVec<T> {
    type Output = T;

    fn index(&self, pos: usize) -> &T {
        match self.get(pos) {
            Some(item) => item,
            // lint: no-panic-ok(indexing out of range panics, as it does for slices)
            None => panic!("position {pos} out of range for a PVec of {}", self.len),
        }
    }
}

impl<'a, T> IntoIterator for &'a PVec<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T: fmt::Debug> fmt::Debug for PVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The per-leaf slices of a [`PVec`] range; see [`PVec::slices`].
pub struct Slices<'a, T> {
    vec: &'a PVec<T>,
    pos: usize,
    end: usize,
}

impl<'a, T> Iterator for Slices<'a, T> {
    type Item = &'a [T];

    fn next(&mut self) -> Option<&'a [T]> {
        if self.pos >= self.end {
            return None;
        }
        let leaf = self.vec.leaf_of(self.pos);
        let from = self.pos & MASK;
        let to = leaf.len().min(from + (self.end - self.pos));
        self.pos += to - from;
        Some(&leaf[from..to])
    }
}

/// In-order iterator over a [`PVec`]; see [`PVec::iter`].
pub struct Iter<'a, T> {
    slices: Slices<'a, T>,
    current: std::slice::Iter<'a, T>,
    remaining: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(item) = self.current.next() {
                self.remaining -= 1;
                return Some(item);
            }
            self.current = self.slices.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> PVec<usize> {
        let mut v = PVec::new();
        for i in 0..n {
            v.push(i);
        }
        v
    }

    #[test]
    fn push_and_read_across_levels() {
        // 64² + 64 + 3 elements: a two-level trie plus a partial tail.
        let n = WIDTH * WIDTH + WIDTH + 3;
        let v = filled(n);
        assert_eq!(v.len(), n);
        assert!(v.iter().copied().eq(0..n));
        assert_eq!(v.iter().len(), n);
        for pos in [0, 63, 64, 4095, 4096, n - 1] {
            assert_eq!(v[pos], pos);
        }
        assert_eq!(v.get(n), None);
        assert_eq!(v.first(), Some(&0));
    }

    #[test]
    fn bulk_build_equals_pushes() {
        for n in [0, 1, 63, 64, 65, 128, 4096, 4097, 70_000] {
            let built = PVec::from((0..n).collect::<Vec<usize>>());
            assert_eq!(built.len(), n);
            assert!(built.iter().copied().eq(0..n), "n = {n}");
            // And it keeps growing correctly from the bulk-built shape.
            let mut grown = built.clone();
            for i in n..n + 200 {
                grown.push(i);
            }
            assert!(grown.iter().copied().eq(0..n + 200), "n = {n}");
            assert_eq!(built.len(), n, "the clone's pushes stay its own");
        }
    }

    #[test]
    fn slices_cover_exactly_the_range() {
        let v = filled(300);
        let got: Vec<usize> = v.slices(60..200).flatten().copied().collect();
        assert!(got.iter().copied().eq(60..200));
        assert_eq!(v.slices(250..999).flatten().count(), 50);
        assert_eq!(v.slices(400..500).count(), 0);
        assert!(v.slices(0..300).all(|s| s.len() <= WIDTH));
    }

    #[test]
    fn clones_are_frozen_and_share_untouched_leaves() {
        let mut v = filled(200);
        let before = v.clone();
        for i in 200..400 {
            v.push(i);
        }
        assert!(before.iter().copied().eq(0..200));
        assert!(v.iter().copied().eq(0..400));
        // Full leaves that predate the clone are the same allocations.
        assert!(v.shares_leaf_with(&before, 0));
        assert!(v.shares_leaf_with(&before, 191));
        // The clone's tail was copied, not edited.
        assert!(!v.shares_leaf_with(&before, 199));
    }

    #[test]
    fn truncate_into_tail_and_into_trie() {
        let n = WIDTH * WIDTH + 100;
        let v = filled(n);
        for keep in [n + 5, n, n - 3, 4096, 4095, 130, 64, 63, 1, 0] {
            let mut cut = v.clone();
            cut.truncate(keep);
            let want = keep.min(n);
            assert_eq!(cut.len(), want);
            assert!(cut.iter().copied().eq(0..want), "keep = {keep}");
            for i in 0..150 {
                cut.push(1_000_000 + i);
            }
            assert!(
                cut.iter()
                    .copied()
                    .eq((0..want).chain(1_000_000..1_000_150)),
                "regrow after keep = {keep}"
            );
        }
        assert!(v.iter().copied().eq(0..n), "the original is untouched");
    }
}
