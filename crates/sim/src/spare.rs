//! Per-thread spare storage: how a world's storage outlives the world.
//!
//! A dropped world gives its emptied storage — the simulator's tables,
//! the oracle's, each host's — to its thread, and the next world built
//! there starts on it (see ARCHITECTURE, "World storage"). Each kind of
//! storage is kept in a thread-local [`SpareList`].

/// Emptied storage of one kind, given back by dropped objects for the
/// next objects of that kind on the thread, last given first taken.
///
/// A spare comes from an object that was live and spares are taken
/// first, so spares and live objects never outnumber the most that were
/// live at once: no cap is needed. Taking one makes room to give it back,
/// so the list grows while objects are built and never while they are
/// torn down, when a world's storage is all still live.
#[derive(Debug)]
pub struct SpareList<T> {
    items: Vec<T>,
    /// Spares handed out and not given back yet.
    out: usize,
}

impl<T> Default for SpareList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SpareList<T> {
    /// An empty list (usable in a `const` thread-local initializer).
    pub const fn new() -> Self {
        SpareList {
            items: Vec::new(),
            out: 0,
        }
    }

    /// The spare given back last, or `None` when there is none; either
    /// way the list keeps room for one more to come back.
    pub fn take(&mut self) -> Option<T> {
        let spare = self.items.pop();
        self.out += 1;
        self.items.reserve(self.out);
        spare
    }

    /// Keep `spare`, emptied, for the next [`SpareList::take`].
    pub fn give(&mut self, spare: T) {
        self.out = self.out.saturating_sub(1);
        self.items.push(spare);
    }

    /// The spares on hand.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// How many spares are on hand.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no spare is on hand.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Giving back what was taken never grows the list, whatever order
    /// things come back in.
    #[test]
    fn giving_back_never_grows_the_list() {
        let mut list = SpareList::new();
        let taken: Vec<Option<Vec<u8>>> = (0..9).map(|_| list.take()).collect();
        assert!(taken.iter().all(Option::is_none));
        let cap = list.items.capacity();
        assert!(cap >= 9);
        for i in 0..9u8 {
            list.give(vec![i]);
        }
        assert_eq!((list.len(), list.items.capacity()), (9, cap));
        // Last given, first taken; a spare taken from a full list costs
        // no room.
        assert_eq!(list.take(), Some(vec![8]));
        list.give(vec![8]);
        assert_eq!((list.len(), list.items.capacity()), (9, cap));
    }
}
