//! Per-thread spare storage: how a world's storage outlives the world.
//!
//! A dropped owner — a world, a host, a stack, a controller — gives its
//! emptied storage to its thread, and the next owner of that kind built
//! there starts on it (see ARCHITECTURE, "Recycled storage"). The thread
//! keeps one store with one list of spares per storage type and key;
//! the key tells apart storage of one type that different owners grow to
//! different sizes (a connection's client and server roles).
//!
//! An owner that holds its storage for its whole life holds a [`Spare`]:
//! built from the store, given back when it drops. Storage taken apart
//! into live fields and given back before its owner drops (a connection's
//! rings, at close) goes through [`take`] and [`give`].

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::fmt;
use std::hash::Hash;
use std::ops::{Deref, DerefMut};

use crate::hash::FxHashMap;

/// A kind of storage the thread recycles. `Default` is the storage an
/// owner starts on when the store has no spare. Capacity is never
/// observable, so a spare that arrives with capacity moves no trajectory.
pub trait Recycle: Default + 'static {
    /// Drop everything held, keeping the capacity.
    fn reset(&mut self);

    /// True when nothing is held.
    fn is_empty(&self) -> bool;
}

impl<T: 'static> Recycle for Vec<T> {
    fn reset(&mut self) {
        self.clear();
    }
    fn is_empty(&self) -> bool {
        self.is_empty()
    }
}

impl<T: Recycle> Recycle for Box<T> {
    fn reset(&mut self) {
        T::reset(self);
    }
    fn is_empty(&self) -> bool {
        T::is_empty(self)
    }
}

impl<K: Eq + Hash + 'static, V: 'static> Recycle for FxHashMap<K, V> {
    fn reset(&mut self) {
        self.clear();
    }
    fn is_empty(&self) -> bool {
        self.is_empty()
    }
}

/// The spares of one kind under one key, last given first taken.
///
/// A spare comes from an owner that was live and spares are taken first,
/// so spares and live owners never outnumber the most that were live at
/// once: no cap is needed. Taking one makes room to give it back, so the
/// list grows while owners are built and never while they are torn down,
/// when a world's storage is all still live.
#[derive(Default)]
struct Shelf<T> {
    spares: Vec<T>,
    /// Spares handed out and not given back yet.
    out: usize,
}

/// A shelf of any kind, as the store keeps it.
trait AnyShelf: Any {
    /// Give the spare in `slot`, an `Option` of the shelf's kind, to the
    /// shelf; or, when `slot` is empty, take the spare given back last
    /// into it, making room for it to come back.
    fn trade(&mut self, slot: &mut dyn Any);

    fn stock(&self, key: u8) -> Stock;
}

impl<T: Recycle> AnyShelf for Shelf<T> {
    fn trade(&mut self, slot: &mut dyn Any) {
        let Some(slot) = slot.downcast_mut::<Option<T>>() else {
            return;
        };
        match slot.take() {
            Some(spare) => {
                self.out = self.out.saturating_sub(1);
                self.spares.push(spare);
            }
            None => {
                *slot = self.spares.pop();
                self.out += 1;
                self.spares.reserve(self.out);
            }
        }
    }

    fn stock(&self, key: u8) -> Stock {
        Stock {
            kind: std::any::type_name::<T>(),
            key,
            on_hand: self.spares.len(),
            out: self.out,
            holding: self.spares.iter().filter(|s| !s.is_empty()).count(),
        }
    }
}

/// A shelf, by kind and key.
struct Entry {
    kind: (TypeId, u8),
    shelf: Box<dyn AnyShelf>,
}

thread_local! {
    /// The thread's store: one shelf per kind and key, in first-use order.
    static STORE: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
}

/// Trade `slot` with the thread's shelf of `kind` (type and key), made by
/// `new` on first use; nothing happens once the thread is exiting and its
/// store is gone. Not generic, so a kind adds only its own trades.
fn trade(kind: (TypeId, u8), new: fn() -> Box<dyn AnyShelf>, slot: &mut dyn Any) {
    let _ = STORE.try_with(|store| {
        let mut store = store.borrow_mut();
        let at = store.iter().position(|e| e.kind == kind);
        let at = at.unwrap_or_else(|| {
            store.push(Entry { kind, shelf: new() });
            store.len() - 1
        });
        store[at].shelf.trade(slot);
    });
}

fn new_shelf<T: Recycle>() -> Box<dyn AnyShelf> {
    Box::new(Shelf::<T>::default())
}

/// The spare of kind `T` given back last under `key`, or empty storage
/// when there is none; either way the store keeps room for it to come
/// back.
pub fn take<T: Recycle>(key: u8) -> T {
    let mut slot = None::<T>;
    trade((TypeId::of::<T>(), key), new_shelf::<T>, &mut slot);
    slot.unwrap_or_default()
}

/// Empty `spare` and keep it under `key` for the next [`take`] of its
/// kind. A spare given back while its thread exits is simply freed.
pub fn give<T: Recycle>(key: u8, mut spare: T) {
    spare.reset();
    trade((TypeId::of::<T>(), key), new_shelf::<T>, &mut Some(spare));
}

/// Storage an owner holds for its whole life: taken from the thread's
/// store when built, given back emptied when dropped. Owners reach the
/// storage through `Deref`.
///
/// Storage that many owners hold at once is boxed (`Spare<Box<T>>`), so
/// that a spare costs its list one pointer. The storage is `None` only
/// once `drop` has given it back, which leaves no allocation behind;
/// nothing reads it after that.
pub struct Spare<T: Recycle>(Option<T>);

impl<T: Recycle> Default for Spare<T> {
    fn default() -> Self {
        Spare(Some(take(0)))
    }
}

impl<T: Recycle> Drop for Spare<T> {
    fn drop(&mut self) {
        if let Some(storage) = self.0.take() {
            give(0, storage);
        }
    }
}

impl<T: Recycle> Deref for Spare<T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.0 {
            Some(storage) => storage,
            None => given_back(),
        }
    }
}

impl<T: Recycle> DerefMut for Spare<T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.0 {
            Some(storage) => storage,
            None => given_back(),
        }
    }
}

/// What a spare reads as once `drop` has given its storage back: empty
/// storage of its kind. Nothing reads a spare then, so this never runs;
/// it is out of line to keep every read of a spare one test and a jump.
#[cold]
#[inline(never)]
fn given_back<T: Recycle>() -> &'static mut T {
    Box::leak(Box::default())
}

impl<T: Recycle + fmt::Debug> fmt::Debug for Spare<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<'a, T: Recycle> IntoIterator for &'a Spare<T>
where
    &'a T: IntoIterator,
{
    type Item = <&'a T as IntoIterator>::Item;
    type IntoIter = <&'a T as IntoIterator>::IntoIter;
    fn into_iter(self) -> Self::IntoIter {
        (**self).into_iter()
    }
}

/// What the thread's store holds of one kind under one key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stock {
    /// The storage type.
    pub kind: &'static str,
    /// The key it is kept under.
    pub key: u8,
    /// Spares on hand.
    pub on_hand: usize,
    /// Spares taken and not given back yet.
    pub out: usize,
    /// Spares on hand that still hold something: a reset that forgot a
    /// field.
    pub holding: usize,
}

/// The thread's store, one entry per kind and key in first-use order.
pub fn stock() -> Vec<Stock> {
    STORE.with_borrow(|store| store.iter().map(|e| e.shelf.stock(e.kind.1)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Giving back what was taken never grows the list, whatever order
    /// things come back in.
    #[test]
    fn giving_back_never_grows_the_list() {
        let capacity = || {
            STORE.with_borrow(|store| {
                let entry = store
                    .iter()
                    .find(|e| e.kind == (TypeId::of::<Vec<u8>>(), 7))?;
                let shelf = (&*entry.shelf as &dyn Any).downcast_ref::<Shelf<Vec<u8>>>()?;
                Some((shelf.spares.len(), shelf.spares.capacity()))
            })
        };
        let taken: Vec<Vec<u8>> = (0..9).map(|_| take(7)).collect();
        assert!(taken.iter().all(|v| v.capacity() == 0));
        let Some((0, cap)) = capacity().filter(|&(_, cap)| cap >= 9) else {
            panic!("taking nine spares makes room for nine");
        };
        for i in 0..9u8 {
            give(7, Vec::<u8>::with_capacity(usize::from(i) + 1));
        }
        assert_eq!(capacity(), Some((9, cap)));
        // Last given, first taken, and emptied; a spare taken from a full
        // list costs no room.
        let last: Vec<u8> = take(7);
        assert_eq!((last.len(), last.capacity()), (0, 9));
        give(7, last);
        assert_eq!(capacity(), Some((9, cap)));
        let mine = stock().into_iter().find(|s| s.key == 7);
        assert_eq!(mine.map(|s| (s.on_hand, s.out, s.holding)), Some((9, 0, 0)));
    }

    /// A [`Spare`] gives its storage back, emptied, when it drops.
    #[test]
    fn a_dropped_spare_gives_its_storage_back() {
        let mut first: Spare<Vec<u16>> = Spare::default();
        first.extend([1, 2, 3]);
        drop(first);
        let next: Spare<Vec<u16>> = Spare::default();
        assert!(next.is_empty() && next.capacity() >= 3);
    }
}
