//! Offline stand-in for `rayon`: the registry is not reachable where the
//! benchmark builds, so `benchmark/Cargo.toml` patches `rayon` to this
//! crate. Every "parallel" iterator is the corresponding std iterator, so
//! the program under test runs on one thread and
//! [`current_num_threads`] says so. Only the calls the `ca-*` crates make
//! are covered.

/// Threads the stand-in runs on: always one.
pub fn current_num_threads() -> usize {
    1
}

pub mod prelude {
    /// `into_par_iter()` on anything iterable (ranges, vectors).
    pub trait IntoParallelIterator: IntoIterator + Sized {
        fn into_par_iter(self) -> Self::IntoIter {
            self.into_iter()
        }
    }
    impl<I: IntoIterator> IntoParallelIterator for I {}

    /// `par_iter_mut()` / `par_chunks_mut()` on mutable slices.
    pub trait ParallelSliceMut<T> {
        fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T>;
        fn par_chunks_mut(&mut self, size: usize) -> std::slice::ChunksMut<'_, T>;
    }
    impl<T> ParallelSliceMut<T> for [T] {
        fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
            self.iter_mut()
        }
        fn par_chunks_mut(&mut self, size: usize) -> std::slice::ChunksMut<'_, T> {
            self.chunks_mut(size)
        }
    }
}
