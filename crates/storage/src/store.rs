//! The [`PageStore`] abstraction: the read/pin/prefetch surface every
//! backend serves.
//!
//! The query engine, LRU buffer, prefetch pipeline, fault injection,
//! and observability recorders were all written against
//! [`SimulatedDisk`]'s public surface. This trait extracts exactly that
//! surface so the same engine code runs unchanged against either the
//! in-memory simulation or the durable file-backed store (`mq-store`),
//! and so the testkit can demand bit-identical accounting from both.
//!
//! Mutations (insert/delete) are deliberately **not** part of the trait:
//! they are backend-specific (`&mut`, durability, WAL) while every
//! consumer of this trait is a reader.

use crate::database::{PagedDatabase, StorageObject};
use crate::fault::{DiskError, FaultPlan, FaultStats};
use crate::page::{Page, PageId};
use crate::stats::IoStats;
use crate::SimulatedDisk;
use mq_obs::Recorder;

/// A metered page store serving one [`PagedDatabase`].
///
/// Implementations promise the accounting contract the testkit verifies:
/// every counter in [`IoStats`] moves exactly as documented on
/// [`SimulatedDisk`], failed read attempts touch only [`FaultStats`], and
/// page data is returned by reference from the in-memory database image.
/// Two backends fed the same access sequence must report bit-identical
/// [`IoStats`].
pub trait PageStore<O: StorageObject>: Send + Sync + std::fmt::Debug {
    /// The in-memory image of the stored database.
    fn database(&self) -> &PagedDatabase<O>;

    /// Fallible metered page read; see [`SimulatedDisk::try_read_page`].
    fn try_read_page(&self, id: PageId) -> Result<&Page<O>, DiskError>;

    /// Fallible metered pinned read; see
    /// [`SimulatedDisk::try_read_page_pinned`].
    fn try_read_page_pinned(&self, id: PageId) -> Result<&Page<O>, DiskError>;

    /// Fallible prefetch staging; see [`SimulatedDisk::try_prefetch`].
    fn try_prefetch(&self, id: PageId) -> Result<(), DiskError>;

    /// Releases one pin taken by a pinned read.
    fn unpin_page(&self, id: PageId);

    /// Releases the pins of all staged-but-undemanded prefetches.
    fn drop_prefetch_pins(&self);

    /// Snapshot of the I/O counters.
    fn stats(&self) -> IoStats;

    /// Resets the I/O and fault counters (keeps buffer contents).
    fn reset_stats(&self);

    /// Empties the buffer, resets counters, revives a killed device.
    fn cold_restart(&self);

    /// Mirrors I/O counters into an observability registry from now on.
    fn attach_recorder(&self, recorder: &Recorder);

    /// Installs (or removes) a deterministic fault schedule.
    fn set_fault_plan(&self, plan: Option<FaultPlan>);

    /// The active fault schedule, if any.
    fn fault_plan(&self) -> Option<FaultPlan>;

    /// Snapshot of the injected-fault counters.
    fn fault_stats(&self) -> FaultStats;

    /// Whether the device has died (`kill_after` fired).
    fn is_killed(&self) -> bool;

    /// Buffer capacity in pages.
    fn buffer_capacity(&self) -> usize;

    /// Currently resident buffer pages (diagnostic).
    fn buffer_len(&self) -> usize;

    /// Currently pinned pages (diagnostic; nonzero between steps is a leak).
    fn pinned_pages(&self) -> usize;

    /// The checksum the store holds for a page.
    fn checksum(&self, id: PageId) -> u64;

    /// Infallible [`try_read_page`](Self::try_read_page).
    ///
    /// # Panics
    /// Panics if the read attempt faults.
    fn read_page(&self, id: PageId) -> &Page<O> {
        self.try_read_page(id)
            .unwrap_or_else(|e| panic!("unhandled disk fault: {e}"))
    }

    /// Infallible [`try_read_page_pinned`](Self::try_read_page_pinned).
    ///
    /// # Panics
    /// Panics if the read attempt faults.
    fn read_page_pinned(&self, id: PageId) -> &Page<O> {
        self.try_read_page_pinned(id)
            .unwrap_or_else(|e| panic!("unhandled disk fault: {e}"))
    }

    /// Infallible [`try_prefetch`](Self::try_prefetch).
    ///
    /// # Panics
    /// Panics if the prefetch faults.
    fn prefetch(&self, id: PageId) {
        self.try_prefetch(id)
            .unwrap_or_else(|e| panic!("unhandled disk fault: {e}"))
    }
}

impl<O: StorageObject> PageStore<O> for SimulatedDisk<O> {
    fn database(&self) -> &PagedDatabase<O> {
        SimulatedDisk::database(self)
    }

    fn try_read_page(&self, id: PageId) -> Result<&Page<O>, DiskError> {
        SimulatedDisk::try_read_page(self, id)
    }

    fn try_read_page_pinned(&self, id: PageId) -> Result<&Page<O>, DiskError> {
        SimulatedDisk::try_read_page_pinned(self, id)
    }

    fn try_prefetch(&self, id: PageId) -> Result<(), DiskError> {
        SimulatedDisk::try_prefetch(self, id)
    }

    fn unpin_page(&self, id: PageId) {
        SimulatedDisk::unpin_page(self, id)
    }

    fn drop_prefetch_pins(&self) {
        SimulatedDisk::drop_prefetch_pins(self)
    }

    fn stats(&self) -> IoStats {
        SimulatedDisk::stats(self)
    }

    fn reset_stats(&self) {
        SimulatedDisk::reset_stats(self)
    }

    fn cold_restart(&self) {
        SimulatedDisk::cold_restart(self)
    }

    fn attach_recorder(&self, recorder: &Recorder) {
        SimulatedDisk::attach_recorder(self, recorder)
    }

    fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        SimulatedDisk::set_fault_plan(self, plan)
    }

    fn fault_plan(&self) -> Option<FaultPlan> {
        SimulatedDisk::fault_plan(self)
    }

    fn fault_stats(&self) -> FaultStats {
        SimulatedDisk::fault_stats(self)
    }

    fn is_killed(&self) -> bool {
        SimulatedDisk::is_killed(self)
    }

    fn buffer_capacity(&self) -> usize {
        SimulatedDisk::buffer_capacity(self)
    }

    fn buffer_len(&self) -> usize {
        SimulatedDisk::buffer_len(self)
    }

    fn pinned_pages(&self) -> usize {
        SimulatedDisk::pinned_pages(self)
    }

    fn checksum(&self, id: PageId) -> u64 {
        SimulatedDisk::checksum(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Dataset;
    use crate::page::PageLayout;
    use mq_metric::Vector;

    fn disk(n: usize) -> SimulatedDisk<Vector> {
        let ds = Dataset::new((0..n).map(|i| Vector::new(vec![i as f32, 0.0])).collect());
        let db = PagedDatabase::pack(&ds, PageLayout::new(72, 16));
        SimulatedDisk::with_buffer_pages(db, 4)
    }

    #[test]
    fn trait_object_serves_reads_like_the_concrete_disk() {
        let concrete = disk(30);
        let boxed: Box<dyn PageStore<Vector>> = Box::new(disk(30));
        for &i in &[0u32, 3, 1, 3, 9] {
            concrete.read_page(PageId(i));
            boxed.read_page(PageId(i));
        }
        assert_eq!(concrete.stats(), boxed.stats());
        assert_eq!(boxed.buffer_capacity(), 4);
        assert_eq!(boxed.checksum(PageId(0)), concrete.checksum(PageId(0)));
    }

    #[test]
    fn trait_object_faults_like_the_concrete_disk() {
        let boxed: Box<dyn PageStore<Vector>> = Box::new(disk(30));
        boxed.set_fault_plan(Some(
            FaultPlan::new(11)
                .with_transient(1.0)
                .with_max_faults_per_page(1),
        ));
        assert!(boxed.try_read_page(PageId(0)).is_err());
        assert!(boxed.try_read_page(PageId(0)).is_ok());
        assert_eq!(boxed.fault_stats().transient_errors, 1);
        assert_eq!(boxed.fault_plan().unwrap().seed, 11);
        assert!(!boxed.is_killed());
    }
}
