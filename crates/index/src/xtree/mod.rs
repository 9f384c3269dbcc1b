//! The X-tree: an R\*-tree variant for high-dimensional point data
//! (Berchtold, Keim, Kriegel — VLDB'96; paper ref. \[2\]).
//!
//! The X-tree avoids the performance collapse of R-trees in high dimensions
//! by refusing to perform *high-overlap* directory splits: when the best
//! R\* split of an overflowing directory node would produce groups whose
//! MBRs overlap more than a threshold, the node becomes a **supernode** —
//! a directory node of variable size (multiple disk blocks) that is scanned
//! linearly instead of being split into useless overlapping halves.
//!
//! Construction paths:
//! * [`XTree::insert_load`] — dynamic R\* insertion (ChooseSubtree +
//!   topological split, forced reinsertion at the leaf level per \[4\])
//!   with the supernode mechanism, faithful to \[2\].
//! * [`XTree::bulk_load`] — a VAMSplit-style bulk loader (recursive
//!   max-spread median splits) that produces overlap-free leaves; used for
//!   large experiment datasets where building by insertion would dominate
//!   runtime.
//!
//! After construction the tree is *frozen*: leaves become the data pages of
//! a [`mq_storage::PagedDatabase`] (leaf = page, numbered in DFS order so
//! that spatially close pages get adjacent physical addresses), and the
//! directory is retained in memory — matching the paper's I/O accounting,
//! which counts data-page reads.

mod build;
mod bulk;
mod frozen;

pub use frozen::{XTree, XTreeStats};

use mq_storage::PageLayout;

/// X-tree construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct XTreeConfig {
    /// Page layout shared with the storage layer (block size, record header).
    pub layout: PageLayout,
    /// Maximum tolerated overlap fraction of a directory split before the
    /// node becomes a supernode (\[2\] uses 20 %).
    pub max_overlap: f64,
    /// Minimum fill fraction per split group (R\*: 40 %).
    pub min_fill: f64,
    /// R\* forced reinsertion: on the first leaf overflow of an insert,
    /// this fraction of the entries farthest from the leaf's center are
    /// reinserted instead of splitting (R\* recommends 30 %; `0` disables).
    /// Only affects [`XTree::insert_load`]; bulk loading never overflows.
    pub reinsert_fraction: f64,
}

impl Default for XTreeConfig {
    fn default() -> Self {
        Self {
            layout: PageLayout::PAPER,
            max_overlap: 0.2,
            min_fill: 0.4,
            reinsert_fraction: 0.3,
        }
    }
}

impl XTreeConfig {
    /// Data-page (leaf) capacity for `dim`-dimensional `f32` points —
    /// identical to the storage layer's page capacity, since leaf = page.
    pub fn leaf_capacity(&self, dim: usize) -> usize {
        self.layout
            .capacity_for(dim * std::mem::size_of::<f32>())
            .max(2)
    }

    /// Directory-node capacity per block: each entry stores a `dim`-d MBR
    /// (two `f32` bounds per dimension on disk) plus a child pointer.
    pub fn dir_capacity(&self, dim: usize) -> usize {
        let entry = 2 * dim * std::mem::size_of::<f32>() + 8;
        (self.layout.block_bytes / entry).max(2)
    }
}
