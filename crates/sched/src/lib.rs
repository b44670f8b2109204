//! Tiling and scheduling — the paper's first performance dimension
//! (§III-A).
//!
//! The masked-SpGEMM is tiled **only in the row dimension** of `C`, `M` and
//! `A` ("The second operand B is never tiled", §II-C): a tile is a
//! contiguous row range, so CSR needs no pre-processing. Two tilers are
//! provided:
//!
//! * [`tile::uniform_tiles`] — homogeneous tiles: each tile has (roughly)
//!   the same number of *rows* (Fig. 6, sub-figure 1);
//! * [`tile::balanced_tiles`] — FLOP-balanced tiles: each tile has roughly
//!   the same estimated *work*, using the Eq. 2 estimator in
//!   [`work::row_work`] (Fig. 6, sub-figure 2).
//!
//! and the schedulers the persistent [`WorkerPool`] claims tiles under:
//!
//! * [`Schedule::Static`] — tiles are assigned to threads offline in
//!   contiguous blocks (OpenMP `schedule(static)` semantics);
//! * [`Schedule::Dynamic`] — threads grab the next unprocessed tile from a
//!   shared atomic counter as they finish (OpenMP `schedule(dynamic)` at
//!   its default chunk of one tile).
//!
//! The paper's GrB baseline is `balanced_tiles(p) × Static`; its
//! SuiteSparse baseline behaviour is `balanced_tiles(2p) × Dynamic`; the
//! headline recommendation is `balanced_tiles(~2048) × Dynamic` (§V-A).

pub mod cancel;
pub mod persistent;
pub mod pool;
pub mod slots;
pub mod submit;
pub mod tile;
pub mod work;

pub use cancel::CancelToken;
pub use persistent::{MultiOutcome, MultiRun, PoolError, WorkerPool};
pub use submit::{
    ticket, CancelOutcome, Entry, PushRefused, QueueTag, RefusalReason, SubmitQueue, Ticket,
    TicketLost, TicketWriter,
};
pub use pool::{catch_tile_panic, Schedule, ThreadReport, TileFailure};
pub use slots::DisjointSlots;
pub use tile::{balanced_tiles, uniform_tiles, Tile, TilingStrategy};
pub use work::{row_work, total_work};
