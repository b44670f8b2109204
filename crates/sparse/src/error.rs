//! Error type shared by the sparse substrate.

use std::fmt;

/// Errors raised while constructing or manipulating sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// A matrix dimension exceeds [`crate::MAX_DIM`].
    DimensionTooLarge { dim: usize },
    /// The shapes of two operands are incompatible for the requested
    /// operation (e.g. `A: m×k` multiplied by `B: k'×n` with `k != k'`).
    ShapeMismatch {
        expected: (usize, usize),
        found: (usize, usize),
        context: &'static str,
    },
    /// Two operands passed to an element-wise operation have different
    /// dimensions (e.g. `ewise_mult` of an m×n with an m'×n').
    DimensionMismatch {
        expected: (usize, usize),
        found: (usize, usize),
        context: &'static str,
    },
    /// A column index is out of bounds for the matrix's column count.
    ColumnOutOfBounds { row: usize, col: usize, ncols: usize },
    /// A row index is out of bounds for the matrix's row count.
    RowOutOfBounds { row: usize, nrows: usize },
    /// A CSR row-pointer array is malformed (wrong length, not
    /// monotonically non-decreasing, or final entry != nnz).
    MalformedPointers { detail: String },
    /// Column indices within a row are not strictly increasing. Several
    /// kernels (co-iteration's binary search in particular — Fig. 7 of the
    /// paper) require sorted rows.
    UnsortedRow { row: usize },
    /// Duplicate column index within a row.
    DuplicateEntry { row: usize, col: usize },
    /// `col_idx` and `values` have different lengths.
    LengthMismatch { indices: usize, values: usize },
    /// Matrix Market parse failure.
    Parse { line: usize, detail: String },
    /// Underlying I/O failure (stored as a string so the error stays `Clone`).
    Io(String),
    /// A tile failed during parallel execution *and* its degraded serial
    /// retry also failed. `rows` is the half-open output row range
    /// `[lo, hi)` the tile covered; `detail` carries both panic payloads.
    TileFailed {
        tile: usize,
        rows: (usize, usize),
        detail: String,
    },
    /// An internal invariant broke (e.g. a tile fragment produced twice, or
    /// the stitch phase unwound). Library code surfaces this instead of
    /// panicking; it always indicates a bug, never bad user input.
    Internal { detail: String },
    /// An argument value is outside the accepted range for the entry point
    /// (e.g. an empty tuner sweep grid, a plan graph with no product
    /// node). Unlike
    /// [`Internal`](Self::Internal) this indicates caller input, not a bug.
    InvalidConfig { detail: String },
    /// A reusable execution plan was run against operands whose sparsity
    /// structure no longer matches the structure the plan was built from.
    /// `operand` names what drifted (`"A"`, `"B"`, `"mask"` or `"shape"`);
    /// rebuild the plan (or use a `Session`, which rebuilds automatically).
    PlanStructureMismatch { operand: &'static str },
    /// The executor's persistent worker pool was poisoned by a panic that
    /// escaped tile isolation (scheduler-infrastructure failure, never an
    /// ordinary kernel panic — those are retried per tile). The executor
    /// refuses further runs; build a fresh one.
    ExecutorPoisoned { detail: String },
    /// A service's bounded admission queue was at capacity when the job
    /// was submitted. This is backpressure, not failure: nothing was
    /// enqueued and nothing blocks — retry later, shed the request, or
    /// raise the queue capacity.
    QueueFull {
        /// The queue's configured capacity at rejection time.
        capacity: usize,
    },
    /// The job was cancelled by its ticket (before dispatch, or
    /// cooperatively mid-run at a tile boundary), or its service shut
    /// down while it was still queued. Any partial computation was
    /// discarded; no result escaped.
    Cancelled,
    /// The job's enforced deadline passed before it finished: it was
    /// either shed from the admission queue before dispatch, or its
    /// in-flight run was abandoned at the next tile boundary. Distinct
    /// from the *ordering hint* a deadline also provides — this variant
    /// means the deadline was missed, not merely used for scheduling.
    DeadlineExceeded,
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::DimensionTooLarge { dim } => {
                write!(f, "dimension {dim} exceeds the maximum {}", crate::MAX_DIM)
            }
            SparseError::ShapeMismatch { expected, found, context } => write!(
                f,
                "shape mismatch in {context}: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            SparseError::DimensionMismatch { expected, found, context } => write!(
                f,
                "dimension mismatch in {context}: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            SparseError::ColumnOutOfBounds { row, col, ncols } => {
                write!(f, "column {col} out of bounds (ncols = {ncols}) in row {row}")
            }
            SparseError::RowOutOfBounds { row, nrows } => {
                write!(f, "row {row} out of bounds (nrows = {nrows})")
            }
            SparseError::MalformedPointers { detail } => {
                write!(f, "malformed row/column pointers: {detail}")
            }
            SparseError::UnsortedRow { row } => {
                write!(f, "row {row} has unsorted or non-strictly-increasing column indices")
            }
            SparseError::DuplicateEntry { row, col } => {
                write!(f, "duplicate entry at ({row}, {col})")
            }
            SparseError::LengthMismatch { indices, values } => write!(
                f,
                "col_idx has {indices} entries but values has {values}"
            ),
            SparseError::Parse { line, detail } => {
                write!(f, "parse error at line {line}: {detail}")
            }
            SparseError::Io(detail) => write!(f, "I/O error: {detail}"),
            SparseError::TileFailed { tile, rows, detail } => write!(
                f,
                "tile {tile} (rows {}..{}) failed and its degraded retry failed: {detail}",
                rows.0, rows.1
            ),
            SparseError::Internal { detail } => {
                write!(f, "internal invariant violated: {detail}")
            }
            SparseError::InvalidConfig { detail } => {
                write!(f, "invalid configuration: {detail}")
            }
            SparseError::PlanStructureMismatch { operand } => write!(
                f,
                "plan structure mismatch: the sparsity structure of {operand} differs \
                 from the structure the plan was built from; rebuild the plan"
            ),
            SparseError::ExecutorPoisoned { detail } => write!(
                f,
                "executor poisoned by a panic outside tile isolation: {detail}; \
                 create a new executor"
            ),
            SparseError::QueueFull { capacity } => write!(
                f,
                "admission queue full ({capacity} jobs queued); nothing was \
                 enqueued — retry later or raise the queue capacity"
            ),
            SparseError::Cancelled => {
                write!(f, "job cancelled before dispatch; no computation was performed")
            }
            SparseError::DeadlineExceeded => write!(
                f,
                "deadline exceeded: the job was shed before dispatch or its \
                 in-flight run was abandoned at a tile boundary"
            ),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SparseError::ShapeMismatch {
            expected: (3, 4),
            found: (5, 6),
            context: "spgemm",
        };
        let s = e.to_string();
        assert!(s.contains("3x4"));
        assert!(s.contains("5x6"));
        assert!(s.contains("spgemm"));
    }

    #[test]
    fn dimension_mismatch_names_both_shapes_and_the_op() {
        let e = SparseError::DimensionMismatch {
            expected: (4, 4),
            found: (4, 5),
            context: "ewise_mult",
        };
        let s = e.to_string();
        assert!(s.contains("dimension mismatch"), "{s}");
        assert!(s.contains("4x4"), "{s}");
        assert!(s.contains("4x5"), "{s}");
        assert!(s.contains("ewise_mult"), "{s}");
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: SparseError = io.into();
        assert!(matches!(e, SparseError::Io(_)));
        assert!(e.to_string().contains("missing"));
    }

    #[test]
    fn errors_are_cloneable_and_comparable() {
        let a = SparseError::UnsortedRow { row: 7 };
        let b = a.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn tile_failed_names_the_tile_and_rows() {
        let e = SparseError::TileFailed {
            tile: 3,
            rows: (96, 128),
            detail: "parallel: boom; degraded retry: boom again".into(),
        };
        let s = e.to_string();
        assert!(s.contains("tile 3"), "{s}");
        assert!(s.contains("96..128"), "{s}");
        assert!(s.contains("degraded retry"), "{s}");
    }

    #[test]
    fn plan_structure_mismatch_names_the_operand() {
        let e = SparseError::PlanStructureMismatch { operand: "mask" };
        let s = e.to_string();
        assert!(s.contains("plan structure mismatch"), "{s}");
        assert!(s.contains("mask"), "{s}");
        assert!(s.contains("rebuild"), "{s}");
    }

    #[test]
    fn executor_poisoned_tells_the_caller_to_rebuild() {
        let e = SparseError::ExecutorPoisoned { detail: "scheduler unwound".into() };
        let s = e.to_string();
        assert!(s.contains("poisoned"), "{s}");
        assert!(s.contains("scheduler unwound"), "{s}");
        assert!(s.contains("new executor"), "{s}");
    }

    #[test]
    fn queue_full_names_the_capacity_and_is_retryable_advice() {
        let e = SparseError::QueueFull { capacity: 256 };
        let s = e.to_string();
        assert!(s.contains("queue full"), "{s}");
        assert!(s.contains("256"), "{s}");
        assert!(s.contains("retry"), "{s}");
        // backpressure must stay comparable so callers can match on it
        assert_eq!(e, SparseError::QueueFull { capacity: 256 });
        assert_ne!(e, SparseError::QueueFull { capacity: 8 });
    }

    #[test]
    fn cancelled_says_nothing_ran() {
        let e = SparseError::Cancelled;
        let s = e.to_string();
        assert!(s.contains("cancelled"), "{s}");
        assert!(s.contains("no computation"), "{s}");
    }

    #[test]
    fn deadline_exceeded_distinguishes_shed_from_abandoned() {
        let e = SparseError::DeadlineExceeded;
        let s = e.to_string();
        assert!(s.contains("deadline exceeded"), "{s}");
        assert!(s.contains("shed"), "{s}");
        assert!(s.contains("abandoned"), "{s}");
        // callers route on it, so it must stay comparable
        assert_eq!(e, SparseError::DeadlineExceeded);
        assert_ne!(e, SparseError::Cancelled);
    }

    #[test]
    fn invalid_config_is_a_caller_error() {
        let e = SparseError::InvalidConfig { detail: "tuner: marker_widths grid is empty".into() };
        assert!(e.to_string().contains("invalid configuration"));
        assert!(e.to_string().contains("marker_widths"));
    }

    #[test]
    fn internal_is_displayed_as_a_bug() {
        let e = SparseError::Internal { detail: "fragment 5 produced twice".into() };
        assert!(e.to_string().contains("internal invariant"));
        assert!(e.to_string().contains("fragment 5"));
    }
}
