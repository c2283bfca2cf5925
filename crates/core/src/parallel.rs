//! Distributed streaming SVD (Listings 2–4 of the paper).
//!
//! Each rank owns a row block `Aⁱ` (`Mᵢ x N`) of the global snapshot
//! matrix. Two collective kernels do all the work:
//!
//! - [`ParallelStreamingSvd::parallel_svd`] — APMOS (Algorithm 2): local
//!   right vectors by the method of snapshots, truncated to `r1` columns,
//!   gathered at rank 0 into `W = [Ṽ¹Σ̃¹, …]`, factorized there, and the
//!   `r2`-truncated `(X̃, Λ̃)` broadcast back so each rank assembles its slice
//!   of the global left singular vectors `Ũⁱ_j = (1/Λ̃_j) Aⁱ X̃_j`;
//! - [`ParallelStreamingSvd::parallel_qr`] — TSQR (Benson et al.): local
//!   thin QR, R-blocks stacked and re-factorized at rank 0, global Q blocks
//!   scattered back, plus the SVD of the final `R` for the streaming update.
//!
//! The streaming driver (Listing 2) is the Levy–Lindenbaum loop of
//! [`crate::serial`] with both kernels swapped in. Rank 0's inner SVDs may
//! be randomized, which is the paper's third building block; every
//! factor crosses the communicator through one [`Exchange`].
//!
//! The paper's Listing 4 negates `qglobal`/`rfinal` ("trick for
//! consistency"); our QR canonicalizes to a non-negative `R` diagonal
//! instead, which achieves cross-rank consistency without the sign hack.
//!
//! Dense products (`matmul`, QR, the rank-0 SVDs) go through
//! `psvd_linalg::gemm`, whose packed engine threads large problems on the
//! shared worker pool. `World::run` registers its rank count with
//! `psvd_linalg::par`, so each rank's kernels default to an equal share of
//! the machine rather than oversubscribing it; results are bitwise
//! identical for any kernel thread count (see DESIGN.md, "Threading
//! model").

use std::io;

use psvd_comm::{CommError, Communicator, Payload};
use psvd_data::stream::SnapshotSource;
use psvd_linalg::gemm::matmul_into;
use psvd_linalg::qr::qr_thin_into;
use psvd_linalg::snapshots::generate_right_vectors;
use psvd_linalg::workspace::{Workspace, WorkspaceStats};
use psvd_linalg::{Matrix, Scalar};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::SvdConfig;
use crate::exchange::Exchange;
use crate::hierarchical::{try_merge_tree_svd_into, MergeTreePlan, TreeMergeInfo, TreeSvdError};
use crate::inner::InnerSolver;
use crate::serial::fill_stack;

/// Tag base for the TSQR Q-block scatter (the paper uses `tag = rank + 10`).
const TAG_QR_SCATTER: u64 = 10;

/// Failure of a pull-based ingestion round
/// ([`ParallelStreamingSvd::try_fit_source`]): either the snapshot source
/// failed to produce a batch (disk/decode) or the collective round on a
/// delivered batch failed permanently.
#[derive(Debug)]
pub enum IngestError {
    /// The snapshot source failed (out-of-core read / decode).
    Io(io::Error),
    /// A collective round failed permanently.
    Comm(CommError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "snapshot source failed: {e}"),
            IngestError::Comm(e) => write!(f, "collective round failed: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            IngestError::Comm(e) => Some(e),
        }
    }
}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<CommError> for IngestError {
    fn from(e: CommError) -> Self {
        IngestError::Comm(e)
    }
}

/// Report of a run that survived permanent rank failures.
///
/// When `cfg.allow_degraded` is set and the communicator's world shrinks
/// (a fault-injection rank death, in production a failed node), the driver
/// keeps streaming on the survivors: the dead rank's row block simply
/// drops out of the global factorization, every collective renumbers onto
/// the shrunken world, and this record describes what was lost.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradedInfo {
    /// World size when the driver was built.
    pub initial_ranks: usize,
    /// World size now.
    pub surviving_ranks: usize,
    /// Dead ranks, in the initial (physical) numbering.
    pub failed_ranks: Vec<usize>,
    /// Driver iteration count when the (latest) failure was detected.
    pub detected_at_iteration: usize,
}

/// Distributed streaming truncated SVD over a row-partitioned snapshot
/// stream. One instance lives on each rank, driven in SPMD style.
///
/// Like the serial driver, every `O(Mᵢ)` per-batch temporary lives in
/// per-instance buffers reused across updates; after warm-up a streaming
/// round's only allocations are the small `O(n²)` factors that transfer
/// ownership through the communicator (gathered `R` blocks, scattered `Q`
/// blocks, broadcast SVD factors) — those are inherent to message passing
/// and are accounted by the communicator's traffic statistics.
///
/// Generic over the element dtype `T` (default `f64`); in mixed-precision
/// mode (`cfg.precision == Mixed`) every matrix crossing the communicator
/// is demoted to `f32` on the wire and promoted back on receipt, and the
/// root's randomized inner SVDs run the f32-sketch / f64-re-orthogonalize
/// pipeline — see DESIGN.md, "Scalar genericity & mixed precision".
pub struct ParallelStreamingSvd<'a, C: Communicator, T: Scalar = f64> {
    comm: &'a C,
    cfg: SvdConfig,
    ulocal: Matrix<T>,
    singular_values: Vec<T>,
    iteration: usize,
    snapshots_seen: usize,
    rng: StdRng,
    /// Rank 0's inner SVD.
    solver: InnerSolver,
    /// Collective shape and wire dtype.
    exchange: Exchange,
    /// Scratch arena feeding the QR kernels.
    ws: Workspace,
    /// Persistent `[ff·U·D | A_i]` stack buffer.
    stack: Matrix<T>,
    /// Persistent local thin-QR `Q` factor (TSQR step 1).
    qr_q: Matrix<T>,
    /// Persistent global `Q`/`R` factors of the stacked R re-QR (root only).
    qr_gq: Matrix<T>,
    qr_gr: Matrix<T>,
    /// Persistent `Q_local · block` product buffer.
    qlocal: Matrix<T>,
    /// Buffer the next mode block is formed in before swapping into place.
    next_ulocal: Matrix<T>,
    /// Persistent landing buffer for pull-based ingestion (`fit_source`).
    ingest: Matrix<T>,
    /// World size at construction.
    initial_world: usize,
    /// World size as of the last completed operation.
    world_size: usize,
    /// Set once the run has survived a rank failure.
    degraded: Option<DegradedInfo>,
    /// Diagnostics of the latest hierarchical APMOS round (`None` until a
    /// non-flat merge-tree plan has executed).
    tree_info: Option<TreeMergeInfo>,
}

impl<'a, C: Communicator, T: Scalar + Payload> ParallelStreamingSvd<'a, C, T> {
    /// New driver on this rank.
    pub fn new(comm: &'a C, cfg: SvdConfig) -> Self {
        let cfg = cfg.validated();
        let size = comm.size();
        // Surface an unusable tree configuration here, like `validated()`
        // does for the numeric knobs, rather than mid-stream.
        MergeTreePlan::resolve(&cfg, size)
            .unwrap_or_else(|e| panic!("merge-tree configuration rejected: {e}"));
        Self {
            comm,
            initial_world: size,
            world_size: size,
            degraded: None,
            rng: StdRng::seed_from_u64(cfg.seed),
            solver: InnerSolver::new(&cfg),
            exchange: Exchange::new(&cfg),
            cfg,
            ulocal: Matrix::zeros(0, 0),
            singular_values: Vec::new(),
            iteration: 0,
            snapshots_seen: 0,
            ws: Workspace::new(),
            stack: Matrix::zeros(0, 0),
            qr_q: Matrix::zeros(0, 0),
            qr_gq: Matrix::zeros(0, 0),
            qr_gr: Matrix::zeros(0, 0),
            qlocal: Matrix::zeros(0, 0),
            next_ulocal: Matrix::zeros(0, 0),
            ingest: Matrix::zeros(0, 0),
            tree_info: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SvdConfig {
        &self.cfg
    }

    /// The communicator driving this rank.
    pub fn comm(&self) -> &C {
        self.comm
    }

    /// True once `initialize` has run.
    pub fn is_initialized(&self) -> bool {
        self.snapshots_seen > 0
    }

    /// Number of streaming updates performed so far (excluding init).
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Total snapshots ingested.
    pub fn snapshots_seen(&self) -> usize {
        self.snapshots_seen
    }

    /// This rank's rows of the current global modes (`Mᵢ x K`).
    pub fn local_modes(&self) -> &Matrix<T> {
        &self.ulocal
    }

    /// Current estimate of the leading singular values (identical on all
    /// ranks).
    pub fn singular_values(&self) -> &[T] {
        &self.singular_values
    }

    /// Consume the tracker, handing out this rank's modes and the singular
    /// values without copying them.
    pub fn into_modes(self) -> (Matrix<T>, Vec<T>) {
        (self.ulocal, self.singular_values)
    }

    /// Allocation accounting for the internal scratch arena (see
    /// [`crate::serial::SerialStreamingSvd::scratch_stats`]).
    pub fn scratch_stats(&self) -> WorkspaceStats {
        self.ws.stats()
    }

    /// Reset the scratch-arena counters.
    pub fn reset_scratch_stats(&mut self) {
        self.ws.reset_stats();
    }

    /// `Some` once the run has survived a permanent rank failure (requires
    /// `cfg.allow_degraded`).
    pub fn degraded(&self) -> Option<&DegradedInfo> {
        self.degraded.as_ref()
    }

    /// Diagnostics of the latest hierarchical APMOS round: executed tree
    /// shape and the tracked truncation-error bound. `None` while the
    /// resolved plan is the flat gather (the backward-compatible default).
    pub fn tree_merge_info(&self) -> Option<&TreeMergeInfo> {
        self.tree_info.as_ref()
    }

    /// Reconcile the tracked world size with the communicator's. A shrink
    /// means some rank died since the last operation: record it if the
    /// configuration tolerates degraded runs, error out otherwise. Called
    /// before and after every fallible driver operation, so a failure is
    /// reported at the latest by the next call after the collective round
    /// in which it happened.
    fn note_world(&mut self) -> Result<(), CommError> {
        let alive = self.comm.size();
        if alive < self.world_size {
            let failed = self.comm.failed_ranks();
            if !self.cfg.allow_degraded {
                let rank = failed.first().copied().unwrap_or(usize::MAX);
                return Err(CommError::RankDead { rank });
            }
            self.world_size = alive;
            match &mut self.degraded {
                Some(info) => {
                    info.surviving_ranks = alive;
                    info.failed_ranks = failed;
                }
                None => {
                    self.degraded = Some(DegradedInfo {
                        initial_ranks: self.initial_world,
                        surviving_ranks: alive,
                        failed_ranks: failed,
                        detected_at_iteration: self.iteration,
                    });
                }
            }
        }
        Ok(())
    }

    /// APMOS distributed SVD (Listing 3): returns this rank's block of the
    /// `K` leading global left singular vectors and the singular values.
    pub fn parallel_svd(&mut self, a_local: &Matrix<T>) -> (Matrix<T>, Vec<T>) {
        let mut phi = Matrix::zeros(0, 0);
        let s = self
            .try_parallel_svd_into(a_local, &mut phi)
            .unwrap_or_else(|e| panic!("parallel_svd failed: {e}"));
        (phi, s)
    }

    /// Fallible APMOS round writing this rank's mode block into `phi`
    /// (reused across calls — warm buffers make the local assembly
    /// allocation-free; the gathered/broadcast factors inherently transfer
    /// ownership). Permanent communication failures (dead ranks, exhausted
    /// retries) surface instead of panicking.
    fn try_parallel_svd_into(
        &mut self,
        a_local: &Matrix<T>,
        phi: &mut Matrix<T>,
    ) -> Result<Vec<T>, CommError> {
        let n = a_local.cols();
        assert!(n > 0, "parallel_svd: empty snapshot set");

        // Hierarchical exchange: re-resolve the plan against the *current*
        // world (a degraded run may have shrunk below the tree threshold)
        // and hand the round to the merge-tree engine. The flat plan stays
        // on the inline path below — bit-for-bit and byte-for-byte the
        // same exchange as before the tree engine existed.
        let plan = MergeTreePlan::resolve(&self.cfg, self.comm.size())
            .unwrap_or_else(|e| panic!("merge-tree configuration rejected: {e}"));
        if !plan.is_flat() {
            let result = try_merge_tree_svd_into(
                self.comm,
                self.cfg,
                a_local,
                &plan,
                &mut self.rng,
                &mut self.ws,
                None,
                phi,
            );
            return match result {
                Ok((s, info)) => {
                    self.tree_info = Some(info);
                    Ok(s)
                }
                Err(TreeSvdError::Comm(e)) => Err(e),
                Err(TreeSvdError::Plan(e)) => {
                    unreachable!("plan errors surface at resolve time: {e}")
                }
            };
        }

        let wlocal = apmos_leaf_factor(a_local, self.cfg.r1);
        let gathered = self.exchange.gather(self.comm, wlocal, 0)?;
        // Root-ness = who holds the gathered blocks (see
        // `try_parallel_qr_into` on death-round transitions).
        let factors = gathered.map(|parts| {
            apmos_root(&Matrix::hstack_all(&parts), self.cfg.r2, &self.solver, &mut self.rng)
        });
        let (x, s) = self.exchange.bcast_factors(self.comm, factors, 0)?;
        Ok(apmos_modes(a_local, &x, &s, self.cfg.k, phi))
    }

    /// TSQR (Listing 4): factorizes the row-distributed matrix as
    /// `A = Q R`, returning `(Q_local, U_R, s_R)` where `U_R Σ_R V_Rᵀ` is
    /// the SVD of the final `R` (step I2/2 of the Levy–Lindenbaum loop).
    pub fn parallel_qr(&mut self, a_local: &Matrix<T>) -> (Matrix<T>, Matrix<T>, Vec<T>) {
        let mut qlocal = Matrix::zeros(0, 0);
        let (unew, snew) = self
            .try_parallel_qr_into(a_local, &mut qlocal)
            .unwrap_or_else(|e| panic!("parallel_qr failed: {e}"));
        (qlocal, unew, snew)
    }

    /// Fallible TSQR round writing `Q_local` into a caller-owned buffer.
    /// Local `Q`, the root's stacked-R re-QR factors and the QR scratch
    /// persist on the instance; only the `O(n²)` matrices whose ownership
    /// moves through the communicator are freshly allocated.
    ///
    /// Both QR stages route through `qr_thin_into` at `qr_block` of their
    /// shape. Both have `n` columns, so both stay on the unblocked
    /// reflector-at-a-time path below `n = 48` and take compact-WY panels
    /// with packed-GEMM trailing updates from 48 up. Reflector sweeps too
    /// small to pay for a thread-pool handoff run on the calling thread.
    ///
    /// Permanent communication failures surface instead of panicking; the
    /// persistent factor buffers stay on the instance either way, so an
    /// errored round leaves it reusable.
    fn try_parallel_qr_into(
        &mut self,
        a_local: &Matrix<T>,
        qlocal: &mut Matrix<T>,
    ) -> Result<(Matrix<T>, Vec<T>), CommError> {
        let n = a_local.cols();
        assert!(
            a_local.rows() >= n,
            "parallel_qr: local block must be tall ({} rows < {} cols); \
             use more snapshots per rank or fewer ranks",
            a_local.rows(),
            n
        );
        // Local thin QR; R is n x n because the block is tall. R is moved
        // into the gather, so it is built in a fresh matrix.
        let mut local_r = Matrix::zeros(0, 0);
        qr_thin_into(a_local.view(), &mut self.qr_q, &mut local_r, &mut self.ws);

        // Gather the R factors, stack (reusing their storage), and
        // re-factorize at rank 0. The world shape is read only after the
        // gather: its collective round boundary is where injected rank
        // deaths activate, and the scatter below must address the
        // post-transition world (root-ness = who holds the gathered Rs).
        let r_global = self.exchange.gather(self.comm, local_r, 0)?;
        let rank = self.comm.rank();
        let size = self.comm.size();
        let factors = if let Some(parts) = r_global {
            let stack = Matrix::vstack_owned(parts);
            let (gq, gr) = (&mut self.qr_gq, &mut self.qr_gr);
            qr_thin_into(stack.view(), gq, gr, &mut self.ws);
            // Scatter each rank's n-row block of the stacked Q; rank 0's
            // own block is consumed as a view, never copied.
            for dst in 1..size {
                let block = gq.block(dst * n, (dst + 1) * n, 0, n).to_matrix();
                self.exchange.send(self.comm, block, (), dst, TAG_QR_SCATTER + dst as u64)?;
            }
            matmul_into(self.qr_q.view(), gq.block(0, n, 0, n), qlocal);
            // SVD of the small final R, broadcast to everyone below.
            Some(self.solver.factorize(gr, self.cfg.k.min(n), &mut self.rng))
        } else {
            let tag = TAG_QR_SCATTER + rank as u64;
            let (block, ()) = self.exchange.recv::<_, T, ()>(self.comm, 0, tag)?;
            matmul_into(self.qr_q.view(), block.view(), qlocal);
            None
        };
        self.exchange.bcast_factors(self.comm, factors, 0)
    }

    /// Ingest the first local batch `A0ⁱ` (`Mᵢ x B`) — Listing 2's
    /// `initialize`: one APMOS pass.
    pub fn initialize(&mut self, a_local: &Matrix<T>) -> &mut Self {
        self.try_initialize(a_local).unwrap_or_else(|e| panic!("initialize failed: {e}"))
    }

    /// Fallible [`ParallelStreamingSvd::initialize`]: permanent
    /// communication failures surface as [`CommError`]. With
    /// `cfg.allow_degraded` a surviving rank records the shrink in
    /// [`ParallelStreamingSvd::degraded`] and keeps going.
    pub fn try_initialize(&mut self, a_local: &Matrix<T>) -> Result<&mut Self, CommError> {
        assert!(!self.is_initialized(), "initialize called twice");
        self.note_world()?;
        let mut phi = std::mem::replace(&mut self.next_ulocal, Matrix::zeros(0, 0));
        let s = self.try_parallel_svd_into(a_local, &mut phi);
        self.next_ulocal = phi;
        let s = s?;
        std::mem::swap(&mut self.ulocal, &mut self.next_ulocal);
        self.singular_values = s;
        self.snapshots_seen = a_local.cols();
        self.note_world()?;
        Ok(self)
    }

    /// Ingest a further local batch — Listing 2's `incorporate_data`:
    /// stack `ff·U·D` with the new data, TSQR, small SVD, truncate to `K`.
    pub fn incorporate_data(&mut self, a_local: &Matrix<T>) -> &mut Self {
        self.try_incorporate_data(a_local)
            .unwrap_or_else(|e| panic!("incorporate_data failed: {e}"))
    }

    /// Fallible [`ParallelStreamingSvd::incorporate_data`] (see
    /// [`ParallelStreamingSvd::try_initialize`] for the failure contract).
    /// An errored update leaves the previous factorization intact.
    pub fn try_incorporate_data(&mut self, a_local: &Matrix<T>) -> Result<&mut Self, CommError> {
        assert!(self.is_initialized(), "incorporate_data before initialize");
        assert_eq!(a_local.rows(), self.ulocal.rows(), "batch row count changed mid-stream");
        if a_local.cols() == 0 {
            return Ok(self);
        }
        self.note_world()?;
        self.iteration += 1;

        let ff = self.cfg.forget_factor;
        fill_stack(&mut self.stack, &self.ulocal, &self.singular_values, ff, a_local);

        let stack = std::mem::replace(&mut self.stack, Matrix::zeros(0, 0));
        let mut qlocal = std::mem::replace(&mut self.qlocal, Matrix::zeros(0, 0));
        let round = self.try_parallel_qr_into(&stack, &mut qlocal);
        self.stack = stack;
        let (unew, snew) = match round {
            Ok(f) => f,
            Err(e) => {
                // Leave the previous factorization (and counters) intact.
                self.qlocal = qlocal;
                self.iteration -= 1;
                return Err(e);
            }
        };
        let k = self.cfg.k.min(snew.len());
        matmul_into(qlocal.view(), unew.block(0, unew.rows(), 0, k), &mut self.next_ulocal);
        std::mem::swap(&mut self.ulocal, &mut self.next_ulocal);
        self.qlocal = qlocal;
        self.singular_values.clear();
        self.singular_values.extend_from_slice(&snew[..k]);
        self.snapshots_seen += a_local.cols();
        self.note_world()?;
        Ok(self)
    }

    /// Stream this rank's row block of an entire dataset in `batch`-column
    /// chunks.
    pub fn fit_batched(&mut self, a_local: &Matrix<T>, batch: usize) -> &mut Self {
        self.try_fit_batched(a_local, batch).unwrap_or_else(|e| panic!("fit_batched failed: {e}"))
    }

    /// Fallible [`ParallelStreamingSvd::fit_batched`]: stops at the first
    /// batch whose collective round fails permanently.
    pub fn try_fit_batched(
        &mut self,
        a_local: &Matrix<T>,
        batch: usize,
    ) -> Result<&mut Self, CommError> {
        assert!(batch > 0, "batch size must be positive");
        let n = a_local.cols();
        let mut c0 = 0;
        while c0 < n {
            let c1 = (c0 + batch).min(n);
            let chunk = a_local.submatrix(0, a_local.rows(), c0, c1);
            if self.is_initialized() {
                self.try_incorporate_data(&chunk)?;
            } else {
                self.try_initialize(&chunk)?;
            }
            c0 = c1;
        }
        Ok(self)
    }

    /// Stream every batch a [`SnapshotSource`] yields — the pull-based
    /// ingestion path of a distributed run. Each rank drives its own
    /// source over its own row hyperslab (with a
    /// [`psvd_data::prefetch::SnapshotPrefetcher`], its own file handle
    /// and reader thread — the MPI-IO independent-access pattern), so
    /// batch `k+1`'s IO and decode overlap batch `k`'s collective update.
    /// Panics on failure; see [`ParallelStreamingSvd::try_fit_source`].
    pub fn fit_source<S: SnapshotSource<T>>(&mut self, source: &mut S) -> &mut Self {
        self.try_fit_source(source).unwrap_or_else(|e| panic!("fit_source failed: {e}"))
    }

    /// Fallible [`ParallelStreamingSvd::fit_source`]: IO failures surface
    /// as [`IngestError::Io`], permanent collective failures as
    /// [`IngestError::Comm`]; either way the last successful update's
    /// factorization stays intact. All ranks must fail or succeed
    /// together for the SPMD stream to stay consistent — an IO error is
    /// local to this rank, so callers tolerating per-rank faults should
    /// pair this with `cfg.allow_degraded`.
    pub fn try_fit_source<S: SnapshotSource<T>>(
        &mut self,
        source: &mut S,
    ) -> Result<&mut Self, IngestError> {
        let mut ingest = std::mem::replace(&mut self.ingest, Matrix::zeros(0, 0));
        let result = (|| {
            while source.next_batch_into(&mut ingest)? {
                if self.is_initialized() {
                    self.try_incorporate_data(&ingest)?;
                } else {
                    self.try_initialize(&ingest)?;
                }
            }
            Ok(())
        })();
        self.ingest = ingest;
        result.map(|()| self)
    }

    /// Gather the distributed modes into the global `M x K` matrix at
    /// `root` (rank order = row order). Returns `Some` at the root. Copies
    /// this rank's block into the gather; when the tracker is finished,
    /// [`ParallelStreamingSvd::into_gathered_modes`] moves it instead.
    pub fn gather_modes(&self, root: usize) -> Option<Matrix<T>> {
        self.exchange
            .gather(self.comm, self.ulocal.clone(), root)
            .unwrap_or_else(|e| panic!("gather_modes failed: {e}"))
            .map(Matrix::vstack_owned)
    }

    /// Consume the tracker and gather the distributed modes at `root`,
    /// moving this rank's block into the collective (no snapshot copy) and
    /// assembling the result by reusing the gathered storage.
    pub fn into_gathered_modes(self, root: usize) -> Option<Matrix<T>> {
        self.exchange
            .gather(self.comm, self.ulocal, root)
            .unwrap_or_else(|e| panic!("into_gathered_modes failed: {e}"))
            .map(Matrix::vstack_owned)
    }

    /// Gather the distributed modes into the global `M x K` matrix on
    /// *every* rank — [`ParallelStreamingSvd::gather_modes`] followed by a
    /// broadcast, both over the configured collective shape (binomial
    /// trees keep either stage from funnelling flat through rank 0).
    pub fn allgather_modes(&self) -> Matrix<T> {
        let blocks = self
            .exchange
            .allgather(self.comm, self.ulocal.clone())
            .unwrap_or_else(|e| panic!("allgather_modes failed: {e}"));
        Matrix::vstack_owned(blocks)
    }
}

/// Checkpointing is defined on the `f64` instantiation only — the
/// on-disk [`crate::checkpoint::SvdCheckpoint`] format is fixed at
/// double precision.
impl<'a, C: Communicator> ParallelStreamingSvd<'a, C> {
    /// Capture this rank's state for checkpointing (one checkpoint file
    /// per rank; pair with [`ParallelStreamingSvd::restore`]). Copies the
    /// mode block — use [`ParallelStreamingSvd::into_checkpoint`] when the
    /// tracker is done streaming.
    pub fn checkpoint(&self) -> crate::checkpoint::SvdCheckpoint {
        assert!(self.is_initialized(), "checkpoint of an uninitialized tracker");
        crate::checkpoint::SvdCheckpoint {
            modes: self.ulocal.clone(),
            singular_values: self.singular_values.clone(),
            iteration: self.iteration,
            snapshots_seen: self.snapshots_seen,
        }
    }

    /// Consume the tracker into its checkpoint without copying the modes.
    pub fn into_checkpoint(self) -> crate::checkpoint::SvdCheckpoint {
        assert!(self.is_initialized(), "checkpoint of an uninitialized tracker");
        crate::checkpoint::SvdCheckpoint {
            modes: self.ulocal,
            singular_values: self.singular_values,
            iteration: self.iteration,
            snapshots_seen: self.snapshots_seen,
        }
    }

    /// Rebuild this rank's tracker from its checkpoint; the stream resumes
    /// bit-exactly (all ranks must restore from the same streaming step).
    pub fn restore(comm: &'a C, cfg: SvdConfig, ckpt: crate::checkpoint::SvdCheckpoint) -> Self {
        assert!(ckpt.snapshots_seen > 0, "restored state must be initialized");
        assert_eq!(ckpt.modes.cols(), ckpt.singular_values.len(), "inconsistent checkpoint");
        let mut d = Self::new(comm, cfg);
        d.ulocal = ckpt.modes;
        d.singular_values = ckpt.singular_values;
        d.iteration = ckpt.iteration;
        d.snapshots_seen = ckpt.snapshots_seen;
        d
    }
}

/// APMOS leaf factor `Wᵢ = Ṽⁱ (Σ̃ⁱ)ᵀ`: local right vectors by the method
/// of snapshots, truncated to `r1` columns and scaled in place (Σ̃ is
/// diagonal).
pub(crate) fn apmos_leaf_factor<T: Scalar>(a_local: &Matrix<T>, r1: usize) -> Matrix<T> {
    let (mut w, s) = generate_right_vectors(a_local, r1.min(a_local.cols()));
    scale_columns(&mut w, &s);
    w
}

/// Scale column `j` of `m` by `d[j]`, in place.
pub(crate) fn scale_columns<T: Scalar>(m: &mut Matrix<T>, d: &[T]) {
    for i in 0..m.rows() {
        for (v, &dj) in m.row_mut(i).iter_mut().zip(d) {
            *v *= dj;
        }
    }
}

/// APMOS root: factorize the gathered `W` and truncate to `r2` columns.
pub(crate) fn apmos_root<T: Scalar>(
    w: &Matrix<T>,
    r2: usize,
    solver: &InnerSolver,
    rng: &mut StdRng,
) -> (Matrix<T>, Vec<T>) {
    let r2 = r2.min(w.rows().min(w.cols()));
    let (x, s) = solver.factorize(w, r2, rng);
    (x.first_columns(r2), s[..r2.min(s.len())].to_vec())
}

/// This rank's slice of the global modes, `Ũⁱ_j = (1/Λ̃_j) Aⁱ X̃_j`, over
/// the (at most `k`) positive broadcast singular values, written into
/// `phi`; returns those singular values.
pub(crate) fn apmos_modes<T: Scalar>(
    a_local: &Matrix<T>,
    x: &Matrix<T>,
    s: &[T],
    k: usize,
    phi: &mut Matrix<T>,
) -> Vec<T> {
    let k = k.min(s.iter().filter(|&&v| v > T::ZERO).count());
    let inv_s: Vec<T> = s[..k].iter().map(|&v| T::ONE / v).collect();
    matmul_into(a_local.view(), x.block(0, x.rows(), 0, k), phi);
    scale_columns(phi, &inv_s);
    s[..k].to_vec()
}

/// One-shot distributed (optionally randomized) SVD without streaming —
/// the configuration the paper's weak-scaling experiment times.
pub fn parallel_svd_once<C: Communicator, T: Scalar + Payload>(
    comm: &C,
    cfg: SvdConfig,
    a_local: &Matrix<T>,
) -> (Matrix<T>, Vec<T>) {
    let mut driver = ParallelStreamingSvd::new(comm, cfg);
    driver.parallel_svd(a_local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psvd_comm::World;
    use psvd_data::partition::split_rows;
    use psvd_linalg::gemm::matmul;
    use psvd_linalg::norms::orthogonality_error;
    use psvd_linalg::random::{matrix_with_spectrum, seeded_rng};
    use psvd_linalg::validate::{max_principal_angle, spectrum_error};

    use crate::config::Precision;
    use crate::serial::{batch_truncated_svd, SerialStreamingSvd};

    fn decaying_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let spec: Vec<f64> = (0..n.min(m)).map(|i| 8.0 * 0.6f64.powi(i as i32)).collect();
        matrix_with_spectrum(m, n, &spec, &mut seeded_rng(seed))
    }

    #[test]
    fn apmos_exact_without_truncation() {
        // r1 = N, full SVD at rank 0: APMOS is algebraically exact because
        // W Wᵀ = Σᵢ AⁱᵀAⁱ = AᵀA.
        let a = decaying_matrix(96, 12, 1);
        let k = 5;
        let cfg = SvdConfig::new(k)
            .with_r1(12)
            .with_r2(12)
            .with_forget_factor(1.0)
            .with_precision(Precision::F64);
        let world = World::new(4);
        let blocks = split_rows(&a, 4);
        let out = world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            let (phi, s) = d.parallel_svd(&blocks[comm.rank()]);
            (phi, s)
        });
        let global_u = Matrix::vstack_all(&out.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>());
        let (u_ref, s_ref) = batch_truncated_svd(&a, k);
        assert!(spectrum_error(&s_ref, &out[0].1) < 1e-9, "sigma mismatch");
        assert!(max_principal_angle(&u_ref, &global_u) < 1e-7);
        assert!(orthogonality_error(&global_u) < 1e-8);
        // All ranks agree on singular values.
        for (_, s) in &out {
            assert_eq!(s, &out[0].1);
        }
    }

    #[test]
    fn apmos_truncated_still_accurate_on_decaying_spectrum() {
        let a = decaying_matrix(80, 24, 2);
        let k = 4;
        let cfg = SvdConfig::new(k).with_r1(10).with_r2(8);
        let world = World::new(4);
        let blocks = split_rows(&a, 4);
        let out = world.run(|comm| parallel_svd_once(comm, cfg, &blocks[comm.rank()]));
        let (_, s_ref) = batch_truncated_svd(&a, k);
        for (got, want) in out[0].1.iter().zip(&s_ref) {
            assert!((got - want).abs() / want < 0.02, "sigma {got} vs {want}");
        }
    }

    #[test]
    fn tsqr_factorizes_distributed_matrix() {
        let a = decaying_matrix(64, 8, 3);
        let cfg = SvdConfig::new(4).with_forget_factor(1.0).with_precision(Precision::F64);
        let world = World::new(4);
        let blocks = split_rows(&a, 4);
        let out = world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            d.parallel_qr(&blocks[comm.rank()])
        });
        // Stacked local Qs form the global Q.
        let q = Matrix::vstack_all(&out.iter().map(|(q, _, _)| q.clone()).collect::<Vec<_>>());
        assert!(orthogonality_error(&q) < 1e-10, "global Q not orthonormal");
        // SVD of R gives the singular values of A.
        let f_ref = psvd_linalg::svd(&a);
        assert!(spectrum_error(&f_ref.s, &out[0].2) < 1e-10);
        // Q * (U_R Σ V_Rᵀ reconstruction through the returned factors):
        // A = Q R and R = U_R Σ V_Rᵀ, so Q·U_R spans A's left space.
        let qu = matmul(&q, &out[0].1);
        assert!(max_principal_angle(&f_ref.u.first_columns(4), &qu.first_columns(4)) < 1e-7);
    }

    #[test]
    fn parallel_streaming_matches_serial_streaming() {
        // Identical math, distributed: the parallel driver must track the
        // serial one to round-off-level agreement at every step.
        let a = decaying_matrix(72, 30, 4);
        let k = 5;
        let batch = 6;
        let cfg = SvdConfig::new(k)
            .with_forget_factor(0.95)
            .with_r1(30)
            .with_r2(30)
            .with_precision(Precision::F64);

        let mut serial = SerialStreamingSvd::new(cfg);
        serial.fit_batched(&a, batch);

        let world = World::new(3);
        let blocks = split_rows(&a, 3);
        let out = world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            d.fit_batched(&blocks[comm.rank()], batch);
            let s = d.singular_values().to_vec();
            (d.into_gathered_modes(0), s)
        });
        assert!(
            spectrum_error(serial.singular_values(), &out[0].1) < 1e-6,
            "serial {:?} vs parallel {:?}",
            serial.singular_values(),
            out[0].1
        );
        let par_modes = out[0].0.as_ref().expect("root gathered");
        assert!(max_principal_angle(serial.modes(), par_modes) < 1e-5);
    }

    #[test]
    fn single_rank_parallel_equals_serial() {
        let a = decaying_matrix(40, 16, 5);
        let cfg = SvdConfig::new(3)
            .with_forget_factor(1.0)
            .with_r1(16)
            .with_r2(16)
            .with_precision(Precision::F64);
        let mut serial = SerialStreamingSvd::new(cfg);
        serial.fit_batched(&a, 4);

        let world = World::new(1);
        let out = world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            d.fit_batched(&a, 4);
            let s = d.singular_values().to_vec();
            (d.into_gathered_modes(0).unwrap(), s)
        });
        assert!(spectrum_error(serial.singular_values(), &out[0].1) < 1e-8);
        assert!(max_principal_angle(serial.modes(), &out[0].0) < 1e-6);
    }

    #[test]
    fn gather_modes_assembles_in_rank_order() {
        let a = decaying_matrix(60, 10, 6);
        let cfg = SvdConfig::new(2)
            .with_forget_factor(1.0)
            .with_r1(10)
            .with_r2(10)
            .with_precision(Precision::F64);
        let world = World::new(4);
        let blocks = split_rows(&a, 4);
        let out = world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            d.initialize(&blocks[comm.rank()]);
            let gathered = d.gather_modes(2);
            (comm.rank(), gathered, d.into_modes().0)
        });
        // Only rank 2 gets the assembly.
        for (rank, gathered, _) in &out {
            assert_eq!(gathered.is_some(), *rank == 2);
        }
        let assembled = out[2].1.as_ref().unwrap();
        let manual = Matrix::vstack_owned(out.iter().map(|(_, _, l)| l.clone()).collect());
        assert_eq!(assembled, &manual);
    }

    #[test]
    fn steady_state_updates_reuse_scratch() {
        // After one warm-up update, every further same-shape TSQR round
        // must be served entirely from the per-instance workspace.
        let a = decaying_matrix(60, 30, 10);
        let cfg = SvdConfig::new(4).with_forget_factor(0.99).with_r1(6).with_r2(6);
        let world = World::new(3);
        let blocks = split_rows(&a, 3);
        let stats = world.run(|comm| {
            let b = &blocks[comm.rank()];
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            d.initialize(&b.submatrix(0, b.rows(), 0, 6));
            d.incorporate_data(&b.submatrix(0, b.rows(), 6, 12)); // warm-up
            d.reset_scratch_stats();
            for c0 in (12..30).step_by(6) {
                d.incorporate_data(&b.submatrix(0, b.rows(), c0, c0 + 6));
            }
            d.scratch_stats()
        });
        for s in &stats {
            assert!(s.takes > 0, "updates must route QR scratch through the workspace");
            assert_eq!(s.misses, 0, "steady-state TSQR rounds must not miss the workspace");
            assert_eq!(s.fresh_bytes, 0);
        }
    }

    #[test]
    fn randomized_parallel_path_tracks_leading_modes() {
        let a = decaying_matrix(80, 20, 7);
        let k = 3;
        let cfg = SvdConfig::new(k)
            .with_forget_factor(1.0)
            .with_r1(20)
            .with_r2(10)
            .with_low_rank(true)
            .with_power_iterations(2)
            .with_seed(42);
        let world = World::new(2);
        let blocks = split_rows(&a, 2);
        let out = world.run(|comm| parallel_svd_once(comm, cfg, &blocks[comm.rank()]));
        let (_, s_ref) = batch_truncated_svd(&a, k);
        for (got, want) in out[0].1.iter().zip(&s_ref) {
            assert!((got - want).abs() / want < 0.05, "sigma {got} vs {want}");
        }
    }

    #[test]
    fn traffic_shrinks_with_r1() {
        // The whole point of r1: it caps the gathered volume.
        let a = decaying_matrix(64, 32, 8);
        let count_bytes = |r1: usize| {
            let cfg = SvdConfig::new(2).with_r1(r1).with_r2(4);
            let world = World::new(4);
            let blocks = split_rows(&a, 4);
            world.run(|comm| {
                let _ = parallel_svd_once(comm, cfg, &blocks[comm.rank()]);
            });
            world.stats().total_bytes()
        };
        let big = count_bytes(32);
        let small = count_bytes(4);
        assert!(small < big, "r1=4 traffic {small} should undercut r1=32 traffic {big}");
    }

    #[test]
    fn tree_collectives_give_identical_results() {
        // The deterministic path must produce bit-identical factorizations
        // whether the gather/broadcast run flat or as binomial trees.
        let a = decaying_matrix(72, 24, 9);
        let base = SvdConfig::new(4).with_forget_factor(0.95).with_r1(12).with_r2(8);
        let run = |cfg: SvdConfig| {
            let blocks = split_rows(&a, 5);
            let world = World::new(5);
            world.run(|comm| {
                let mut d = ParallelStreamingSvd::new(comm, cfg);
                d.fit_batched(&blocks[comm.rank()], 8);
                (d.gather_modes(0), d.singular_values().to_vec())
            })
        };
        let flat = run(base);
        let tree = run(base.with_tree_collectives(true));
        assert_eq!(flat[0].1, tree[0].1, "singular values must be bit-identical");
        assert_eq!(flat[0].0, tree[0].0, "modes must be bit-identical");
    }

    #[test]
    fn allgather_modes_matches_root_gather_on_every_rank() {
        let a = decaying_matrix(64, 12, 11);
        let base = SvdConfig::new(3).with_forget_factor(1.0).with_r1(8).with_r2(6);
        for tree in [false, true] {
            let cfg = base.with_tree_collectives(tree);
            let blocks = split_rows(&a, 4);
            let world = World::new(4);
            let out = world.run(|comm| {
                let mut d = ParallelStreamingSvd::new(comm, cfg);
                d.fit_batched(&blocks[comm.rank()], 6);
                let everywhere = d.allgather_modes();
                (everywhere, d.gather_modes(0))
            });
            let root_copy = out[0].1.as_ref().unwrap();
            for (rank, (everywhere, _)) in out.iter().enumerate() {
                assert_eq!(everywhere, root_copy, "rank {rank} (tree={tree}) diverged");
            }
        }
    }

    #[test]
    // The tall-block assertion fires inside the rank thread; the harness
    // surfaces it as a join failure on the spawning thread.
    #[should_panic(expected = "rank thread panicked")]
    fn tsqr_rejects_short_blocks() {
        let cfg = SvdConfig::new(2);
        let world = World::new(1);
        world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            let wide = Matrix::<f64>::zeros(3, 8);
            let _ = d.parallel_qr(&wide);
        });
    }
}
