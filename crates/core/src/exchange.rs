//! Every matrix the distributed drivers move across the communicator goes
//! through one [`Exchange`], built once from the configuration: it picks
//! the collective shape (flat rank-0 pattern or binomial tree,
//! `cfg.tree_collectives`) and the wire dtype (native, or `f32` under
//! `Precision::Mixed`).
//!
//! On an `f32` wire every matrix is demoted *before* it enters the
//! collective and promoted on receipt, so root and non-root contributions
//! are charged — and rounded — identically, and the flat and tree shapes
//! move bit-identical payloads. Singular values and merge-tree
//! diagnostics always travel as `f64`: they are a handful of numbers, and
//! demoting them would cost the σ accuracy contract for no traffic gain.

use psvd_comm::collectives::{try_tree_bcast, try_tree_gather};
use psvd_comm::{CommError, Communicator, Payload};
use psvd_linalg::{Matrix, Scalar};

use crate::config::{Precision, SvdConfig};

/// Collective shape and wire dtype of a distributed run.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Exchange {
    tree: bool,
    f32_wire: bool,
}

impl Exchange {
    /// The exchange `cfg` asks for.
    pub(crate) fn new(cfg: &SvdConfig) -> Self {
        Self { tree: cfg.tree_collectives, f32_wire: cfg.precision == Precision::Mixed }
    }

    /// `m` as a peer receives it: rounded through `f32` on an `f32` wire,
    /// untouched otherwise.
    pub(crate) fn wire_round<T: Scalar>(&self, m: Matrix<T>) -> Matrix<T> {
        if self.f32_wire {
            m.cast::<f32>().cast()
        } else {
            m
        }
    }

    /// Gather one matrix per rank at `root`, in rank order.
    pub(crate) fn gather<C: Communicator, T: Scalar>(
        &self,
        comm: &C,
        m: Matrix<T>,
        root: usize,
    ) -> Result<Option<Vec<Matrix<T>>>, CommError> {
        if self.f32_wire {
            let parts = self.gather_payload(comm, m.cast::<f32>(), root)?;
            Ok(parts.map(|ps| ps.iter().map(Matrix::cast).collect()))
        } else {
            self.gather_payload(comm, m, root)
        }
    }

    /// Every rank's matrix, in rank order, on every rank: a gather at rank
    /// 0, then a broadcast of the gathered wire copies.
    pub(crate) fn allgather<C: Communicator, T: Scalar>(
        &self,
        comm: &C,
        m: Matrix<T>,
    ) -> Result<Vec<Matrix<T>>, CommError> {
        if self.f32_wire {
            let parts = self.gather_payload(comm, m.cast::<f32>(), 0)?;
            Ok(self.bcast(comm, parts, 0)?.iter().map(Matrix::cast).collect())
        } else {
            let parts = self.gather_payload(comm, m, 0)?;
            self.bcast(comm, parts, 0)
        }
    }

    /// Broadcast a `(factor matrix, singular values)` pair from `root`.
    /// Every rank, root included, keeps the copy that crossed the wire, so
    /// all ranks hold bit-identical factors.
    pub(crate) fn bcast_factors<C: Communicator, T: Scalar + Payload>(
        &self,
        comm: &C,
        factors: Option<(Matrix<T>, Vec<T>)>,
        root: usize,
    ) -> Result<(Matrix<T>, Vec<T>), CommError> {
        if self.f32_wire {
            let demoted =
                factors.map(|(x, s)| (x.cast::<f32>(), s.iter().map(|v| v.to_f64()).collect()));
            let (x, s): (Matrix<f32>, Vec<f64>) = self.bcast(comm, demoted, root)?;
            Ok((x.cast(), s.into_iter().map(T::from_f64).collect()))
        } else {
            self.bcast(comm, factors, root)
        }
    }

    /// Broadcast a non-matrix payload from `root` over the configured
    /// collective shape.
    pub(crate) fn bcast<C: Communicator, P: Payload + Clone>(
        &self,
        comm: &C,
        value: Option<P>,
        root: usize,
    ) -> Result<P, CommError> {
        if self.tree {
            try_tree_bcast(comm, value, root)
        } else {
            comm.try_bcast(value, root)
        }
    }

    /// Point-to-point send of a matrix plus an unconverted rider (`()`
    /// when there is none).
    pub(crate) fn send<C: Communicator, T: Scalar, X: Payload>(
        &self,
        comm: &C,
        m: Matrix<T>,
        rider: X,
        dest: usize,
        tag: u64,
    ) -> Result<(), CommError> {
        if self.f32_wire {
            comm.try_send((m.cast::<f32>(), rider), dest, tag)
        } else {
            comm.try_send((m, rider), dest, tag)
        }
    }

    /// Receive what [`Exchange::send`] sent.
    pub(crate) fn recv<C: Communicator, T: Scalar, X: Payload>(
        &self,
        comm: &C,
        src: usize,
        tag: u64,
    ) -> Result<(Matrix<T>, X), CommError> {
        if self.f32_wire {
            let (m, rider) = comm.try_recv::<(Matrix<f32>, X)>(src, tag)?;
            Ok((m.cast(), rider))
        } else {
            comm.try_recv(src, tag)
        }
    }

    fn gather_payload<C: Communicator, P: Payload>(
        &self,
        comm: &C,
        value: P,
        root: usize,
    ) -> Result<Option<Vec<P>>, CommError> {
        if self.tree {
            try_tree_gather(comm, value, root)
        } else {
            comm.try_gather(value, root)
        }
    }
}
