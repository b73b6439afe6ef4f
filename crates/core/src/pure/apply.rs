//! The transition functions: [`step`] (in-place), [`apply`] (value
//! semantics), and [`replay`] (journal → final state + metrics).

use std::fmt;

use iolite_buf::{Aggregate, BufferPool};
use iolite_fs::FileId;

use super::command::{Command, Journal};
use super::effect::Effect;
use super::ids::PipeId;
use super::state::KernelState;
use crate::error::IolError;
use crate::fd::Fd;
use crate::metrics::Metrics;
use crate::poll::Readiness;
use crate::process::Pid;

/// The coarse result of [`step`]ping one command.
///
/// Rich return values (mmap views, TCP segment chains, send outcomes)
/// are the imperative shell's business — it calls the typed `op_*`
/// methods directly. `Reply` exists so the dispatcher is total and
/// replay/property tests can sanity-check outcomes without a
/// per-command return type.
pub enum Reply {
    /// Nothing beyond the state transition.
    Unit,
    /// A spawned process id.
    Pid(Pid),
    /// A created file.
    File(FileId),
    /// A descriptor.
    Fd(Fd),
    /// Two descriptors (`pipe(2)`-style pairs).
    FdPair(Fd, Fd),
    /// A created pipe.
    Pipe(PipeId),
    /// A created allocation pool (returned to the caller, not state).
    Pool(BufferPool),
    /// A byte count / offset / page count.
    Len(u64),
    /// A small cardinality (evicted entries).
    Count(usize),
    /// A boolean outcome (eviction happened, file was mapped).
    Flag(bool),
    /// A path lookup result.
    Lookup(Option<FileId>),
    /// Zero-copy payload.
    Data(Aggregate),
    /// Optional zero-copy payload (pipe reads).
    MaybeData(Option<Aggregate>),
    /// Copied-out payload.
    Bytes(Vec<u8>),
    /// Per-descriptor readiness.
    Poll(Vec<Readiness>),
}

impl fmt::Debug for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reply::Unit => write!(f, "Unit"),
            Reply::Pid(p) => write!(f, "Pid({})", p.0),
            Reply::File(id) => write!(f, "File({})", id.0),
            Reply::Fd(fd) => write!(f, "Fd({})", fd.0),
            Reply::FdPair(a, b) => write!(f, "FdPair({}, {})", a.0, b.0),
            Reply::Pipe(id) => write!(f, "Pipe({})", id.0),
            Reply::Pool(_) => write!(f, "Pool"),
            Reply::Len(n) => write!(f, "Len({n})"),
            Reply::Count(n) => write!(f, "Count({n})"),
            Reply::Flag(b) => write!(f, "Flag({b})"),
            Reply::Lookup(id) => write!(f, "Lookup({:?})", id.map(|i| i.0)),
            Reply::Data(a) => write!(f, "Data(len={})", a.len()),
            Reply::MaybeData(a) => write!(f, "MaybeData(len={:?})", a.as_ref().map(|a| a.len())),
            Reply::Bytes(b) => write!(f, "Bytes(len={})", b.len()),
            Reply::Poll(r) => write!(f, "Poll(n={})", r.len()),
        }
    }
}

/// Applies one command to `state` in place, appending the resulting
/// effects to `fx`. This is the engine under both the imperative shell
/// and [`replay`]: deterministic, no I/O, no wall clock, no randomness.
///
/// # Errors
///
/// Whatever the underlying operation rejects with. Note that a
/// rejected command may still have mutated state before the rejection
/// (a failed `open` warms the metadata cache; an ACL-denied pipe read
/// has already trapped) — replay therefore re-steps *every* journaled
/// command, errors included.
pub fn step(state: &mut KernelState, cmd: &Command, fx: &mut Vec<Effect>) -> Result<Reply, IolError> {
    match cmd {
        Command::Spawn { name } => Ok(Reply::Pid(state.op_spawn(name.clone(), fx))),
        Command::CreatePool { acl } => Ok(Reply::Pool(state.op_create_pool(acl.clone()))),
        Command::Advance { t } => {
            state.op_advance(*t);
            Ok(Reply::Unit)
        }
        Command::ResetClock => {
            state.op_reset_clock();
            Ok(Reply::Unit)
        }
        Command::Charge { category, charge } => {
            state.op_charge(*category, *charge, fx);
            Ok(Reply::Unit)
        }
        Command::ContextSwitch { n } => {
            state.op_context_switch(*n, fx);
            Ok(Reply::Unit)
        }
        Command::CreateFile { name, data } => Ok(Reply::File(state.op_create_file(name, data))),
        Command::CreateSyntheticFile { name, len, seed } => {
            Ok(Reply::File(state.op_create_synthetic_file(name, *len, *seed)))
        }
        Command::Lookup { name } => Ok(Reply::Lookup(state.op_lookup(name, fx).0)),
        Command::RebalanceCache => Ok(Reply::Count(state.op_rebalance_cache())),
        Command::VmPressure { other_pages } => {
            Ok(Reply::Flag(state.op_vm_pressure(*other_pages, fx)))
        }
        Command::ReadFileAt { pid, file, offset, len } => {
            Ok(Reply::Data(state.op_read_file_at(*pid, *file, *offset, *len, fx).0))
        }
        Command::WriteFileAt { pid, file, offset, agg } => {
            state.op_write_file_at(*pid, *file, *offset, agg, fx);
            Ok(Reply::Unit)
        }
        Command::PosixFileRead { pid, file, offset, len } => {
            Ok(Reply::Bytes(state.op_posix_file_read(*pid, *file, *offset, *len, fx).0))
        }
        Command::PosixFileWrite { pid, file, offset, data } => {
            state.op_posix_file_write(*pid, *file, *offset, data, fx);
            Ok(Reply::Unit)
        }
        Command::FileMmap { pid, file } => {
            state.op_file_mmap(*pid, *file, fx);
            Ok(Reply::Unit)
        }
        Command::CachePin { key } => {
            state.op_cache_pin(*key);
            Ok(Reply::Unit)
        }
        Command::CacheUnpin { key } => {
            state.op_cache_unpin(*key);
            Ok(Reply::Unit)
        }
        Command::CacheInstall { file, data } => {
            state.op_cache_install(*file, data, fx);
            Ok(Reply::Unit)
        }
        Command::CacheInvalidate { key } => {
            state.op_cache_invalidate(*key);
            Ok(Reply::Unit)
        }
        Command::PutInstall { pid, file, agg } => {
            state.op_put_install(*pid, *file, agg, fx);
            Ok(Reply::Len(agg.len()))
        }
        Command::WriteBack { max_bytes } => Ok(Reply::Len(state.op_write_back(*max_bytes, fx))),
        Command::NvmDemote { max_bytes } => Ok(Reply::Len(state.op_nvm_demote(*max_bytes, fx))),
        Command::SetWriteback { cfg } => {
            state.op_set_writeback(*cfg);
            Ok(Reply::Unit)
        }
        Command::MappedFileTouch { file } => Ok(Reply::Flag(state.op_mapped_file_touch(*file))),
        Command::MemReserve { account, bytes } => {
            state.op_mem_reserve(*account, *bytes);
            Ok(Reply::Unit)
        }
        Command::MemRelease { account, bytes } => {
            state.op_mem_release(*account, *bytes);
            Ok(Reply::Unit)
        }
        Command::TransferTo { agg, domain } => {
            Ok(Reply::Len(state.op_transfer_to(agg, *domain, fx)))
        }
        Command::TransferWithAcl { agg, domain, acl } => state
            .op_transfer_with_acl(agg, *domain, acl, fx)
            .map(Reply::Len)
            .map_err(|denied| IolError::PermissionDenied {
                domain: denied.domain,
            }),
        Command::PipeCreate { mode, acl } => {
            Ok(Reply::Pipe(state.op_pipe_create(*mode, acl.clone(), fx)))
        }
        Command::PipeWrite { pid, pipe, agg } => {
            Ok(Reply::Len(state.op_pipe_write(*pid, *pipe, agg, fx).0))
        }
        Command::PipeRead { pid, pipe, max } => state
            .op_pipe_read(*pid, *pipe, *max, fx)
            .map(|(got, _)| Reply::MaybeData(got)),
        Command::PipeClose { pipe } => {
            state.op_pipe_close(*pipe);
            Ok(Reply::Unit)
        }
        Command::SocketCreate { pid, mode, mss, tss } => {
            Ok(Reply::Fd(state.op_socket_create(*pid, *mode, *mss, *tss)))
        }
        Command::SocketDeliver { pid, fd, payload } => state
            .op_socket_deliver(*pid, *fd, payload.clone())
            .map(|(len, _)| Reply::Len(len)),
        Command::SocketSendAccounted { pid, fd, len } => state
            .op_socket_send_accounted(*pid, *fd, *len, fx)
            .map(|_| Reply::Unit),
        Command::SocketTransmitSegments { pid, fd, payload } => state
            .op_socket_transmit_segments(*pid, *fd, payload)
            .map(|_| Reply::Unit),
        Command::SetNonblocking { pid, fd, nonblocking } => state
            .op_set_nonblocking(*pid, *fd, *nonblocking)
            .map(|()| Reply::Unit),
        Command::SocketDrain { pid, fd, max } => {
            state.op_socket_drain(*pid, *fd, *max).map(Reply::Len)
        }
        Command::SocketPeerClose { pid, fd } => {
            state.op_socket_peer_close(*pid, *fd).map(|()| Reply::Unit)
        }
        Command::SetChecksumCache { enabled } => {
            state.op_set_checksum_cache(*enabled);
            Ok(Reply::Unit)
        }
        Command::Open { pid, path } => state.op_open(*pid, path, fx).map(|(fd, _)| Reply::Fd(fd)),
        Command::OpenFile { pid, file } => Ok(Reply::Fd(state.op_open_file(*pid, *file))),
        Command::PipeFds { pid, mode } => {
            let (r, w) = state.op_pipe_fds(*pid, *mode, fx);
            Ok(Reply::FdPair(r, w))
        }
        Command::PipeBetween { writer, reader, mode, acl } => {
            let (w, r) = state.op_pipe_between(*writer, *reader, *mode, acl.clone(), fx);
            Ok(Reply::FdPair(w, r))
        }
        Command::InstallFd { pid, object } => Ok(Reply::Fd(state.op_install_fd(*pid, *object))),
        Command::InstallFdAt { pid, at, object } => {
            state.op_install_fd_at(*pid, *at, *object).map(Reply::Fd)
        }
        Command::DupFd { pid, fd } => state.op_dup_fd(*pid, *fd).map(Reply::Fd),
        Command::Dup2Fd { pid, src, dst } => state.op_dup2_fd(*pid, *src, *dst).map(Reply::Fd),
        Command::CloseFd { pid, fd } => state.op_close_fd(*pid, *fd).map(|()| Reply::Unit),
        Command::Lseek { pid, fd, offset, whence } => state
            .op_lseek(*pid, *fd, *offset, *whence, fx)
            .map(|(pos, _)| Reply::Len(pos)),
        Command::Poll { pid, fds } => state
            .op_iol_poll(*pid, fds, fx)
            .map(|(events, _)| Reply::Poll(events)),
        Command::IolReadFd { pid, fd, len } => state
            .op_iol_read_fd(*pid, *fd, *len, fx)
            .map(|(agg, _)| Reply::Data(agg)),
        Command::IolWriteFd { pid, fd, agg } => state
            .op_iol_write_fd(*pid, *fd, agg, fx)
            .map(|(n, _)| Reply::Len(n)),
        Command::IolPread { pid, fd, offset, len } => state
            .op_iol_pread(*pid, *fd, *offset, *len, fx)
            .map(|(agg, _)| Reply::Data(agg)),
        Command::IolPwrite { pid, fd, offset, agg } => state
            .op_iol_pwrite(*pid, *fd, *offset, agg, fx)
            .map(|(n, _)| Reply::Len(n)),
        Command::PosixReadFd { pid, fd, len } => state
            .op_posix_read_fd(*pid, *fd, *len, fx)
            .map(|(bytes, _)| Reply::Bytes(bytes)),
        Command::PosixWriteFd { pid, fd, data } => state
            .op_posix_write_fd(*pid, *fd, data, fx)
            .map(|(n, _)| Reply::Len(n)),
        Command::MmapFd { pid, fd } => state.op_mmap_fd(*pid, *fd, fx).map(|_| Reply::Unit),
        Command::FeedStdin { pid, data } => state
            .op_feed_stdin(*pid, data, fx)
            .map(|(n, _)| Reply::Len(n)),
        Command::ReadStdout { pid, max } => state
            .op_read_stdout(*pid, *max, fx)
            .map(|(agg, _)| Reply::Data(agg)),
        Command::ReadStderr { pid, max } => state
            .op_read_stderr(*pid, *max, fx)
            .map(|(agg, _)| Reply::Data(agg)),
    }
}

/// Pure value-semantics application: snapshots `state`, steps the
/// command, and returns the successor state plus its effects.
///
/// Partial progress (`ShortIo`, `WouldBlock`) still produces a
/// successor — those are successful transitions that also report why
/// the caller stopped early. Hard rejections return the error and
/// **discard** the snapshot, including any pre-rejection mutations the
/// command made (warmed caches, trap accounting); callers who need
/// those exact semantics journal through the shell and [`replay`],
/// which re-steps rejected commands too.
///
/// # Errors
///
/// Whatever [`step`] rejects with, minus the partial-progress cases.
pub fn apply(state: &KernelState, cmd: &Command) -> Result<(KernelState, Vec<Effect>), IolError> {
    let mut next = state.snapshot();
    let mut fx = Vec::new();
    match step(&mut next, cmd, &mut fx) {
        Ok(_) | Err(IolError::ShortIo { .. }) | Err(IolError::WouldBlock { .. }) => Ok((next, fx)),
        Err(e) => Err(e),
    }
}

/// Replays a recorded journal against an initial state, folding every
/// command through [`step`] (errors included — the journal records
/// attempts, and attempts mutate) and absorbing effects into a fresh
/// [`Metrics`]. Returns the final state and the reconstructed metrics.
///
/// Starting from the same initial state a live run started from (same
/// cost model and policy, before any command), the returned state
/// digests to the live run's [`KernelState::state_hash`] and the
/// metrics match its shell's — that equivalence is the point.
pub fn replay(initial: KernelState, journal: &Journal) -> (KernelState, Metrics) {
    let mut state = initial;
    let mut metrics = Metrics::new();
    let mut fx = Vec::new();
    for cmd in journal.commands() {
        fx.clear();
        let _ = step(&mut state, cmd, &mut fx);
        for e in &fx {
            metrics.absorb(e);
        }
    }
    (state, metrics)
}
