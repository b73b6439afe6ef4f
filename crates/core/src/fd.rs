//! File descriptors: the §3.4 contract that `IOL_read`/`IOL_write`
//! "can act on any UNIX file descriptor".
//!
//! Descriptors resolve to open-file descriptions with UNIX semantics:
//! `dup`ed descriptors share one file offset (one description, two
//! numbers), independently `open`ed descriptors do not. Files, pipe
//! ends, **and sockets** all sit behind the same table, so one code
//! path serves the paper's "all other file-descriptor-related UNIX
//! system calls remain unchanged".
//!
//! Descriptor numbers follow POSIX: allocation always takes the lowest
//! free number, `dup2`-style [`FdRegistry::install_at`] targets an
//! exact number, and the conventional stdio triple occupies 0/1/2
//! (installed by `Kernel::spawn`).
//!
//! No operation walks a table or the registry. Resolving a descriptor
//! is a direct index: each [`FdTable`] is a dense slot vector, one
//! entry per number up to its high-water mark, pointing at a [`DescId`]
//! in the [`FdRegistry`]'s arena of open-file descriptions. The table
//! also keeps its free numbers below the mark as an ordered set of
//! runs, so the lowest free number is found in O(log n). The registry
//! counts the descriptors naming each [`FdObject`] (in a seedless
//! [`IdMap`]), so a close knows in O(1) whether it was the object's
//! last. Numbers are bounded by [`MAX_FDS`]: a `dup2`/`install_at`
//! target at or past it is refused with `EBADF` rather than sizing a
//! slot vector by an arbitrary number.

use std::collections::BTreeMap;

use iolite_buf::IdMap;
use iolite_fs::FileId;

use crate::error::IolError;
use crate::kernel::{ConnId, PipeId};
use crate::process::Pid;

/// A per-process file-descriptor number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd(pub u32);

impl Fd {
    /// Standard input (installed at `spawn`).
    pub const STDIN: Fd = Fd(0);
    /// Standard output (installed at `spawn`).
    pub const STDOUT: Fd = Fd(1);
    /// Standard error (installed at `spawn`).
    pub const STDERR: Fd = Fd(2);
}

/// Where an `lseek` offset is measured from (`SEEK_SET`/`SEEK_CUR`/
/// `SEEK_END`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// From the start of the file.
    Set,
    /// From the current offset.
    Cur,
    /// From end-of-file, resolved against the file's metadata.
    End,
}

/// What an open-file description refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FdObject {
    /// A regular file with a seek position.
    File(FileId),
    /// The read end of a pipe.
    PipeRead(PipeId),
    /// The write end of a pipe.
    PipeWrite(PipeId),
    /// A TCP socket in the kernel's connection registry.
    Socket(ConnId),
}

/// An open-file description (shared by `dup`ed descriptors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenFile {
    /// The underlying object.
    pub object: FdObject,
    /// Current file offset (files only; pipes and sockets ignore it).
    pub pos: u64,
}

/// Names an open-file description in the [`FdRegistry`] arena.
///
/// Ids are handed out by the registry itself (the most recently
/// vacated slot first, else the next fresh one), so two registries
/// built by the same operations assign the same ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DescId(pub u32);

/// What closing (or displacing) one descriptor number released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Released {
    /// The object the number referred to.
    pub object: FdObject,
    /// Whether that was the last descriptor, in any process, naming
    /// `object` (drives pipe EOF/EPIPE and socket teardown).
    pub last: bool,
}

/// One past the highest descriptor number a table accepts: Linux's
/// default `nr_open` (2²⁰). `install_at`/`dup2` at or past it fail with
/// [`IolError::FdOutOfRange`] (`EBADF`, as POSIX `dup2` for a `newfd`
/// past `OPEN_MAX`), so no call can make a table allocate memory in
/// proportion to an arbitrary number. Lowest-free allocation reaching it
/// means a million descriptors are open at once, and panics.
pub const MAX_FDS: u32 = 1 << 20;

/// One process's descriptor table.
///
/// `slots[n]` is the description behind number `n`, so resolving a
/// descriptor is one index. The vector is exactly as long as the
/// high-water mark (one past the highest open number): it grows when a
/// number past the mark is taken and is truncated when the top number
/// closes. Every number below the mark is either open or in `free`,
/// which holds the free numbers as disjoint half-open runs
/// `start → end`, so allocation never walks the slots.
#[derive(Debug, Clone, Default)]
pub struct FdTable {
    slots: Vec<Option<DescId>>,
    free: BTreeMap<u64, u64>,
    open: usize,
}

impl FdTable {
    /// The lowest descriptor number not currently in use (POSIX
    /// allocation order).
    fn lowest_free(&self) -> Fd {
        let n = self
            .free
            .first_key_value()
            .map_or(self.high_water(), |(&start, _)| start);
        assert!(
            n < u64::from(MAX_FDS),
            "descriptor table full ({MAX_FDS} open)"
        );
        Fd(n as u32)
    }

    /// Points `fd` (below [`MAX_FDS`]) at `desc`, returning the
    /// description it displaced.
    fn insert(&mut self, fd: Fd, desc: DescId) -> Option<DescId> {
        let n = fd.0 as usize;
        if n >= self.slots.len() {
            if n > self.slots.len() {
                self.free.insert(self.high_water(), n as u64);
            }
            self.slots.resize(n + 1, None);
        } else if self.slots[n].is_none() {
            self.take(n as u64);
        }
        let displaced = self.slots[n].replace(desc);
        if displaced.is_none() {
            self.open += 1;
        }
        displaced
    }

    /// Unmaps `fd`, returning its description.
    fn remove(&mut self, fd: Fd) -> Option<DescId> {
        let desc = self.slots.get_mut(fd.0 as usize)?.take()?;
        self.open -= 1;
        self.release(u64::from(fd.0));
        Some(desc)
    }

    /// Marks the free number `n`, below the mark, used.
    fn take(&mut self, n: u64) {
        let (&start, &end) = self
            .free
            .range(..=n)
            .next_back()
            .expect("a free number below the mark lies in a free run");
        self.free.remove(&start);
        if start < n {
            self.free.insert(start, n);
        }
        if n + 1 < end {
            self.free.insert(n + 1, end);
        }
    }

    /// Marks the open number `n` free, merging it with its neighbour
    /// runs; a run reaching the mark lowers the mark instead.
    fn release(&mut self, n: u64) {
        let mut start = n;
        let end = self.free.remove(&(n + 1)).unwrap_or(n + 1);
        if let Some((&s, &e)) = self.free.range(..n).next_back() {
            if e == n {
                self.free.remove(&s);
                start = s;
            }
        }
        if end == self.high_water() {
            self.slots.truncate(start as usize);
        } else {
            self.free.insert(start, end);
        }
    }

    /// Resolves a descriptor to its description.
    pub fn get(&self, fd: Fd) -> Option<DescId> {
        self.slots.get(fd.0 as usize).copied().flatten()
    }

    /// Open descriptors.
    pub fn len(&self) -> usize {
        self.open
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.open == 0
    }

    /// One past the highest open number (0 when empty).
    pub fn high_water(&self) -> u64 {
        self.slots.len() as u64
    }

    /// The slot vector: entry `n` is the description behind number `n`.
    /// Always exactly [`FdTable::high_water`] long.
    pub fn slots(&self) -> &[Option<DescId>] {
        &self.slots
    }

    /// Free numbers below [`FdTable::high_water`]; with
    /// [`FdTable::len`] they always add up to the mark.
    pub fn free_count(&self) -> u64 {
        self.free.iter().map(|(start, end)| end - start).sum()
    }

    /// Iterates the open descriptors and their descriptions in number
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (Fd, DescId)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(n, desc)| desc.map(|d| (Fd(n as u32), d)))
    }
}

/// An arena slot: a description plus the descriptor numbers naming it
/// (0 = vacant).
#[derive(Debug, Clone)]
struct Desc {
    file: OpenFile,
    refs: u32,
}

/// Kernel-wide registry: per-process tables, the open-file description
/// arena, and per-object descriptor counts.
///
/// The registry is a plain value, so forking it for a kernel-state
/// snapshot is a clone: description ids are indices, not pointers, and
/// `dup`ed descriptors (possibly in different processes) keep sharing
/// one offset in the fork.
#[derive(Debug, Clone, Default)]
pub struct FdRegistry {
    tables: BTreeMap<Pid, FdTable>,
    descs: Vec<Desc>,
    /// Vacated arena slots, reused before the arena grows.
    vacant: Vec<DescId>,
    /// Descriptor numbers naming each object, across every table.
    refs: IdMap<FdObject, u32>,
}

impl FdRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        FdRegistry::default()
    }

    /// Read-only access to `pid`'s table, if it exists.
    pub fn table(&self, pid: Pid) -> Option<&FdTable> {
        self.tables.get(&pid)
    }

    /// Resolves `pid`'s descriptor to its description id.
    pub fn get(&self, pid: Pid, fd: Fd) -> Option<DescId> {
        self.tables.get(&pid)?.get(fd)
    }

    /// Resolves `pid`'s descriptor to its object.
    pub fn object(&self, pid: Pid, fd: Fd) -> Option<FdObject> {
        self.get(pid, fd).map(|desc| self.file(desc).object)
    }

    /// The description behind a live id.
    ///
    /// # Panics
    ///
    /// Panics on ids that were never allocated.
    pub fn file(&self, desc: DescId) -> &OpenFile {
        &self.descs[desc.0 as usize].file
    }

    /// Mutable access to a live description (its shared offset).
    ///
    /// # Panics
    ///
    /// As [`FdRegistry::file`].
    pub fn file_mut(&mut self, desc: DescId) -> &mut OpenFile {
        &mut self.descs[desc.0 as usize].file
    }

    /// Descriptors, across every process, naming `object`.
    pub fn object_refs(&self, object: FdObject) -> u32 {
        self.refs.get(&object).copied().unwrap_or(0)
    }

    /// Installs a new open-file description at the lowest free number
    /// of `pid`'s table (created on first use), returning its
    /// descriptor. Closed numbers are reused, per POSIX.
    pub fn install(&mut self, pid: Pid, object: FdObject) -> Fd {
        let desc = self.alloc(object);
        let fd = self.tables.entry(pid).or_default().lowest_free();
        self.link(pid, fd, desc);
        fd
    }

    /// Installs a *new* description for `object` at exactly `at`
    /// (`dup2`-style targeting), silently replacing whatever was there.
    /// Returns what the displaced descriptor released, if any.
    ///
    /// # Errors
    ///
    /// [`IolError::FdOutOfRange`] when `at` is at or past [`MAX_FDS`];
    /// nothing changes.
    pub fn install_at(
        &mut self,
        pid: Pid,
        at: Fd,
        object: FdObject,
    ) -> Result<Option<Released>, IolError> {
        in_range(at)?;
        let desc = self.alloc(object);
        Ok(self.link(pid, at, desc))
    }

    /// Duplicates `fd` onto the lowest free number: the new descriptor
    /// shares the same open-file description (and therefore the same
    /// offset), as POSIX `dup`.
    pub fn dup(&mut self, pid: Pid, fd: Fd) -> Option<Fd> {
        let table = self.tables.get(&pid)?;
        let desc = table.get(fd)?;
        let new = table.lowest_free();
        self.link(pid, new, desc);
        Some(new)
    }

    /// Duplicates `src` onto exactly `dst` (POSIX `dup2`): the two
    /// numbers share one description afterwards. Returns what the
    /// displaced descriptor at `dst` released, if any (`None` also
    /// when `src == dst`, which is a no-op per POSIX).
    ///
    /// # Errors
    ///
    /// [`IolError::NotOpen`] when `src` is not open, and
    /// [`IolError::FdOutOfRange`] when `dst` is at or past [`MAX_FDS`];
    /// nothing changes either way.
    pub fn dup2(&mut self, pid: Pid, src: Fd, dst: Fd) -> Result<Option<Released>, IolError> {
        let desc = self.get(pid, src).ok_or(IolError::NotOpen { fd: src })?;
        if src == dst {
            return Ok(None);
        }
        in_range(dst)?;
        Ok(self.link(pid, dst, desc))
    }

    /// Closes a descriptor; the description dies with its last number.
    /// Returns what the close released, so the kernel can apply
    /// last-reference semantics (pipe EOF, socket teardown).
    pub fn close(&mut self, pid: Pid, fd: Fd) -> Option<Released> {
        let desc = self.tables.get_mut(&pid)?.remove(fd)?;
        Some(self.unref(desc))
    }

    /// A fresh description with no descriptors yet.
    fn alloc(&mut self, object: FdObject) -> DescId {
        let slot = Desc {
            file: OpenFile { object, pos: 0 },
            refs: 0,
        };
        if let Some(desc) = self.vacant.pop() {
            self.descs[desc.0 as usize] = slot;
            return desc;
        }
        let desc = DescId(u32::try_from(self.descs.len()).expect("description ids exhausted"));
        self.descs.push(slot);
        desc
    }

    /// Points `pid`'s `fd` at `desc` and releases whatever it displaced.
    /// The new reference is counted first, so re-pointing a number at
    /// an object (or description) it already named is never a last
    /// close.
    fn link(&mut self, pid: Pid, fd: Fd, desc: DescId) -> Option<Released> {
        let slot = &mut self.descs[desc.0 as usize];
        slot.refs += 1;
        *self.refs.entry(slot.file.object).or_insert(0) += 1;
        let displaced = self.tables.entry(pid).or_default().insert(fd, desc)?;
        Some(self.unref(displaced))
    }

    /// Drops one descriptor's reference to `desc`, vacating the slot
    /// and the object's count when they reach zero.
    fn unref(&mut self, desc: DescId) -> Released {
        let slot = &mut self.descs[desc.0 as usize];
        slot.refs -= 1;
        let object = slot.file.object;
        if slot.refs == 0 {
            self.vacant.push(desc);
        }
        let count = self
            .refs
            .get_mut(&object)
            .expect("a referenced object is counted");
        *count -= 1;
        let last = *count == 0;
        if last {
            self.refs.remove(&object);
        }
        Released { object, last }
    }

    /// Folds the registry into a stable digest: every `(pid, fd)` with
    /// its description id, object, and offset. Ids are assigned
    /// deterministically, so equal histories hash equal and sharing is
    /// visible as a repeated id.
    pub fn digest(&self, h: &mut iolite_buf::Fnv64) {
        h.write_usize(self.tables.len());
        for (pid, t) in &self.tables {
            h.write_u32(pid.0);
            h.write_usize(t.len());
            for (fd, desc) in t.iter() {
                h.write_u32(fd.0);
                h.write_u32(desc.0);
                let of = self.file(desc);
                let (tag, id) = match of.object {
                    FdObject::File(f) => (0u64, f.0),
                    FdObject::PipeRead(p) => (1, p.0 as u64),
                    FdObject::PipeWrite(p) => (2, p.0 as u64),
                    FdObject::Socket(c) => (3, c.0),
                };
                h.write_u64(tag);
                h.write_u64(id);
                h.write_u64(of.pos);
            }
        }
    }
}

/// Refuses a targeted descriptor number at or past [`MAX_FDS`].
fn in_range(fd: Fd) -> Result<(), IolError> {
    if fd.0 < MAX_FDS {
        Ok(())
    } else {
        Err(IolError::FdOutOfRange { fd })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: Pid = Pid(1);

    fn file(n: u64) -> FdObject {
        FdObject::File(FileId(n))
    }

    #[test]
    fn descriptors_allocate_lowest_free_per_process() {
        let mut reg = FdRegistry::new();
        let a = reg.install(Pid(1), file(1));
        let b = reg.install(Pid(1), file(2));
        let c = reg.install(Pid(2), file(3));
        assert_eq!(a, Fd(0));
        assert_eq!(b, Fd(1));
        assert_eq!(c, Fd(0), "tables are independent per process");
    }

    #[test]
    fn closed_numbers_are_reused_lowest_first() {
        let mut reg = FdRegistry::new();
        let a = reg.install(P, file(1));
        let b = reg.install(P, file(2));
        let c = reg.install(P, file(3));
        assert_eq!((a, b, c), (Fd(0), Fd(1), Fd(2)));
        reg.close(P, b);
        // POSIX: the lowest free number, not a forever-incrementing one.
        assert_eq!(reg.install(P, file(4)), Fd(1));
        reg.close(P, a);
        reg.close(P, c);
        assert_eq!(reg.install(P, file(5)), Fd(0));
        assert_eq!(reg.install(P, file(6)), Fd(2));
    }

    #[test]
    fn dup_shares_the_offset() {
        let mut reg = FdRegistry::new();
        let fd = reg.install(P, file(1));
        let dup = reg.dup(P, fd).unwrap();
        let desc = reg.get(P, fd).unwrap();
        reg.file_mut(desc).pos = 42;
        assert_eq!(reg.file(reg.get(P, dup).unwrap()).pos, 42);
        // Closing one number keeps the description alive for the other.
        assert_eq!(reg.close(P, fd).map(|r| r.last), Some(false));
        assert_eq!(reg.file(reg.get(P, dup).unwrap()).pos, 42);
        assert!(reg.get(P, fd).is_none());
    }

    #[test]
    fn dup2_targets_an_exact_number_and_shares_state() {
        let mut reg = FdRegistry::new();
        let src = reg.install(P, file(7));
        let displaced = reg.install(P, file(8));
        // dup2 onto an occupied number displaces it.
        let old = reg.dup2(P, src, displaced).unwrap();
        assert_eq!(
            old,
            Some(Released {
                object: file(8),
                last: true
            }),
            "the displaced description is released"
        );
        let desc = reg.get(P, src).unwrap();
        reg.file_mut(desc).pos = 9;
        assert_eq!(reg.file(reg.get(P, displaced).unwrap()).pos, 9);
        // dup2 onto itself is a no-op.
        assert_eq!(reg.dup2(P, src, src), Ok(None));
        // dup2 from a closed source fails.
        assert_eq!(
            reg.dup2(P, Fd(99), Fd(5)),
            Err(IolError::NotOpen { fd: Fd(99) })
        );
    }

    #[test]
    fn independent_opens_do_not_share() {
        let mut reg = FdRegistry::new();
        let a = reg.install(P, file(1));
        let b = reg.install(P, file(1));
        let desc = reg.get(P, a).unwrap();
        reg.file_mut(desc).pos = 10;
        assert_eq!(reg.file(reg.get(P, b).unwrap()).pos, 0);
    }

    #[test]
    fn close_is_idempotent_and_precise() {
        let mut reg = FdRegistry::new();
        let fd = reg.install(P, FdObject::PipeRead(PipeId(1)));
        assert!(reg.close(P, fd).is_some());
        assert!(reg.close(P, fd).is_none());
        assert!(reg.dup(P, fd).is_none());
        assert!(reg.table(P).unwrap().is_empty());
    }

    #[test]
    fn registry_tracks_object_references() {
        let mut reg = FdRegistry::new();
        let obj = FdObject::PipeWrite(PipeId(3));
        assert_eq!(reg.object_refs(obj), 0);
        let fd = reg.install(Pid(1), obj);
        let dup = reg.dup(Pid(1), fd).unwrap();
        let other = reg.install(Pid(2), obj);
        assert_eq!(reg.object_refs(obj), 3);
        assert_eq!(reg.close(Pid(1), fd).map(|r| r.last), Some(false));
        assert_eq!(reg.close(Pid(1), dup).map(|r| r.last), Some(false));
        assert_eq!(reg.object_refs(obj), 1, "other process remains");
        assert_eq!(reg.close(Pid(2), other).map(|r| r.last), Some(true));
        assert_eq!(reg.object_refs(obj), 0);
    }

    #[test]
    fn vacated_description_ids_are_reused() {
        let mut reg = FdRegistry::new();
        let a = reg.install(P, file(1));
        let first = reg.get(P, a).unwrap();
        reg.close(P, a);
        let b = reg.install(P, file(2));
        assert_eq!(reg.get(P, b), Some(first));
    }
}
