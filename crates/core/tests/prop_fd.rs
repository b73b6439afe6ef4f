//! Model-based property test for the descriptor layer.
//!
//! [`FdRegistry`] allocates numbers from per-table free runs and
//! decides last close from per-object counts. The reference model here
//! does neither: it finds the lowest free number by walking the open
//! numbers, and it decides last close by scanning every table. Random
//! sequences of `install`, `install_at` (often past the high-water
//! mark), `dup`, `dup2`, `close`, offset moves, and registry forks
//! across three processes must leave both sides agreeing on every
//! returned number, every last-close decision, and every shared
//! offset, while the index invariants hold after each step: each
//! table's slot vector is exactly as long as its high-water mark, and
//! a slot is filled exactly when the model has that number open.
//! Targets at or past [`MAX_FDS`] must fail with `EBADF` and change
//! nothing.

use std::collections::BTreeMap;

use iolite_buf::Fnv64;
use iolite_core::fd::{DescId, FdRegistry, Released, MAX_FDS};
use iolite_core::{ConnId, CostModel, Fd, FdObject, IolError, Kernel, Pid, PipeId};
use iolite_fs::FileId;
use iolite_net::BufferMode;
use proptest::prelude::*;

/// Objects the generated operations draw from.
const OBJECTS: [FdObject; 7] = [
    FdObject::File(FileId(0)),
    FdObject::File(FileId(1)),
    FdObject::File(FileId(2)),
    FdObject::PipeRead(PipeId(0)),
    FdObject::PipeWrite(PipeId(0)),
    FdObject::Socket(ConnId(0)),
    FdObject::Socket(ConnId(1)),
];

#[derive(Debug, Clone)]
enum Op {
    Install(u8, u8),
    InstallAt(u8, u8, u8),
    Dup(u8, u8),
    Dup2(u8, u8, u8),
    Close(u8, u8),
    Seek(u8, u8, u16),
    Fork,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(p, o)| Op::Install(p, o)),
        (any::<u8>(), any::<u8>()).prop_map(|(p, o)| Op::Install(p, o)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(p, n, o)| Op::InstallAt(p, n, o)),
        (any::<u8>(), any::<u8>()).prop_map(|(p, n)| Op::Dup(p, n)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(p, s, d)| Op::Dup2(p, s, d)),
        (any::<u8>(), any::<u8>()).prop_map(|(p, n)| Op::Close(p, n)),
        (any::<u8>(), any::<u8>()).prop_map(|(p, n)| Op::Close(p, n)),
        (any::<u8>(), any::<u8>(), any::<u16>()).prop_map(|(p, n, pos)| Op::Seek(p, n, pos)),
        Just(Op::Fork),
    ]
}

fn pid(p: u8) -> Pid {
    Pid(1 + u32::from(p % 3))
}

/// A number usually open (or just past the open set).
fn fd(n: u8) -> Fd {
    Fd(u32::from(n % 16))
}

/// A target that often lands past the high-water mark, and now and
/// then past the descriptor limit.
fn far_fd(n: u8) -> Fd {
    match n {
        254 => Fd(MAX_FDS),
        255 => Fd(u32::MAX),
        _ => Fd(u32::from(n % 48)),
    }
}

fn object(o: u8) -> FdObject {
    OBJECTS[usize::from(o) % OBJECTS.len()]
}

/// The reference: descriptions are never reused, allocation walks the
/// open numbers, and last close scans every table.
#[derive(Debug, Clone, Default)]
struct Model {
    tables: BTreeMap<Pid, BTreeMap<Fd, usize>>,
    descs: Vec<(FdObject, u64)>,
}

impl Model {
    fn lowest_free(&self, pid: Pid) -> Fd {
        let mut n = 0;
        for fd in self.tables.get(&pid).into_iter().flat_map(|t| t.keys()) {
            if fd.0 != n {
                break;
            }
            n += 1;
        }
        Fd(n)
    }

    fn refs(&self, object: FdObject) -> u32 {
        let n = self
            .tables
            .values()
            .flat_map(|t| t.values())
            .filter(|&&d| self.descs[d].0 == object)
            .count();
        u32::try_from(n).unwrap()
    }

    fn release(&self, displaced: Option<usize>) -> Option<Released> {
        displaced.map(|d| {
            let object = self.descs[d].0;
            Released {
                object,
                last: self.refs(object) == 0,
            }
        })
    }

    fn put(&mut self, pid: Pid, fd: Fd, desc: usize) -> Option<Released> {
        let displaced = self.tables.entry(pid).or_default().insert(fd, desc);
        self.release(displaced)
    }

    fn new_desc(&mut self, object: FdObject) -> usize {
        self.descs.push((object, 0));
        self.descs.len() - 1
    }

    fn install(&mut self, pid: Pid, object: FdObject) -> Fd {
        let fd = self.lowest_free(pid);
        let desc = self.new_desc(object);
        self.put(pid, fd, desc);
        fd
    }

    fn install_at(
        &mut self,
        pid: Pid,
        at: Fd,
        object: FdObject,
    ) -> Result<Option<Released>, IolError> {
        if at.0 >= MAX_FDS {
            return Err(IolError::FdOutOfRange { fd: at });
        }
        let desc = self.new_desc(object);
        Ok(self.put(pid, at, desc))
    }

    fn get(&self, pid: Pid, fd: Fd) -> Option<usize> {
        self.tables.get(&pid)?.get(&fd).copied()
    }

    fn dup(&mut self, pid: Pid, fd: Fd) -> Option<Fd> {
        let desc = self.get(pid, fd)?;
        let new = self.lowest_free(pid);
        self.put(pid, new, desc);
        Some(new)
    }

    fn dup2(&mut self, pid: Pid, src: Fd, dst: Fd) -> Result<Option<Released>, IolError> {
        let desc = self.get(pid, src).ok_or(IolError::NotOpen { fd: src })?;
        if src == dst {
            return Ok(None);
        }
        if dst.0 >= MAX_FDS {
            return Err(IolError::FdOutOfRange { fd: dst });
        }
        Ok(self.put(pid, dst, desc))
    }

    fn close(&mut self, pid: Pid, fd: Fd) -> Option<Released> {
        let desc = self.tables.get_mut(&pid)?.remove(&fd)?;
        self.release(Some(desc))
    }
}

fn digest(reg: &FdRegistry) -> u64 {
    let mut h = Fnv64::new();
    reg.digest(&mut h);
    h.finish()
}

/// Applies one op to both sides and checks they answer alike.
fn step(reg: &mut FdRegistry, model: &mut Model, op: &Op) {
    match *op {
        Op::Install(p, o) => {
            assert_eq!(
                reg.install(pid(p), object(o)),
                model.install(pid(p), object(o))
            );
        }
        Op::InstallAt(p, n, o) => {
            let (pid, at, object) = (pid(p), far_fd(n), object(o));
            assert_eq!(
                reg.install_at(pid, at, object),
                model.install_at(pid, at, object)
            );
        }
        Op::Dup(p, n) => assert_eq!(reg.dup(pid(p), fd(n)), model.dup(pid(p), fd(n))),
        Op::Dup2(p, s, d) => {
            let (pid, src, dst) = (pid(p), fd(s), far_fd(d));
            assert_eq!(reg.dup2(pid, src, dst), model.dup2(pid, src, dst));
        }
        Op::Close(p, n) => assert_eq!(reg.close(pid(p), fd(n)), model.close(pid(p), fd(n))),
        Op::Seek(p, n, pos) => {
            let (pid, fd) = (pid(p), fd(n));
            assert_eq!(reg.get(pid, fd).is_some(), model.get(pid, fd).is_some());
            if let (Some(desc), Some(d)) = (reg.get(pid, fd), model.get(pid, fd)) {
                reg.file_mut(desc).pos = u64::from(pos);
                model.descs[d].1 = u64::from(pos);
            }
        }
        Op::Fork => {
            let forked = reg.clone();
            assert_eq!(
                digest(&forked),
                digest(reg),
                "a fork digests like its parent"
            );
            *reg = forked;
        }
    }
}

/// The two sides hold the same descriptors, objects and offsets, with
/// the same sharing, and the registry's indexes are consistent.
fn check(reg: &FdRegistry, model: &Model) {
    // Model description → registry description, and back: sharing is
    // the same partition on both sides.
    let mut fwd: BTreeMap<usize, DescId> = BTreeMap::new();
    let mut back: BTreeMap<DescId, usize> = BTreeMap::new();
    for p in 0..3 {
        let pid = pid(p);
        let empty = BTreeMap::new();
        let expected = model.tables.get(&pid).unwrap_or(&empty);
        let Some(table) = reg.table(pid) else {
            assert!(
                expected.is_empty(),
                "{pid:?} has descriptors only in the model"
            );
            continue;
        };
        let open: Vec<Fd> = table.iter().map(|(fd, _)| fd).collect();
        let want: Vec<Fd> = expected.keys().copied().collect();
        assert_eq!(open, want, "{pid:?} open numbers");
        for (fd, desc) in table.iter() {
            let d = expected[&fd];
            let file = reg.file(desc);
            assert_eq!((file.object, file.pos), model.descs[d], "{pid:?} {fd:?}");
            assert_eq!(*fwd.entry(d).or_insert(desc), desc, "split description");
            assert_eq!(*back.entry(desc).or_insert(d), d, "merged descriptions");
        }
        // Index invariant: every number below the mark is open or free,
        // and the mark sits just past the highest open number.
        assert_eq!(table.len() as u64 + table.free_count(), table.high_water());
        let top = open.last().map_or(0, |fd| u64::from(fd.0) + 1);
        assert_eq!(table.high_water(), top);
        // Dense slots: exactly the mark long, filled exactly where the
        // model has a number open.
        assert_eq!(
            table.slots().len() as u64,
            table.high_water(),
            "{pid:?} slot length"
        );
        for (n, slot) in table.slots().iter().enumerate() {
            let fd = Fd(u32::try_from(n).unwrap());
            assert_eq!(
                slot.is_some(),
                expected.contains_key(&fd),
                "{pid:?} slot {n}"
            );
        }
    }
    for object in OBJECTS {
        assert_eq!(
            reg.object_refs(object),
            model.refs(object),
            "{object:?} count"
        );
    }
}

/// Many sockets open at once grow one table to 16k slots; closing
/// them all truncates it back to the stdio triple.
#[test]
fn table_shrinks_to_stdio_after_mass_close() {
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("server");
    let socks: Vec<Fd> = (0..16_384)
        .map(|_| k.socket_create(pid, BufferMode::ZeroCopy, 1460, 64 * 1024))
        .collect();
    let table = k.fd_table(pid).unwrap();
    assert_eq!(table.len(), 3 + 16_384);
    assert_eq!(table.high_water(), 3 + 16_384);
    for fd in socks {
        k.close_fd(pid, fd).unwrap();
    }
    let table = k.fd_table(pid).unwrap();
    assert_eq!(table.len(), 3);
    assert_eq!(table.high_water(), 3);
    assert_eq!(table.slots().len(), 3);
    assert_eq!(table.free_count(), 0);
}

/// `dup2` onto a number past the limit is `EBADF` and leaves the table
/// as it was: no slot vector sized by the requested number.
#[test]
fn dup2_past_the_limit_is_ebadf_without_growth() {
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("shell");
    let before = k.state_hash();
    for dst in [Fd(MAX_FDS), Fd(u32::MAX)] {
        assert_eq!(
            k.dup2_fd(pid, Fd::STDOUT, dst),
            Err(IolError::FdOutOfRange { fd: dst })
        );
        assert_eq!(
            k.install_fd_at(pid, dst, FdObject::File(FileId(1))),
            Err(IolError::FdOutOfRange { fd: dst })
        );
    }
    let table = k.fd_table(pid).unwrap();
    assert_eq!(
        (table.len(), table.high_water(), table.slots().len()),
        (3, 3, 3)
    );
    assert_eq!(k.state_hash(), before, "a refused dup2 changes nothing");
    assert!(
        k.dup2_fd(pid, Fd::STDOUT, Fd(MAX_FDS - 1)).is_ok(),
        "the last number is usable"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The indexed registry behaves exactly like the walking/scanning
    /// reference, and equal histories digest equal.
    #[test]
    fn prop_fd_registry_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut reg = FdRegistry::new();
        let mut twin = FdRegistry::new();
        let mut model = Model::default();
        let mut twin_model = Model::default();
        for op in &ops {
            step(&mut reg, &mut model, op);
            step(&mut twin, &mut twin_model, op);
            check(&reg, &model);
            prop_assert_eq!(digest(&reg), digest(&twin), "equal histories, equal digests");
        }
    }
}
