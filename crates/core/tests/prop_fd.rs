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
//! offset, while the index invariants hold after each step.

use std::collections::BTreeMap;

use iolite_buf::Fnv64;
use iolite_core::fd::{DescId, FdRegistry, Released};
use iolite_core::{ConnId, Fd, FdObject, Pid, PipeId};
use iolite_fs::FileId;
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

/// A target that often lands past the high-water mark.
fn far_fd(n: u8) -> Fd {
    Fd(u32::from(n % 48))
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

    fn install_at(&mut self, pid: Pid, at: Fd, object: FdObject) -> Option<Released> {
        let desc = self.new_desc(object);
        self.put(pid, at, desc)
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

    fn dup2(&mut self, pid: Pid, src: Fd, dst: Fd) -> Option<Option<Released>> {
        let desc = self.get(pid, src)?;
        if src == dst {
            return Some(None);
        }
        Some(self.put(pid, dst, desc))
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
    }
    for object in OBJECTS {
        assert_eq!(
            reg.object_refs(object),
            model.refs(object),
            "{object:?} count"
        );
    }
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
