//! Machine-speed calibration. The host shares its cores, and its speed
//! moves by 15–40% within minutes as neighbours come and go: a single
//! seed's `get_cold_wide` ran at 11k req/s in one minute and 18k in the
//! next. Raw host times from runs minutes apart then disagree by more
//! than any regression bound.
//!
//! A [`Calibrator`] holds a fixed piece of work that runs no code of the
//! program, in the server's mix: ordered-map walks (descriptor tables),
//! lookups and a full scan of a hash map (checksum cache), and chunk
//! copies across a buffer larger than the caches. The timed window runs
//! a short slice of it every [`SLICE_EVERY_S`], with the window's clock
//! stopped, so the calibration sees the same stretch of machine time as
//! the requests it corrects. Host times are then scaled to a machine on
//! which one slice takes [`REFERENCE_SLICE_S`].

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds one slice takes on the reference machine (about what it
/// took on the 2-vCPU container the benchmark was written on, so scaled
/// figures stay close to raw ones there).
pub const REFERENCE_SLICE_S: f64 = 0.001;

/// Window time between calibration slices.
pub const SLICE_EVERY_S: f64 = 0.05;

/// Bytes per copied chunk.
const CHUNK: usize = 16 << 10;

/// xorshift64 step.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The calibration work's data, built once per sub-run so that no
/// slice allocates or faults pages in. The hash map uses fixed keys, so
/// every build has the same table layout.
pub struct Calibrator {
    fds: BTreeMap<u32, u32>,
    map: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>>,
    src: Vec<u8>,
    dst: Vec<u8>,
    x: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            fds: (0..4_096u32).map(|i| (i, i)).collect(),
            map: (0..16_384u64)
                .map(|i| (i.wrapping_mul(0x2545_f491), i as u32))
                .collect(),
            src: (0..16usize << 20).map(|i| i as u8).collect(),
            dst: vec![0u8; CHUNK],
            x: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl Calibrator {
    /// Runs one fixed slice of the work; returns its host seconds.
    pub fn slice(&mut self) -> f64 {
        let t = Instant::now();
        let mut free = 0u32;
        for _ in 0..16 {
            let mut n = 0u32;
            for k in self.fds.keys() {
                if *k != n {
                    break;
                }
                n += 1;
            }
            free = free.wrapping_add(n);
        }
        black_box(free);
        let mut hits = 0u32;
        for _ in 0..8_192 {
            let k = (next(&mut self.x) % 32_768).wrapping_mul(0x2545_f491);
            hits = hits.wrapping_add(self.map.get(&k).copied().unwrap_or(1));
        }
        hits = hits.wrapping_add(self.map.values().fold(0u32, |a, v| a.wrapping_add(*v)));
        black_box(hits);
        for _ in 0..32 {
            let at = (next(&mut self.x) as usize) % (self.src.len() - CHUNK);
            self.dst.copy_from_slice(&self.src[at..at + CHUNK]);
            black_box(&self.dst);
        }
        t.elapsed().as_secs_f64()
    }
}
