//! Fixed reference work for the adhls benchmark.
//!
//!     adhls-benchmark-calibrate [--exit]
//!
//! Runs `ITEMS` fixed items of DAG scheduling work on `THREADS` threads (the
//! benchmark's `explore --threads`), which take the next item from a shared
//! counter as the program's pool takes cells, and prints a checksum. The benchmark
//! times this program beside each CPU-bound pass of `adhls` and divides the
//! two, so that a change in the shared host's speed cancels out of the
//! figure (see README.md, "Host speed"). The work is of the same kind as the
//! program's scheduler (longest paths, a ready heap, a hash map), so both
//! slow down alike when the host is busy. It has no dependencies and must not
//! change once baselines are recorded with it.
//!
//! With `--exit` it exits at once: the benchmark times that as a minimal
//! process spawn.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const NODES: usize = 3000;
const FANOUT: usize = 3;
const REACH: usize = 64;
const UNITS_PER_STEP: usize = 2;
const ROUNDS_PER_ITEM: u64 = 20;
const ITEMS: u64 = 30;
const THREADS: usize = 2;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// A random DAG: every edge goes from a node to one of the next `REACH`.
fn dag(rng: &mut Lcg) -> Vec<Vec<u32>> {
    let mut succ = vec![Vec::new(); NODES];
    for (v, out) in succ.iter_mut().enumerate() {
        let span = (NODES - v - 1).min(REACH);
        if span > 0 {
            for _ in 0..FANOUT {
                out.push((v + 1 + rng.next() as usize % span) as u32);
            }
        }
    }
    succ
}

/// One round: ASAP times under fresh delays, then a list schedule with
/// `UNITS_PER_STEP` units per step, recording each issue in a hash map.
fn round(succ: &[Vec<u32>], rng: &mut Lcg, r: u64, memo: &mut HashMap<u64, u32>) -> u64 {
    let delay: Vec<u32> = (0..NODES).map(|_| 1 + (rng.next() % 7) as u32).collect();
    let mut asap = vec![0u32; NODES];
    let mut indeg = vec![0u32; NODES];
    for v in 0..NODES {
        let t = asap[v] + delay[v];
        for &s in &succ[v] {
            let s = s as usize;
            asap[s] = asap[s].max(t);
            indeg[s] += 1;
        }
    }
    let mut ready: BinaryHeap<Reverse<(u32, u32)>> = (0..NODES)
        .filter(|&v| indeg[v] == 0)
        .map(|v| Reverse((asap[v], v as u32)))
        .collect();
    let mut step = 0u32;
    let mut issued = Vec::with_capacity(UNITS_PER_STEP);
    while !ready.is_empty() {
        issued.clear();
        while issued.len() < UNITS_PER_STEP {
            match ready.pop() {
                Some(Reverse((_, v))) => issued.push(v),
                None => break,
            }
        }
        for &v in &issued {
            let key = (u64::from(v) << 20) ^ u64::from(delay[v as usize]) ^ ((r & 15) << 40);
            *memo.entry(key).or_insert(0) += step;
            for &s in &succ[v as usize] {
                let s = s as usize;
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(Reverse((asap[s].max(step), s as u32)));
                }
            }
        }
        step += 1;
    }
    u64::from(step) + u64::from(asap[NODES - 1])
}

/// One item: a DAG seeded by the item's index, and `ROUNDS_PER_ITEM` rounds.
fn item(index: u64) -> u64 {
    let mut rng = Lcg(12345 + index);
    let succ = dag(&mut rng);
    let mut memo = HashMap::new();
    let mut check = 0u64;
    for r in 0..ROUNDS_PER_ITEM {
        check = check
            .wrapping_mul(31)
            .wrapping_add(round(&succ, &mut rng, r, &mut memo));
    }
    check.wrapping_add(memo.len() as u64)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--exit") {
        return;
    }
    let next = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                let mut sum = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= ITEMS {
                        return sum;
                    }
                    sum = sum.wrapping_add(item(i));
                }
            })
        })
        .collect();
    let sum = handles
        .into_iter()
        .map(|h| h.join().expect("calibration thread panicked"))
        .fold(0u64, u64::wrapping_add);
    println!("{sum}");
}
