//! The host-speed probe. This benchmark runs on shared virtual machines
//! whose speed drifts by up to 2× within seconds as neighbours come and
//! go (see README.md, "The host-speed probe"). A fixed piece of work that
//! calls nothing in the repository is timed just before and just after
//! every pass, and the pass's times are scaled by how long the probe took
//! around it, so each end-to-end time reads as if the host ran at its
//! quiet speed.
//!
//! The probe never calls the program under test, so a change to the
//! program moves the scaled times exactly as it moves the raw ones.
//!
//! A probe sample is hash-map and allocator churn, the kind of work the
//! simulator's ready queues and the compiler's tables do, followed by a
//! small bytecode interpreter whose dispatch branch is unpredictable, as
//! in the simulator's instruction loop. A pointer chase through a 256 KiB
//! ring reacted to the neighbours with the wrong strength and one through
//! a 32 MiB ring not at all; the churn alone reacted about a third less
//! than the simulator-heavy workloads, and the interpreter more than the
//! churn. A workload whose operations wait on another thread (the daemon
//! behind its clients) adds a cross-thread round trip to each sample; the
//! churn alone missed the slow periods of its thread wake-ups.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::stats::{median, mix};

/// Map operations of one churn sample.
const OPS: u64 = 20_000;
/// Distinct keys the operations touch.
const KEYS: u64 = 8192;
/// Opcodes of the interpreter's program, and times it is run per sample.
const CODE_LEN: u64 = 4096;
const CODE_RUNS: usize = 30;
/// Round trips to the echo thread in one cross-thread sample.
const ROUND_TRIPS: u64 = 200;

/// A churn sample's wall on the "quiet" host the scaled times refer to.
/// On the 2-core 2.1 GHz Xeon VM the benchmark was defined on, the
/// probe's median over a run ranged from 0.83 ms to 1.9 ms; 1.3 ms is
/// near the middle. It only fixes the scale of the reported times.
const CHURN_QUIET_S: f64 = 1.3e-3;
/// The same for the interpreter.
const INTERP_QUIET_S: f64 = 1.2e-3;
/// The same for the round trips.
const ROUND_TRIPS_QUIET_S: f64 = 2.1e-3;

/// Probe samples between two passes take about this share of the pass.
const SHARE: f64 = 0.1;
/// Samples taken between two passes at least.
const MIN_SAMPLES: usize = 3;

/// A thread that answers every number it receives with the next one.
struct Echo {
    to: Option<Sender<u64>>,
    from: Receiver<u64>,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    fn spawn() -> Echo {
        let (to, rx) = channel::<u64>();
        let (tx, from) = channel::<u64>();
        let thread = std::thread::spawn(move || {
            while let Ok(v) = rx.recv() {
                if tx.send(v + 1).is_err() {
                    break;
                }
            }
        });
        Echo {
            to: Some(to),
            from,
            thread: Some(thread),
        }
    }

    fn round_trips(&self) -> f64 {
        let to = self.to.as_ref().expect("echo thread running");
        let t0 = Instant::now();
        let mut v = 0;
        for _ in 0..ROUND_TRIPS {
            to.send(v).expect("echo thread running");
            v = self.from.recv().expect("echo thread running");
        }
        black_box(v);
        t0.elapsed().as_secs_f64()
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        // Closing the channel ends the thread's loop.
        drop(self.to.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

pub struct Probe {
    /// The interpreter's program: seeded random opcodes.
    code: Vec<u8>,
    echo: Option<Echo>,
}

impl Probe {
    /// A probe for a workload; `cross_thread` when its operations wait on
    /// another thread.
    pub fn new(cross_thread: bool) -> Probe {
        Probe {
            code: (0..CODE_LEN).map(|k| (mix(3, k) % 6) as u8).collect(),
            echo: cross_thread.then(Echo::spawn),
        }
    }

    /// Times one sample, in seconds.
    pub fn sample(&self) -> f64 {
        churn() + interpret(&self.code) + self.echo.as_ref().map_or(0.0, Echo::round_trips)
    }

    /// Samples for about `SHARE` of `after_s` (the wall of the work just
    /// done), at least `MIN_SAMPLES` times.
    pub fn samples_after(&self, after_s: f64) -> Vec<f64> {
        let mut out = Vec::new();
        let mut spent = 0.0;
        while out.len() < MIN_SAMPLES || spent < SHARE * after_s {
            let s = self.sample();
            spent += s;
            out.push(s);
        }
        out
    }

    /// The factor that scales a time measured while the probe took
    /// `samples` to the quiet host: below 1 when the host was slow.
    pub fn to_quiet(&self, samples: &[f64]) -> f64 {
        let quiet = CHURN_QUIET_S
            + INTERP_QUIET_S
            + self.echo.as_ref().map_or(0.0, |_| ROUND_TRIPS_QUIET_S);
        quiet / median(samples)
    }
}

/// Times one churn sample, in seconds.
fn churn() -> f64 {
    let t0 = Instant::now();
    // A fixed hasher, so every process does the same work.
    let mut m: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = black_box(1u64);
    for i in 0..OPS {
        x = mix(x, i);
        m.entry(x % KEYS).or_default().push(i);
        if i % 3 == 0 {
            m.remove(&(x % (KEYS - 273)));
        }
    }
    black_box(m);
    t0.elapsed().as_secs_f64()
}

/// Times one interpreter sample, in seconds.
fn interpret(code: &[u8]) -> f64 {
    let t0 = Instant::now();
    let mut acc = black_box(1u64);
    for _ in 0..CODE_RUNS {
        for &op in code {
            acc = match op {
                0 => acc.wrapping_add(3),
                1 => acc ^ (acc >> 3),
                2 => acc.wrapping_mul(5),
                3 => acc.rotate_left(9),
                4 if acc & 1 == 0 => acc / 3,
                4 => acc + 7,
                _ => acc.wrapping_sub(11),
            };
        }
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_host_scales_times_down() {
        let quiet = CHURN_QUIET_S + INTERP_QUIET_S;
        let p = Probe::new(false);
        assert_eq!(p.to_quiet(&[quiet]), 1.0);
        // The probe took twice its quiet time: the host ran at half speed.
        assert_eq!(p.to_quiet(&[2.0 * quiet, 2.0 * quiet, 9.0]), 0.5);
        assert!(p.to_quiet(&[0.5 * quiet]) > 1.0);
        let q = Probe::new(true);
        assert_eq!(q.to_quiet(&[quiet + ROUND_TRIPS_QUIET_S]), 1.0);
    }

    #[test]
    fn samples_cover_their_share_of_the_pass() {
        for cross_thread in [false, true] {
            let p = Probe::new(cross_thread);
            assert_eq!(p.samples_after(0.0).len(), MIN_SAMPLES);
            let s = p.samples_after(0.2);
            assert!(s.iter().sum::<f64>() >= SHARE * 0.2);
        }
    }
}
