//! Cycle-approximate execution simulation of pipelined loops on an
//! Itanium-2-like in-order core.
//!
//! The reproduced paper measures its gains on real hardware with cycle
//! accounting (HP Caliper, Fig. 10). This crate supplies the equivalent
//! substrate: it executes a kernel schedule produced by
//! [`ltsp_pipeliner`] against a set-associative L1D/L2/L3 hierarchy with a
//! bounded out-of-order memory-request queue (OzQ), a small data TLB, and
//! an in-order, stall-on-use scoreboard, and reports cycles in the same
//! buckets the paper charts:
//!
//! - `BE_EXE_BUBBLE` — stalls because data (usually from memory) was not
//!   yet available at use;
//! - `BE_L1D_FPU_BUBBLE` — stalls because the OzQ was full at issue;
//! - `BE_RSE_BUBBLE` — register stack engine traffic from the registers a
//!   loop allocates;
//! - `BE_FLUSH_BUBBLE` — the loop-exit branch mispredict;
//! - `BACK_END_BUBBLE.FE` — front-end delivery at loop entry;
//! - unstalled execution.
//!
//! Address behaviour per memory reference comes from the IR's
//! [`ltsp_ir::AccessPattern`]; streams are deterministic from a seed.

mod cache;
mod counters;
mod exec;
mod ozq;
mod streams;

pub use cache::{AccessOutcome, MemorySystem, PrefetchOutcome};
pub use counters::CycleCounters;
pub use exec::{Executor, ExecutorConfig, RefObservation};
pub use streams::{AddressStreams, StreamMode};
