//! Process-global `engine.*` registry counters for the preprocessing pool.
//!
//! Counter taxonomy (all monotonic, cumulative across every query in
//! the process; the server merges them into `metrics` wire snapshots):
//!
//! * `engine.pool_tasks` — preprocessing shards submitted to a worker
//!   pool: one per component arena built concurrently by a pooled
//!   [`crate::ProblemInstance::preprocess_on`].
//! * `engine.pool_tasks_stolen` — those shards executed by a worker other
//!   than the spawning thread, i.e. shards that crossed the pool's
//!   work-stealing deques. `stolen / pool_tasks` measures how much the
//!   pool actually load-balances.

use std::sync::{Arc, OnceLock};

pub(crate) struct EngineObs {
    pub pool_tasks: Arc<kr_obs::Counter>,
    pub pool_tasks_stolen: Arc<kr_obs::Counter>,
}

pub(crate) fn engine_obs() -> &'static EngineObs {
    static OBS: OnceLock<EngineObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = kr_obs::global();
        EngineObs {
            pool_tasks: reg.counter("engine.pool_tasks"),
            pool_tasks_stolen: reg.counter("engine.pool_tasks_stolen"),
        }
    })
}
