//! Process-global `engine.*` registry counters for the parallel engine.
//!
//! Counter taxonomy (all monotonic, cumulative across every query in
//! the process; the server merges them into `metrics` wire snapshots):
//!
//! * `engine.pool_tasks` — tasks submitted to a query worker pool
//!   (search tasks — one root task per component plus every donated
//!   task — and preprocessing shards).
//! * `engine.pool_tasks_stolen` — pool tasks executed by a worker other
//!   than the spawning thread, i.e. tasks that crossed the pool's
//!   work-stealing deques. `stolen / pool_tasks` measures how much the
//!   pool actually load-balances.
//! * `engine.incumbent_updates` — successful advances of the shared
//!   atomic incumbent during parallel maximum search (how often workers
//!   publish a new best size to each other).
//! * `engine.resplits` — donation events: a running task noticed the
//!   pool had room and donated pending sibling branches of its DFS path
//!   (see [`crate::config::Resplit`]).
//! * `engine.resplit_subtasks` — tasks created by those donations, on
//!   top of the one root task per component.

use std::sync::{Arc, OnceLock};

pub(crate) struct EngineObs {
    pub pool_tasks: Arc<kr_obs::Counter>,
    pub pool_tasks_stolen: Arc<kr_obs::Counter>,
    pub incumbent_updates: Arc<kr_obs::Counter>,
    pub resplits: Arc<kr_obs::Counter>,
    pub resplit_subtasks: Arc<kr_obs::Counter>,
}

pub(crate) fn engine_obs() -> &'static EngineObs {
    static OBS: OnceLock<EngineObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = kr_obs::global();
        EngineObs {
            pool_tasks: reg.counter("engine.pool_tasks"),
            pool_tasks_stolen: reg.counter("engine.pool_tasks_stolen"),
            incumbent_updates: reg.counter("engine.incumbent_updates"),
            resplits: reg.counter("engine.resplits"),
            resplit_subtasks: reg.counter("engine.resplit_subtasks"),
        }
    })
}
