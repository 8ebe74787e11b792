//! Answer checking, after the window. Every distinct answer is compared
//! with a from-scratch `kr_core` run on the benchmark's own copy of the
//! graph in the state the read saw: enumeration answers must equal the
//! reference family as vertex sets (same core count and fingerprint,
//! and the reference passes `verify_maximal_family`); maximum answers
//! must have the reference size and pass `is_kr_core`.

use crate::plan::{Algo, Plan};
use crate::run::{fingerprint, WindowLog};
use kr_core::{
    enumerate_maximal_prepared, find_maximum_prepared, is_kr_core, verify_maximal_family,
    AlgoConfig, KrCore,
};
use kr_graph::{Graph, VertexId};
use kr_similarity::AttributeTable;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub struct CheckResult {
    /// Answer ids (into [`WindowLog::answers`]) that did not match.
    pub wrong: HashSet<u32>,
    /// Distinct answers checked.
    pub checked: usize,
    /// Mean time of `is_kr_core` / `verify_maximal_family` per call.
    pub verify_us_per_answer: f64,
    /// Whether the corridor's preprocessing produced a lazy component.
    pub corridor_lazy: Option<bool>,
}

struct JobOut {
    wrong: Vec<u32>,
    verify_us: f64,
    verified: usize,
    checked: usize,
    lazy: Option<bool>,
}

type StateCache<'a> = Mutex<HashMap<(&'a str, u32), (Graph, AttributeTable)>>;

/// Checks every answer of `log` on `threads` worker threads.
pub fn check(plan: &Plan, log: &WindowLog, threads: usize) -> CheckResult {
    // One job per (key, graph state), carrying every distinct answer
    // given for it.
    let mut jobs: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
    for (i, a) in log.answers.iter().enumerate() {
        jobs.entry((a.key, a.state)).or_default().push(i as u32);
    }
    let jobs: Vec<((u32, u32), Vec<u32>)> = jobs.into_iter().collect();
    // Graph states built so far, shared by the workers.
    let states: StateCache = Mutex::new(HashMap::new());
    let next = AtomicUsize::new(0);
    let outs: Vec<JobOut> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut outs = Vec::new();
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        let Some(((key, state), answers)) = jobs.get(j) else {
                            return outs;
                        };
                        let key = log.keys[*key as usize];
                        let shadow = &plan.shadows[key.dataset];
                        let (graph, attrs) = {
                            let mut cache = states.lock().expect("state cache");
                            cache
                                .entry((key.dataset, *state))
                                .or_insert_with(|| shadow.state(&plan.toggles, *state))
                                .clone()
                        };
                        let problem = shadow.problem(graph, attrs, key.k, key.r);
                        let comps = problem.preprocess();
                        let lazy = (key.dataset == crate::plan::CORRIDOR)
                            .then(|| comps.iter().any(|c| c.is_dissimilarity_lazy()));
                        let mut out = JobOut {
                            wrong: Vec::new(),
                            verify_us: 0.0,
                            verified: 0,
                            checked: 0,
                            lazy,
                        };
                        match key.algo {
                            Algo::Enum => {
                                let reference: Vec<Vec<VertexId>> =
                                    enumerate_maximal_prepared(&comps, &AlgoConfig::adv_enum())
                                        .cores
                                        .into_iter()
                                        .map(|c| c.vertices)
                                        .collect();
                                let family: Vec<KrCore> =
                                    reference.iter().cloned().map(KrCore::new).collect();
                                let t = Instant::now();
                                let valid = verify_maximal_family(&problem, &family).is_ok();
                                out.verify_us += t.elapsed().as_secs_f64() * 1e6;
                                out.verified += 1;
                                let fp = fingerprint(&reference);
                                for &a in answers {
                                    let got = &log.answers[a as usize];
                                    out.checked += 1;
                                    if !valid
                                        || got.count != reference.len()
                                        || got.fingerprint != fp
                                    {
                                        out.wrong.push(a);
                                    }
                                }
                            }
                            Algo::Max => {
                                let reference =
                                    find_maximum_prepared(&comps, &AlgoConfig::adv_max())
                                        .core
                                        .map_or(0, |c| c.len());
                                for &a in answers {
                                    let got = &log.answers[a as usize].cores;
                                    let t = Instant::now();
                                    let valid = match got.as_slice() {
                                        [] => reference == 0,
                                        [core] => {
                                            core.len() == reference
                                                && is_kr_core(&problem, &KrCore::new(core.clone()))
                                        }
                                        _ => false,
                                    };
                                    out.verify_us += t.elapsed().as_secs_f64() * 1e6;
                                    out.verified += 1;
                                    out.checked += 1;
                                    if !valid {
                                        out.wrong.push(a);
                                    }
                                }
                            }
                        }
                        outs.push(out);
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("checker"))
            .collect()
    });
    let verified: usize = outs.iter().map(|o| o.verified).sum();
    let verify_us: f64 = outs.iter().map(|o| o.verify_us).sum();
    CheckResult {
        wrong: outs.iter().flat_map(|o| o.wrong.iter().copied()).collect(),
        checked: outs.iter().map(|o| o.checked).sum(),
        verify_us_per_answer: verify_us / verified.max(1) as f64,
        corridor_lazy: outs.iter().find_map(|o| o.lazy),
    }
}
