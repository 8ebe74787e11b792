//! Datasets hosted by the server.
//!
//! Two families of entries share one registry:
//!
//! * **Presets** — the named synthetic datasets
//!   ([`kr_datagen::DatasetPreset`], the repo's stand-ins for the paper's
//!   Table 3 networks). Generation is deterministic per `(preset,
//!   scale)`, so the identity string `"name@scale"` pins the exact graph.
//! * **File-backed** — `.krb` dataset snapshots registered at `serve`
//!   time (`--dataset name=path.krb`). The file pins the graph, so the
//!   query's `scale` is irrelevant and the identity is always
//!   `dataset_key(name, 1.0)` — every scale a client sends maps to the
//!   same resident dataset and the same component-cache entries. Files
//!   open **lazily**: the snapshot is read and verified on the first
//!   query that names it, then kept resident like a generated preset.
//!
//! In both cases the identity string is the registry key and the dataset
//! half of the component-cache key, and resident data is shared via
//! `Arc`: loaded once per server lifetime, not once per query.
//!
//! ## Mutation
//!
//! A hosted dataset is no longer frozen at load time: `add_edge` /
//! `remove_edge` / `set_attribute` requests flow through
//! [`HostedDataset::apply_batch`]. The graph, attributes, and
//! decomposition index live behind one `RwLock`'d [`DatasetState`] whose
//! **version** increments on every effective batch; queries take an
//! immutable [`DatasetView`] snapshot and the component cache keys its
//! entries by that version, so a query racing a mutation computes against
//! a consistent (graph, attributes, index) triple — merely a slightly
//! stale one. The decomposition index is *maintained*, not rebuilt:
//! each applied update is pushed through the subcore-bounded traversal
//! repair of [`kr_graph::maintain`] (see
//! [`kr_core::DecompositionIndex::apply_insert`]), so the per-update
//! cost is proportional to the coreness that actually changed.

use crate::sync::{lock, read_lock, write_lock};
use kr_core::{DecompositionIndex, ProblemInstance};
use kr_datagen::DatasetPreset;
use kr_graph::{AdjacencyList, Graph, VertexId};
use kr_similarity::attributes::{check_keywords, check_point, check_vector};
use kr_similarity::{AttributeTable, Metric, TableOracle, Threshold};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, RwLock};

/// One graph update, validated and applied as part of a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphUpdate {
    /// Connect two existing, distinct vertices.
    AddEdge(VertexId, VertexId),
    /// Disconnect two existing, distinct vertices.
    RemoveEdge(VertexId, VertexId),
    /// Replace one vertex's attribute value (same family as the table).
    SetAttribute(VertexId, AttributeValue),
}

/// A replacement attribute value, family-matched against the dataset's
/// [`AttributeTable`] variant during validation.
#[derive(Debug, Clone, PartialEq)]
pub enum AttributeValue {
    /// For [`AttributeTable::Points`] datasets.
    Point(f64, f64),
    /// For [`AttributeTable::Keywords`] datasets (normalized on apply:
    /// sorted by keyword, duplicate ids merged).
    Keywords(Vec<(u32, f64)>),
    /// For [`AttributeTable::Vectors`] datasets (dimension-checked).
    Vector(Vec<f64>),
}

/// The effective deltas of one applied batch — what the component
/// cache's repair pass classifies entries against.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MutationDelta {
    /// Edges that were actually inserted (normalized `(min, max)`).
    pub inserted: Vec<(VertexId, VertexId)>,
    /// Edges that were actually removed (normalized `(min, max)`).
    pub removed: Vec<(VertexId, VertexId)>,
    /// Vertices whose attribute value actually changed.
    pub attr_changed: Vec<VertexId>,
}

impl MutationDelta {
    /// True when the batch changed nothing (all updates were no-ops).
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.removed.is_empty() && self.attr_changed.is_empty()
    }

    /// Every vertex touched by an effective update, deduplicated.
    pub fn touched_vertices(&self) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = self
            .inserted
            .iter()
            .chain(self.removed.iter())
            .flat_map(|&(u, v)| [u, v])
            .chain(self.attr_changed.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// What one [`HostedDataset::apply_batch`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationOutcome {
    /// Updates that changed the dataset.
    pub applied: u64,
    /// No-op updates (duplicate insert, absent removal, identical
    /// attribute value) — accepted but with nothing to do.
    pub ignored: u64,
    /// `(vertex, layer)` core numbers repaired in the maintained
    /// decomposition index (0 when the index had not been built yet).
    pub core_updates: u64,
    /// Dataset version after the batch (unchanged when `applied == 0`).
    pub version: u64,
    /// The effective deltas, for the cache repair pass.
    pub delta: MutationDelta,
}

/// An immutable snapshot of a dataset's mutable state: everything a
/// query computes against. Cheap to clone (all `Arc`s).
#[derive(Clone)]
pub struct DatasetView {
    /// The social graph.
    pub graph: Arc<Graph>,
    /// Vertex attributes.
    pub attributes: Arc<AttributeTable>,
    /// The decomposition index, when one has been built or loaded.
    pub index: Option<Arc<DecompositionIndex>>,
    /// Version this snapshot was taken at.
    pub version: u64,
}

/// The mutable half of a [`HostedDataset`], swapped atomically under the
/// state lock.
struct DatasetState {
    graph: Arc<Graph>,
    attributes: Arc<AttributeTable>,
    index: Option<Arc<DecompositionIndex>>,
    version: u64,
}

/// One resident dataset.
pub struct HostedDataset {
    /// Identity string (`"gowalla-like@0.25"`).
    key: String,
    /// Natural metric for the attributes (decides how a query's `r` is
    /// interpreted: max distance vs min similarity).
    metric: Metric,
    /// Graph + attributes + index + version, snapshot by every query.
    state: RwLock<DatasetState>,
    /// Serializes mutation batches. Held across the whole
    /// maintain-and-swap, while the state lock is only held for the
    /// final swap — reads never wait on a batch in progress.
    mutate: Mutex<()>,
}

impl std::fmt::Debug for HostedDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let view = self.view();
        f.debug_struct("HostedDataset")
            .field("key", &self.key)
            .field("metric", &self.metric)
            .field("vertices", &view.graph.num_vertices())
            .field("edges", &view.graph.num_edges())
            .field("version", &view.version)
            .finish()
    }
}

impl HostedDataset {
    /// A resident dataset with no decomposition index yet (it builds
    /// lazily on first use — see [`HostedDataset::decomposition`]).
    pub fn new(key: String, graph: Graph, attributes: AttributeTable, metric: Metric) -> Self {
        HostedDataset {
            key,
            metric,
            state: RwLock::new(DatasetState {
                graph: Arc::new(graph),
                attributes: Arc::new(attributes),
                index: None,
                version: 0,
            }),
            mutate: Mutex::new(()),
        }
    }

    /// [`HostedDataset::new`] with an index recovered from a snapshot's
    /// optional `DECOMP_INDEX` section, so queries never pay the build.
    pub fn with_index(
        key: String,
        graph: Graph,
        attributes: AttributeTable,
        metric: Metric,
        index: DecompositionIndex,
    ) -> Self {
        let ds = HostedDataset::new(key, graph, attributes, metric);
        write_lock(&ds.state).index = Some(Arc::new(index));
        ds
    }

    /// Identity string (registry key and component-cache key prefix).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The dataset's metric family.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Snapshot of the current graph/attributes/index/version. Queries
    /// take one view and compute entirely against it; a mutation landing
    /// mid-query swaps the state without disturbing the snapshot.
    pub fn view(&self) -> DatasetView {
        let st = read_lock(&self.state);
        DatasetView {
            graph: st.graph.clone(),
            attributes: st.attributes.clone(),
            index: st.index.clone(),
            version: st.version,
        }
    }

    /// Current mutation version (0 = as loaded).
    pub fn version(&self) -> u64 {
        read_lock(&self.state).version
    }

    /// The query threshold for this dataset's metric family.
    pub fn threshold(&self, r: f64) -> Threshold {
        if self.metric.is_distance() {
            Threshold::MaxDistance(r)
        } else {
            Threshold::MinSimilarity(r)
        }
    }

    /// The all-admitting threshold (every pair similar) used when an
    /// oracle is needed only for its attribute table and metric.
    fn neutral_threshold(&self) -> Threshold {
        if self.metric.is_distance() {
            Threshold::MaxDistance(f64::MAX)
        } else {
            Threshold::MinSimilarity(0.0)
        }
    }

    /// Builds the `(k, r)` problem instance for a query on this dataset
    /// (against the current view).
    pub fn problem(&self, k: u32, r: f64) -> ProblemInstance {
        self.problem_on(&self.view(), k, r)
    }

    /// The `(k, r)` problem instance over `view`'s graph and attribute
    /// table, shared with the view, not copied.
    pub fn problem_on(&self, view: &DatasetView, k: u32, r: f64) -> ProblemInstance {
        ProblemInstance::new(
            view.graph.clone(),
            view.attributes.clone(),
            self.metric,
            self.threshold(r),
            k,
        )
    }

    /// The dataset's decomposition index, building it on first call (one
    /// build per dataset version).
    pub fn decomposition(&self) -> Arc<DecompositionIndex> {
        let (view, _) = self.indexed_view();
        view.index.expect("an indexed view carries the index")
    }

    /// A view whose `index` is set, plus whether this call built that
    /// index (and so paid for it) rather than finding it in place. The
    /// index describes exactly the view's graph and attributes. The
    /// first build runs without blocking writers; if a mutation lands
    /// meanwhile the build is stale, and the one rebuild holds the
    /// mutation lock so no batch can invalidate it.
    pub fn indexed_view(&self) -> (DatasetView, bool) {
        if let Some(found) = self.try_indexed_view() {
            return found;
        }
        let _batch = lock(&self.mutate);
        self.try_indexed_view()
            .expect("no mutation lands while the mutation lock is held")
    }

    /// One attempt at [`Self::indexed_view`]: the current view, with the
    /// index built and installed when absent (then flagged `true`).
    /// `None` when a mutation landed mid-build: the index then describes
    /// the old graph and is dropped.
    fn try_indexed_view(&self) -> Option<(DatasetView, bool)> {
        let mut view = self.view();
        if view.index.is_some() {
            return Some((view, false));
        }
        let oracle = TableOracle::from_shared(
            view.attributes.clone(),
            self.metric,
            self.neutral_threshold(),
        );
        let built = Arc::new(DecompositionIndex::build_default(&view.graph, &oracle));
        let mut st = write_lock(&self.state);
        if st.version != view.version {
            return None;
        }
        st.index = Some(built.clone());
        view.index = Some(built);
        Some((view, true))
    }

    /// Validates one update against vertex count `n` and the attribute
    /// table's family.
    fn validate(n: usize, attrs: &AttributeTable, up: &GraphUpdate) -> Result<(), String> {
        let check_vertex = |v: VertexId| -> Result<(), String> {
            if (v as usize) < n {
                Ok(())
            } else {
                Err(format!(
                    "vertex {v} out of range (dataset has {n} vertices)"
                ))
            }
        };
        match up {
            GraphUpdate::AddEdge(u, v) | GraphUpdate::RemoveEdge(u, v) => {
                check_vertex(*u)?;
                check_vertex(*v)?;
                if u == v {
                    return Err(format!("self-loop ({u}, {v}) is not a valid edge"));
                }
                Ok(())
            }
            GraphUpdate::SetAttribute(w, value) => {
                check_vertex(*w)?;
                match (attrs, value) {
                    (AttributeTable::Points(_), AttributeValue::Point(x, y)) => {
                        check_point(*x, *y)?;
                    }
                    (AttributeTable::Keywords(_), AttributeValue::Keywords(list)) => {
                        check_keywords(list)?;
                    }
                    (AttributeTable::Vectors(rows), AttributeValue::Vector(vec)) => {
                        if let Some(first) = rows.first() {
                            if vec.len() != first.len() {
                                return Err(format!(
                                    "vector dimension {} does not match the dataset's {}",
                                    vec.len(),
                                    first.len()
                                ));
                            }
                        }
                        check_vector(vec)?;
                    }
                    _ => {
                        return Err(format!(
                            "attribute family mismatch: dataset holds {}, update carries {}",
                            attrs.family_name(),
                            value.family_name()
                        ));
                    }
                }
                Ok(())
            }
        }
    }

    /// Writes `value` into row `w` of `attrs`; returns false when the
    /// row already held exactly that value (a no-op update).
    fn set_attribute(attrs: &mut AttributeTable, w: usize, value: &AttributeValue) -> bool {
        match (attrs, value) {
            (AttributeTable::Points(rows), AttributeValue::Point(x, y)) => {
                if rows[w] == (*x, *y) {
                    return false;
                }
                rows[w] = (*x, *y);
                true
            }
            (AttributeTable::Keywords(rows), AttributeValue::Keywords(list)) => {
                let normalized = match AttributeTable::keywords(vec![list.clone()]) {
                    AttributeTable::Keywords(mut one) => one.pop().expect("one row in, one out"),
                    _ => unreachable!("keywords() builds Keywords"),
                };
                if rows[w] == normalized {
                    return false;
                }
                rows[w] = normalized;
                true
            }
            (AttributeTable::Vectors(rows), AttributeValue::Vector(vec)) => {
                if &rows[w] == vec {
                    return false;
                }
                rows[w] = vec.clone();
                true
            }
            _ => unreachable!("validate() rejected family mismatches"),
        }
    }

    /// Applies one batch of updates atomically: the whole batch is
    /// validated against the pre-batch state first (any invalid update
    /// rejects the batch with nothing applied), then applied one update
    /// at a time — maintaining the decomposition index through each
    /// step when one exists — and finally swapped in under the state
    /// lock with a version bump. No-op updates (duplicate edge, absent
    /// removal, identical attribute) are counted in `ignored` and do not
    /// bump the version on their own.
    ///
    /// Batches serialize on the dataset's mutation lock; queries keep
    /// reading the previous state until the swap.
    pub fn apply_batch(&self, updates: &[GraphUpdate]) -> Result<MutationOutcome, String> {
        let _batch = lock(&self.mutate);
        let start = self.view();
        let n = start.graph.num_vertices();
        for up in updates {
            Self::validate(n, &start.attributes, up)?;
        }

        let mut adj = AdjacencyList::from_graph(&start.graph);
        let mut attrs = start.attributes.clone();
        // Maintain a private copy of the index; if it was never built
        // there is nothing to keep warm (the next query builds fresh).
        let mut index: Option<DecompositionIndex> = start.index.as_deref().cloned();
        let mut delta = MutationDelta::default();
        let mut applied = 0u64;
        let mut ignored = 0u64;
        let mut core_updates = 0u64;

        for up in updates {
            match up {
                GraphUpdate::AddEdge(u, v) => {
                    if adj.insert_edge(*u, *v) {
                        applied += 1;
                        delta.inserted.push((*u.min(v), *u.max(v)));
                        if let Some(ix) = index.as_mut() {
                            let oracle = TableOracle::from_shared(
                                attrs.clone(),
                                self.metric,
                                self.neutral_threshold(),
                            );
                            core_updates += ix.apply_insert(&adj, &oracle, *u, *v);
                        }
                    } else {
                        ignored += 1;
                    }
                }
                GraphUpdate::RemoveEdge(u, v) => {
                    if adj.remove_edge(*u, *v) {
                        applied += 1;
                        delta.removed.push((*u.min(v), *u.max(v)));
                        if let Some(ix) = index.as_mut() {
                            let oracle = TableOracle::from_shared(
                                attrs.clone(),
                                self.metric,
                                self.neutral_threshold(),
                            );
                            core_updates += ix.apply_remove(&adj, &oracle, *u, *v);
                        }
                    } else {
                        ignored += 1;
                    }
                }
                GraphUpdate::SetAttribute(w, value) => {
                    let old_attrs = attrs.clone();
                    let mut table = (*attrs).clone();
                    if Self::set_attribute(&mut table, *w as usize, value) {
                        applied += 1;
                        attrs = Arc::new(table);
                        delta.attr_changed.push(*w);
                        if let Some(ix) = index.as_mut() {
                            let old = TableOracle::from_shared(
                                old_attrs,
                                self.metric,
                                self.neutral_threshold(),
                            );
                            let new = TableOracle::from_shared(
                                attrs.clone(),
                                self.metric,
                                self.neutral_threshold(),
                            );
                            core_updates += ix.apply_attribute(&adj, &old, &new, *w);
                        }
                    } else {
                        ignored += 1;
                    }
                }
            }
        }

        if delta.is_empty() {
            return Ok(MutationOutcome {
                applied,
                ignored,
                core_updates,
                version: start.version,
                delta,
            });
        }

        let graph = if delta.inserted.is_empty() && delta.removed.is_empty() {
            start.graph.clone()
        } else {
            Arc::new(adj.to_graph())
        };
        let mut st = write_lock(&self.state);
        st.graph = graph;
        st.attributes = attrs;
        st.index = index.map(Arc::new);
        st.version += 1;
        let version = st.version;
        drop(st);
        Ok(MutationOutcome {
            applied,
            ignored,
            core_updates,
            version,
            delta,
        })
    }
}

/// Lazily-generated presets plus lazily-opened snapshot files, all
/// permanently resident once touched.
#[derive(Default)]
pub struct DatasetRegistry {
    inner: Mutex<HashMap<String, Arc<HostedDataset>>>,
    /// File-backed registrations: dataset name → snapshot path.
    files: HashMap<String, PathBuf>,
}

/// The identity string for a `(preset name, scale)` pair.
pub fn dataset_key(name: &str, scale: f64) -> String {
    format!("{name}@{scale}")
}

impl DatasetRegistry {
    /// Empty registry (presets only).
    pub fn new() -> Self {
        DatasetRegistry::default()
    }

    /// Registers a file-backed dataset under `name`. The snapshot is not
    /// read here — it opens lazily on first query — but the name must
    /// not shadow a preset or an earlier file registration.
    pub fn register_file(
        &mut self,
        name: impl Into<String>,
        path: impl Into<PathBuf>,
    ) -> Result<(), String> {
        let name = name.into();
        if DatasetPreset::all().iter().any(|p| p.name() == name) {
            return Err(format!("dataset name '{name}' shadows a built-in preset"));
        }
        if self.files.contains_key(&name) {
            return Err(format!("dataset name '{name}' registered twice"));
        }
        self.files.insert(name, path.into());
        Ok(())
    }

    /// True when `name` resolves to a registered snapshot file. The
    /// session uses this to skip scale policy for file-backed datasets —
    /// their graph is pinned by the file, so a query's `scale` is
    /// documentation-free noise rather than a generation request.
    pub fn is_file_backed(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// Preset names every registry can serve.
    pub fn known_names() -> Vec<&'static str> {
        DatasetPreset::all().iter().map(|p| p.name()).collect()
    }

    /// All names *this* registry can serve: presets plus registered
    /// files.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = Self::known_names().iter().map(|s| s.to_string()).collect();
        let mut files: Vec<String> = self.files.keys().cloned().collect();
        files.sort();
        names.extend(files);
        names
    }

    /// Returns the dataset for `(name, scale)`, generating a preset or
    /// opening a registered snapshot file on first use. Errors (with the
    /// list of known names) when the name matches neither.
    pub fn get(&self, name: &str, scale: f64) -> Result<Arc<HostedDataset>, String> {
        self.get_reporting_load(name, scale).map(|(ds, _)| ds)
    }

    /// [`Self::get`], plus what this call loaded the dataset from —
    /// `Some("preset")` or `Some("file")` — or `None` when it was
    /// already resident.
    pub fn get_reporting_load(
        &self,
        name: &str,
        scale: f64,
    ) -> Result<(Arc<HostedDataset>, Option<&'static str>), String> {
        if let Some(path) = self.files.get(name) {
            return self.get_file(name, path);
        }
        let preset = DatasetPreset::all()
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| {
                format!(
                    "unknown dataset '{name}' (known: {})",
                    self.names().join(", ")
                )
            })?;
        let key = dataset_key(name, scale);
        if let Some(ds) = lock(&self.inner).get(&key) {
            return Ok((ds.clone(), None));
        }
        // Generate outside the lock; a racing generation of the same key
        // is redundant but harmless (deterministic output, first insert
        // kept).
        let data = preset.generate_scaled(scale);
        let hosted = Arc::new(HostedDataset::new(
            key.clone(),
            data.graph,
            data.attributes,
            data.metric,
        ));
        Ok((
            lock(&self.inner).entry(key).or_insert(hosted).clone(),
            Some("preset"),
        ))
    }

    /// File-backed lookup: the snapshot pins the graph, so the identity
    /// (and component-cache key prefix) is `dataset_key(name, 1.0)` no
    /// matter what scale the query carried.
    fn get_file(
        &self,
        name: &str,
        path: &PathBuf,
    ) -> Result<(Arc<HostedDataset>, Option<&'static str>), String> {
        let key = dataset_key(name, 1.0);
        if let Some(ds) = lock(&self.inner).get(&key) {
            return Ok((ds.clone(), None));
        }
        // Read + verify outside the lock; a racing load of the same file
        // is redundant but harmless (identical bytes, first insert kept).
        // The indexed reader also recovers the optional decomposition
        // section, so pre-indexed snapshots never pay a query-time build.
        let (snap, index) = kr_core::read_indexed_snapshot_file(path)
            .map_err(|e| format!("dataset '{name}' failed to load from {path:?}: {e}"))?;
        let hosted = Arc::new(match index {
            Some(ix) => {
                HostedDataset::with_index(key.clone(), snap.graph, snap.attributes, snap.metric, ix)
            }
            None => HostedDataset::new(key.clone(), snap.graph, snap.attributes, snap.metric),
        });
        Ok((
            lock(&self.inner).entry(key).or_insert(hosted).clone(),
            Some("file"),
        ))
    }
}

impl AttributeValue {
    fn family_name(&self) -> &'static str {
        match self {
            AttributeValue::Point(..) => "point",
            AttributeValue::Keywords(_) => "keywords",
            AttributeValue::Vector(_) => "vector",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_once_and_shares() {
        let reg = DatasetRegistry::new();
        let a = reg.get("dblp-like", 0.1).unwrap();
        let b = reg.get("dblp-like", 0.1).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.key(), "dblp-like@0.1");
        assert_eq!(a.metric(), Metric::WeightedJaccard);
    }

    #[test]
    fn distinct_scales_distinct_datasets() {
        let reg = DatasetRegistry::new();
        let a = reg.get("gowalla-like", 0.1).unwrap();
        let b = reg.get("gowalla-like", 0.2).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(a.view().graph.num_vertices() < b.view().graph.num_vertices());
    }

    #[test]
    fn unknown_name_lists_presets() {
        let err = DatasetRegistry::new().get("nope", 1.0).unwrap_err();
        assert!(err.contains("gowalla-like"), "{err}");
    }

    fn write_tiny_snapshot(tag: &str) -> std::path::PathBuf {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let attrs = AttributeTable::points(vec![(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]);
        let path =
            std::env::temp_dir().join(format!("kr_registry_{tag}_{}.krb", std::process::id()));
        kr_similarity::write_snapshot_file(&path, &g, &[10, 20, 30], &attrs, Metric::Euclidean)
            .expect("write snapshot");
        path
    }

    #[test]
    fn file_backed_dataset_loads_lazily_and_ignores_scale() {
        let path = write_tiny_snapshot("lazy");
        let mut reg = DatasetRegistry::new();
        reg.register_file("tiny", &path).unwrap();
        assert!(reg.names().contains(&"tiny".to_string()));
        let a = reg.get("tiny", 0.25).unwrap();
        // Any requested scale resolves to the same resident dataset and
        // the same identity key.
        let b = reg.get("tiny", 1.0).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.key(), "tiny@1");
        assert_eq!(a.view().graph.num_vertices(), 3);
        assert_eq!(a.metric(), Metric::Euclidean);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn decomposition_builds_once_and_is_shared() {
        let reg = DatasetRegistry::new();
        let ds = reg.get("gowalla-like", 0.05).unwrap();
        let (a, built_a) = ds.indexed_view();
        let (b, built_b) = ds.indexed_view();
        let (a, b) = (a.index.unwrap(), b.index.unwrap());
        assert!(Arc::ptr_eq(&a, &b), "one build per dataset");
        assert!(built_a && !built_b, "only the first call builds");
        assert_eq!(a.num_vertices(), ds.view().graph.num_vertices());
        assert!(a.is_distance(), "gowalla-like is Euclidean");
    }

    #[test]
    fn indexed_snapshot_preseeds_the_decomposition() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let attrs = AttributeTable::points(vec![(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]);
        let oracle = kr_similarity::TableOracle::new(
            attrs.clone(),
            Metric::Euclidean,
            Threshold::MaxDistance(1.0),
        );
        let index = DecompositionIndex::build_default(&g, &oracle);
        let path =
            std::env::temp_dir().join(format!("kr_registry_indexed_{}.krb", std::process::id()));
        kr_core::write_indexed_snapshot_file(
            &path,
            &g,
            &[1, 2, 3],
            &attrs,
            Metric::Euclidean,
            &index,
        )
        .expect("write indexed snapshot");
        let mut reg = DatasetRegistry::new();
        reg.register_file("tiny-ix", &path).unwrap();
        let ds = reg.get("tiny-ix", 1.0).unwrap();
        // The index came from the file: identical to what we wrote.
        assert_eq!(*ds.decomposition(), index);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn file_registration_rejects_preset_shadowing_and_duplicates() {
        let mut reg = DatasetRegistry::new();
        assert!(reg.register_file("gowalla-like", "/tmp/x.krb").is_err());
        reg.register_file("mine", "/tmp/x.krb").unwrap();
        assert!(reg.register_file("mine", "/tmp/y.krb").is_err());
    }

    #[test]
    fn missing_file_is_a_query_time_error() {
        let mut reg = DatasetRegistry::new();
        reg.register_file("ghost", "/nonexistent/ghost.krb")
            .unwrap();
        let err = reg.get("ghost", 1.0).unwrap_err();
        assert!(err.contains("ghost"), "{err}");
    }

    #[test]
    fn corrupt_file_is_a_typed_query_time_error() {
        let path = std::env::temp_dir().join(format!("kr_registry_bad_{}.krb", std::process::id()));
        std::fs::write(
            &path,
            b"not a snapshot at all, padded past the header length",
        )
        .unwrap();
        let mut reg = DatasetRegistry::new();
        reg.register_file("bad", &path).unwrap();
        let err = reg.get("bad", 1.0).unwrap_err();
        assert!(err.contains("failed to load"), "{err}");
        assert!(err.contains("bad magic"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn apply_batch_validates_everything_before_applying_anything() {
        let ds = HostedDataset::new(
            "t@1".into(),
            Graph::from_edges(4, &[(0, 1), (1, 2)]),
            AttributeTable::points(vec![(0.0, 0.0); 4]),
            Metric::Euclidean,
        );
        let err = ds
            .apply_batch(&[
                GraphUpdate::AddEdge(0, 3),
                GraphUpdate::AddEdge(0, 99), // out of range: rejects the batch
            ])
            .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // Nothing from the batch landed: version and edge count unchanged.
        assert_eq!(ds.version(), 0);
        assert_eq!(ds.view().graph.num_edges(), 2);

        let err = ds.apply_batch(&[GraphUpdate::AddEdge(2, 2)]).unwrap_err();
        assert!(err.contains("self-loop"), "{err}");
        let err = ds
            .apply_batch(&[GraphUpdate::SetAttribute(
                0,
                AttributeValue::Keywords(vec![(1, 1.0)]),
            )])
            .unwrap_err();
        assert!(err.contains("family mismatch"), "{err}");
    }

    #[test]
    fn apply_batch_mutates_graph_attributes_and_version() {
        let ds = HostedDataset::new(
            "t@1".into(),
            Graph::from_edges(4, &[(0, 1), (1, 2)]),
            AttributeTable::points(vec![(0.0, 0.0); 4]),
            Metric::Euclidean,
        );
        let out = ds
            .apply_batch(&[
                GraphUpdate::AddEdge(2, 3),
                GraphUpdate::AddEdge(0, 1),    // duplicate: ignored
                GraphUpdate::RemoveEdge(0, 3), // absent: ignored
                GraphUpdate::SetAttribute(3, AttributeValue::Point(5.0, 5.0)),
                GraphUpdate::SetAttribute(0, AttributeValue::Point(0.0, 0.0)), // identical: ignored
            ])
            .unwrap();
        assert_eq!(out.applied, 2);
        assert_eq!(out.ignored, 3);
        assert_eq!(out.version, 1);
        assert_eq!(out.delta.inserted, vec![(2, 3)]);
        assert_eq!(out.delta.attr_changed, vec![3]);
        assert_eq!(out.delta.touched_vertices(), vec![2, 3]);
        let view = ds.view();
        assert_eq!(view.graph.num_edges(), 3);
        assert_eq!(view.version, 1);
        match &*view.attributes {
            AttributeTable::Points(rows) => assert_eq!(rows[3], (5.0, 5.0)),
            other => panic!("unexpected table {other:?}"),
        }
        // A batch of pure no-ops does not bump the version (the cache
        // must not treat it as a change).
        let out = ds.apply_batch(&[GraphUpdate::AddEdge(0, 1)]).unwrap();
        assert_eq!((out.applied, out.ignored, out.version), (0, 1, 1));
        assert!(out.delta.is_empty());
    }

    #[test]
    fn apply_batch_keeps_the_decomposition_index_warm_and_correct() {
        let reg = DatasetRegistry::new();
        let ds = reg.get("gowalla-like", 0.05).unwrap();
        let before = ds.decomposition();
        let n = ds.view().graph.num_vertices() as VertexId;
        // A handful of edge updates between fixed vertices.
        let out = ds
            .apply_batch(&[
                GraphUpdate::AddEdge(0, n - 1),
                GraphUpdate::AddEdge(1, n - 2),
                GraphUpdate::RemoveEdge(0, n - 1),
                GraphUpdate::SetAttribute(2, AttributeValue::Point(0.1, 0.2)),
            ])
            .unwrap();
        assert!(out.applied >= 3, "{out:?}");
        let after = ds.decomposition();
        assert!(
            !Arc::ptr_eq(&before, &after),
            "index must have been maintained into a new value"
        );
        // The maintained index is exactly what a from-scratch build on
        // the mutated dataset produces (band set pinned to the original
        // build's bands — maintenance never re-chooses bands).
        let view = ds.view();
        let oracle = TableOracle::from_shared(
            view.attributes.clone(),
            ds.metric(),
            Threshold::MaxDistance(f64::MAX),
        );
        let rebuilt = DecompositionIndex::build(&view.graph, &oracle, after.bands());
        assert_eq!(*after, rebuilt);
    }

    #[test]
    fn decomposition_returns_an_exact_index_under_sustained_writes() {
        use std::collections::HashMap;
        use std::sync::atomic::{AtomicBool, Ordering};
        let reg = DatasetRegistry::new();
        let ds = reg.get("gowalla-like", 0.05).unwrap();
        let n = ds.view().graph.num_vertices() as VertexId;
        // Every version's view, recorded by the only writer right after
        // its batch lands.
        let views = Arc::new(Mutex::new(HashMap::from([(0u64, ds.view())])));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (ds, views, stop) = (ds.clone(), views.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut add = true;
                while !stop.load(Ordering::Relaxed) {
                    let up = if add {
                        GraphUpdate::AddEdge(0, n - 1)
                    } else {
                        GraphUpdate::RemoveEdge(0, n - 1)
                    };
                    let out = ds.apply_batch(&[up]).unwrap();
                    lock(&views).insert(out.version, ds.view());
                    add = !add;
                }
            })
        };
        while ds.version() == 0 {
            std::thread::yield_now();
        }
        let (indexed, _) = ds.indexed_view();
        let (index, version) = (indexed.index.unwrap(), indexed.version);
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();

        let view = lock(&views)[&version].clone();
        let oracle = TableOracle::from_shared(
            view.attributes.clone(),
            ds.metric(),
            Threshold::MaxDistance(f64::MAX),
        );
        let rebuilt = DecompositionIndex::build(&view.graph, &oracle, index.bands());
        assert_eq!(*index, rebuilt, "index of version {version}");
    }

    #[test]
    fn concurrent_queries_see_consistent_views_across_mutations() {
        let ds = Arc::new(HostedDataset::new(
            "t@1".into(),
            Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
            AttributeTable::points(vec![(0.0, 0.0); 6]),
            Metric::Euclidean,
        ));
        let writer = {
            let ds = ds.clone();
            std::thread::spawn(move || {
                for i in 0..50u32 {
                    let (u, v) = ((i % 5) as VertexId, ((i % 5) + 1) as VertexId);
                    let up = if i % 2 == 0 {
                        GraphUpdate::RemoveEdge(u, v)
                    } else {
                        GraphUpdate::AddEdge(u, v)
                    };
                    ds.apply_batch(&[up]).unwrap();
                }
            })
        };
        for _ in 0..200 {
            let view = ds.view();
            // Internal consistency: the snapshot's pieces agree on n.
            assert_eq!(view.graph.num_vertices(), 6);
            assert_eq!(view.attributes.len(), 6);
        }
        writer.join().unwrap();
        assert!(ds.version() > 0);
    }

    /// Each component's global vertex set, sorted.
    fn vertex_sets(comps: &[kr_core::LocalComponent]) -> Vec<Vec<VertexId>> {
        comps
            .iter()
            .map(|c| {
                let mut ids = c.globalize(&(0..c.len() as VertexId).collect::<Vec<_>>());
                ids.sort_unstable();
                ids
            })
            .collect()
    }

    #[test]
    fn a_miss_preprocesses_its_own_view_even_after_a_write() {
        // A triangle 0-1-2 plus vertex 3 hanging off 2: the 2-core is the
        // triangle until `add_edge(0, 3)` grows it to all four vertices.
        let before = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let attrs = AttributeTable::points(vec![(0.0, 0.0); 4]);
        let ds = HostedDataset::new(
            "t@1".into(),
            before.clone(),
            attrs.clone(),
            Metric::Euclidean,
        );
        let (k, r) = (2, 1.0);
        let (view, _) = ds.indexed_view();
        // The miss's instance runs on the view's own graph and attribute
        // table, not on copies.
        let problem = ds.problem_on(&view, k, r);
        assert!(std::ptr::eq(problem.graph(), &*view.graph));
        assert!(std::ptr::eq(
            problem.oracle().attributes(),
            &*view.attributes
        ));

        ds.apply_batch(&[GraphUpdate::AddEdge(0, 3)]).unwrap();
        // Built after the write, the entry still answers the view's
        // version: the same components as a from-scratch run on the
        // graph before the write.
        let index = view.index.as_deref().expect("an indexed view");
        let candidates = index.candidates(k, ds.threshold(r)).vertices;
        let entry = problem.preprocess_with_candidates(&candidates);
        let scratch = ProblemInstance::new(before, attrs, Metric::Euclidean, ds.threshold(r), k);
        assert_eq!(vertex_sets(&entry), vertex_sets(&scratch.preprocess()));
        assert_eq!(vertex_sets(&entry), vec![vec![0, 1, 2]]);
        // A view taken after the write sees the grown core.
        let (after, _) = ds.indexed_view();
        assert_eq!(after.version, view.version + 1);
        let grown = ds.problem_on(&after, k, r).preprocess();
        assert_eq!(vertex_sets(&grown), vec![vec![0, 1, 2, 3]]);
    }
}
