//! Early termination (Theorem 5).
//!
//! A subtree can be abandoned when every (k,r)-core it could emit is
//! provably non-maximal because some excluded vertex (or set of excluded
//! vertices) can always be re-attached:
//!
//! * **(i)** some `e ∈ SF_C(E)` (excluded, similar to all of `C`, and by
//!   the E-invariant to all of `M`) has `deg(e, M) ≥ k` and at least one
//!   neighbor in `M` (the attachment requirement of (ii), which only
//!   bites at `k = 0`);
//! * **(ii)** some `U ⊆ SF_{C∪E}(E)` has `deg(u, M ∪ U) ≥ k` for every
//!   `u ∈ U` *and is attached to `M`* (the attachment requirement keeps
//!   `R ∪ U` connected — the paper leaves it implicit; dropping it would
//!   wrongly suppress cores that `U` cannot reach).
//!
//! Both conditions extend only cores that contain all of `M`, which is
//! exactly the family the enumeration emits at leaves below this node
//! (see `enumerate`), so terminating is sound. With `M = ∅` nothing can be
//! concluded and the check is skipped.

use crate::search::{bits, kcore_within, SearchState, Status, Words};
use kr_graph::VertexId;

/// Returns true when the current subtree can be terminated (Theorem 5).
pub fn can_terminate(st: &SearchState<'_>) -> bool {
    can_terminate_with(st, &mut Scratch::default())
}

/// The counter layout's reusable buffers for condition (ii), kept by
/// the search walker across nodes. The one-word layout uses none.
#[derive(Default)]
pub(crate) struct Scratch {
    in_w: Vec<bool>,
    w_list: Vec<VertexId>,
    deg: Vec<u32>,
    queue: Vec<VertexId>,
    seen: Vec<bool>,
    stack: Vec<VertexId>,
}

/// [`can_terminate`] with the counter layout's buffers in `scratch`.
pub(crate) fn can_terminate_with(st: &SearchState<'_>, scratch: &mut Scratch) -> bool {
    let (n_m, _, n_e) = st.sizes();
    if n_m == 0 || n_e == 0 {
        return false;
    }
    if let Some(w) = st.words() {
        return can_terminate_words(st.k, w);
    }
    let n = st.comp.len();
    // Condition (i): one scan of E.
    let attached = st.k.max(1);
    for v in 0..n as VertexId {
        if st.status(v) == Status::Excluded && st.dp_c(v) == 0 && st.deg_m(v) >= attached {
            return true;
        }
    }
    // Condition (ii): peel SF_{C∪E}(E) down to vertices with
    // deg(·, M ∪ W) >= k, then look for a survivor attached to M.
    let Scratch {
        in_w,
        w_list,
        deg,
        queue,
        seen,
        stack,
    } = scratch;
    in_w.clear();
    in_w.resize(n, false);
    w_list.clear();
    for v in 0..n as VertexId {
        if st.status(v) == Status::Excluded && st.dp_c(v) == 0 && st.dp_e(v) == 0 {
            in_w[v as usize] = true;
            w_list.push(v);
        }
    }
    if w_list.is_empty() {
        return false;
    }
    // deg within M ∪ W.
    deg.clear();
    deg.resize(n, 0);
    for &w in w_list.iter() {
        deg[w as usize] = st
            .comp
            .neighbors(w)
            .iter()
            .filter(|&&x| st.status(x) == Status::Chosen || in_w[x as usize])
            .count() as u32;
    }
    queue.clear();
    queue.extend(w_list.iter().copied().filter(|&w| deg[w as usize] < st.k));
    for &w in queue.iter() {
        in_w[w as usize] = false;
    }
    while let Some(w) = queue.pop() {
        for &x in st.comp.neighbors(w) {
            if in_w[x as usize] {
                deg[x as usize] -= 1;
                if deg[x as usize] < st.k {
                    in_w[x as usize] = false;
                    queue.push(x);
                }
            }
        }
    }
    // Attachment: some surviving W vertex reachable from M through M ∪ W.
    // BFS from all M vertices over the M ∪ W vertex set.
    seen.clear();
    seen.resize(n, false);
    stack.clear();
    for v in 0..n as VertexId {
        if st.status(v) == Status::Chosen {
            seen[v as usize] = true;
            stack.push(v);
        }
    }
    while let Some(v) = stack.pop() {
        for &x in st.comp.neighbors(v) {
            let xi = x as usize;
            if !seen[xi] && (st.status(x) == Status::Chosen || in_w[xi]) {
                if in_w[xi] {
                    return true; // reached a valid U member
                }
                seen[xi] = true;
                stack.push(x);
            }
        }
    }
    false
}

/// Both conditions on the one-word layout (`M` and `E` non-empty).
fn can_terminate_words(k: u32, w: &Words<'_>) -> bool {
    let (m, c, e) = (w.m(), w.c(), w.e());
    // Condition (i).
    let attached = k.max(1);
    if bits(e).any(|v| w.dis(v) & c == 0 && (w.adj(v) & m).count_ones() >= attached) {
        return true;
    }
    // Condition (ii): W = SF_{C∪E}(E), peeled to deg(·, M ∪ W) >= k.
    let sf = bits(e)
        .filter(|&v| w.dis(v) & (c | e) == 0)
        .fold(0u64, |acc, v| acc | 1 << v);
    let sf = kcore_within(w.rows(), k, m, sf);
    // Attachment: a survivor next to M (the BFS above reaches W only
    // from M vertices).
    bits(sf).any(|v| w.adj(v) & m != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::LocalComponent;
    use crate::search::SearchState;

    /// Triangle M = {0,1,2} (k = 2), plus vertex 3 adjacent to all three.
    fn base() -> LocalComponent {
        LocalComponent::from_parts(
            vec![vec![1, 2, 3], vec![0, 2, 3], vec![0, 1, 3], vec![0, 1, 2]],
            vec![vec![]; 4],
            2,
        )
    }

    fn state_with_m_and_e(comp: &LocalComponent) -> SearchState<'_> {
        let mut st = SearchState::new(comp);
        for v in [0, 1, 2] {
            st.set_status(v, Status::Chosen);
        }
        st.set_status(3, Status::Excluded);
        st
    }

    #[test]
    fn condition_i_triggers() {
        let comp = base();
        let st = state_with_m_and_e(&comp);
        // 3 is excluded, similar to everything, deg(3, M) = 3 >= 2.
        assert!(can_terminate(&st));
    }

    #[test]
    fn no_termination_with_empty_m() {
        let comp = base();
        let mut st = SearchState::new(&comp);
        st.set_status(3, Status::Excluded);
        assert!(!can_terminate(&st));
    }

    #[test]
    fn no_termination_when_e_dissimilar_to_c() {
        // 3 dissimilar to candidate 4 -> not in SF_C(E); deg(3, M) high
        // but condition (i) must not trigger; (ii) also blocked by dp_c.
        let comp = LocalComponent::from_parts(
            vec![
                vec![1, 2, 3, 4],
                vec![0, 2, 3, 4],
                vec![0, 1, 3, 4],
                vec![0, 1, 2],
                vec![0, 1, 2],
            ],
            vec![vec![], vec![], vec![], vec![4], vec![3]],
            2,
        );
        let mut st = SearchState::new(&comp);
        for v in [0, 1, 2] {
            st.set_status(v, Status::Chosen);
        }
        st.set_status(3, Status::Excluded);
        // 4 stays a candidate; dp_c(3) = 1.
        assert!(!can_terminate(&st));
    }

    #[test]
    fn condition_ii_pair() {
        // Example 5 pattern: neither e alone has deg(e, M) >= k, but the
        // pair {4, 5} supports itself through M.
        // M = {0,1,2} triangle (k=2); 4 adj to 0 and 5; 5 adj to 1 and 4.
        let comp = LocalComponent::from_parts(
            vec![
                vec![1, 2, 4],
                vec![0, 2, 5],
                vec![0, 1],
                vec![],
                vec![0, 5],
                vec![1, 4],
            ],
            vec![vec![]; 6],
            2,
        );
        let mut st = SearchState::new(&comp);
        for v in [0, 1, 2] {
            st.set_status(v, Status::Chosen);
        }
        st.set_status(3, Status::Gone);
        st.set_status(4, Status::Excluded);
        st.set_status(5, Status::Excluded);
        assert!(can_terminate(&st));
    }

    #[test]
    fn unattached_u_rejected() {
        // W = {4,5,6} forms a triangle with deg >= 2 internally but has no
        // edge to M -> R ∪ U would be disconnected; must NOT terminate.
        let comp = LocalComponent::from_parts(
            vec![
                vec![1, 2],
                vec![0, 2],
                vec![0, 1],
                vec![],
                vec![5, 6],
                vec![4, 6],
                vec![4, 5],
            ],
            vec![vec![]; 7],
            2,
        );
        let mut st = SearchState::new(&comp);
        for v in [0, 1, 2] {
            st.set_status(v, Status::Chosen);
        }
        st.set_status(3, Status::Gone);
        for v in [4, 5, 6] {
            st.set_status(v, Status::Excluded);
        }
        assert!(!can_terminate(&st));
    }
}
