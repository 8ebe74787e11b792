//! End-to-end integration: datagen → calibration → preprocessing →
//! enumeration/maximum → verification, across every preset.

use krcore::prelude::*;
use krcore::similarity::{top_permille_threshold, TableOracle};

fn instance_for(preset: DatasetPreset, scale: f64, k: u32, r_axis_value: f64) -> ProblemInstance {
    let d = preset.generate_scaled(scale);
    let threshold = match d.metric {
        krcore::similarity::Metric::Euclidean => Threshold::MaxDistance(r_axis_value),
        _ => {
            let oracle = TableOracle::new(
                d.attributes.clone(),
                d.metric,
                Threshold::MinSimilarity(0.0),
            );
            let r = top_permille_threshold(&oracle, d.graph.num_vertices(), r_axis_value, 2000, 11);
            Threshold::MinSimilarity(r)
        }
    };
    ProblemInstance::new(d.graph, d.attributes, d.metric, threshold, k)
}

#[test]
fn every_preset_yields_verified_cores() {
    for (preset, r) in [
        (DatasetPreset::BrightkiteLike, 8.0),
        (DatasetPreset::GowallaLike, 8.0),
        (DatasetPreset::DblpLike, 5.0),
        (DatasetPreset::PokecLike, 5.0),
    ] {
        let p = instance_for(preset, 0.3, 3, r);
        let res = enumerate_maximal(&p, &AlgoConfig::adv_enum());
        assert!(res.completed, "{preset:?} aborted");
        assert!(
            !res.cores.is_empty(),
            "{preset:?}: no cores found — dataset/threshold drifted"
        );
        // Definitions check for every core; pairwise non-containment.
        krcore::core::verify_maximal_family(&p, &res.cores)
            .unwrap_or_else(|e| panic!("{preset:?}: {e}"));
    }
}

#[test]
fn maximum_equals_largest_maximal_on_presets() {
    for (preset, r) in [
        (DatasetPreset::GowallaLike, 8.0),
        (DatasetPreset::DblpLike, 5.0),
    ] {
        let p = instance_for(preset, 0.3, 3, r);
        let enum_res = enumerate_maximal(&p, &AlgoConfig::adv_enum());
        let expect = enum_res.cores.iter().map(|c| c.len()).max().unwrap_or(0);
        for cfg in [AlgoConfig::basic_max(), AlgoConfig::adv_max()] {
            let res = find_maximum(&p, &cfg);
            assert!(res.completed);
            assert_eq!(res.core.map_or(0, |c| c.len()), expect, "{preset:?}");
        }
    }
}

#[test]
fn clique_baseline_agrees_on_presets() {
    let p = instance_for(DatasetPreset::GowallaLike, 0.25, 3, 8.0);
    let fast = enumerate_maximal(&p, &AlgoConfig::adv_enum()).cores;
    let baseline = krcore::core::clique_based_maximal(&p);
    assert_eq!(fast, baseline);
}

#[test]
fn monotonicity_in_k() {
    // Raising k can only shrink the union of core members.
    let d = DatasetPreset::GowallaLike.generate_scaled(0.3);
    let mut prev_members: Option<std::collections::HashSet<VertexId>> = None;
    for k in [2u32, 3, 4, 5] {
        let p = ProblemInstance::new(
            d.graph.clone(),
            d.attributes.clone(),
            d.metric,
            Threshold::MaxDistance(8.0),
            k,
        );
        let res = enumerate_maximal(&p, &AlgoConfig::adv_enum());
        let members: std::collections::HashSet<VertexId> = res
            .cores
            .iter()
            .flat_map(|c| c.vertices.iter().copied())
            .collect();
        if let Some(prev) = &prev_members {
            assert!(
                members.is_subset(prev),
                "k={k}: member set grew when k increased"
            );
        }
        prev_members = Some(members);
    }
}

#[test]
fn monotonicity_in_r_distance() {
    // Relaxing a distance threshold can only grow the member union.
    let d = DatasetPreset::BrightkiteLike.generate_scaled(0.3);
    let mut prev: Option<std::collections::HashSet<VertexId>> = None;
    for r in [2.0f64, 5.0, 10.0, 20.0] {
        let p = ProblemInstance::new(
            d.graph.clone(),
            d.attributes.clone(),
            d.metric,
            Threshold::MaxDistance(r),
            3,
        );
        let res = enumerate_maximal(&p, &AlgoConfig::adv_enum());
        let members: std::collections::HashSet<VertexId> = res
            .cores
            .iter()
            .flat_map(|c| c.vertices.iter().copied())
            .collect();
        if let Some(prev) = &prev {
            assert!(
                prev.is_subset(&members),
                "r={r}: member set shrank when r relaxed"
            );
        }
        prev = Some(members);
    }
}

#[test]
fn cores_respect_planted_structure() {
    // At a tight geo threshold, every core should sit inside one planted
    // community (cities are hundreds of km apart; only the hub city mixes).
    let d = DatasetPreset::BrightkiteLike.generate_scaled(0.3);
    let p = ProblemInstance::new(
        d.graph.clone(),
        d.attributes.clone(),
        d.metric,
        Threshold::MaxDistance(10.0),
        3,
    );
    let res = enumerate_maximal(&p, &AlgoConfig::adv_enum());
    assert!(!res.cores.is_empty());
    let mut single_community = 0usize;
    for core in &res.cores {
        let mut comms: Vec<u32> = core
            .vertices
            .iter()
            .map(|&v| d.community[v as usize])
            .collect();
        comms.sort_unstable();
        comms.dedup();
        if comms.len() == 1 {
            single_community += 1;
        }
    }
    // The hub city can blend communities; the overwhelming majority of
    // cores must still be community-pure.
    assert!(
        single_community * 10 >= res.cores.len() * 8,
        "only {single_community}/{} cores community-pure",
        res.cores.len()
    );
}

#[test]
fn snap_roundtrip_preserves_results() {
    // Export the graph as a SNAP edge list, re-import, and verify the
    // mining results are identical. The re-import drops isolated
    // vertices and densifies ids in first-seen order, so its attribute
    // table is rebuilt through `original_ids`, and its cores are mapped
    // back to the original ids before comparing.
    let d = DatasetPreset::GowallaLike.generate_scaled(0.2);
    let mut buf = Vec::new();
    krcore::graph::io::write_edge_list(&d.graph, &mut buf).unwrap();
    let loaded = krcore::graph::io::read_edge_list(&buf[..]).unwrap();
    let AttributeTable::Points(pts) = &d.attributes else {
        panic!("gowalla-like carries points");
    };
    let attrs = AttributeTable::points(
        loaded
            .original_ids
            .iter()
            .map(|&id| pts[id as usize])
            .collect(),
    );
    let families = [
        (d.graph.clone(), d.attributes.clone(), None),
        (loaded.graph, attrs, Some(&loaded.original_ids)),
    ]
    .map(|(graph, attrs, ids)| {
        let p = ProblemInstance::new(graph, attrs, d.metric, Threshold::MaxDistance(8.0), 3);
        let mut cores: Vec<Vec<u64>> = enumerate_maximal(&p, &AlgoConfig::adv_enum())
            .cores
            .iter()
            .map(|c| {
                let mut core: Vec<u64> = c
                    .vertices
                    .iter()
                    .map(|&v| ids.map_or(u64::from(v), |ids| ids[v as usize]))
                    .collect();
                core.sort_unstable();
                core
            })
            .collect();
        cores.sort();
        cores
    });
    assert!(!families[0].is_empty(), "no cores to compare");
    assert_eq!(families[0], families[1]);
}

#[test]
fn time_limit_reports_incomplete_not_wrong() {
    // With an absurdly small budget the run must flag incompleteness and
    // still return only valid cores.
    let p = instance_for(DatasetPreset::GowallaLike, 0.5, 3, 12.0);
    let res = enumerate_maximal(&p, &AlgoConfig::adv_enum().with_time_limit_ms(1));
    for c in &res.cores {
        assert!(krcore::core::is_kr_core(&p, c));
    }
}
