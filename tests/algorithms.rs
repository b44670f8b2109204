//! Application-level integration tests: the graph algorithms the paper
//! motivates, validated on the synthetic suite against independent naive
//! implementations.

use masked_spgemm_repro::prelude::*;
use mspgemm_graph::bfs::{bfs_levels_naive, UNREACHED};
use mspgemm_graph::triangles::count_triangles_naive;
use mspgemm_sparse::csr::reduce_values;

const SCALE: f64 = 0.04;

fn cfg() -> Config {
    Config::builder().n_threads(2).build()
}

#[test]
fn triangle_counts_match_naive_on_all_classes() {
    for spec in suite_specs() {
        let a = suite_graph(&spec, SCALE);
        let naive = count_triangles_naive(&a);
        let full = count_triangles(&a, &cfg()).unwrap();
        let tril = count_triangles_ll(&a, &cfg()).unwrap();
        assert_eq!(full, naive, "{}: A⊙(A×A)", spec.name);
        assert_eq!(tril, naive, "{}: L⊙(L×L)", spec.name);
    }
}

#[test]
fn social_graphs_are_triangle_rich_road_graphs_are_not() {
    // structural sanity of the generators, at the application level:
    // triangles per edge is high for social, near zero for road
    let social = suite_graph(
        &suite_specs().into_iter().find(|s| s.name == "hollywood-2009").unwrap(),
        SCALE,
    );
    let road = suite_graph(
        &suite_specs().into_iter().find(|s| s.name == "GAP-road").unwrap(),
        SCALE,
    );
    let ts = count_triangles(&social, &cfg()).unwrap() as f64 / (social.nnz() / 2) as f64;
    let tr = count_triangles(&road, &cfg()).unwrap() as f64 / (road.nnz() / 2) as f64;
    assert!(
        ts > 10.0 * tr.max(0.01),
        "social {ts:.2} vs road {tr:.2} triangles/edge"
    );
}

#[test]
fn ktruss_edges_have_sufficient_support() {
    let a = suite_graph(
        &suite_specs().into_iter().find(|s| s.name == "com-LiveJournal").unwrap(),
        SCALE,
    );
    for k in [3, 4] {
        let r = ktruss(&a, k, &cfg()).unwrap();
        if r.truss.nnz() == 0 {
            continue;
        }
        // defining property: within the truss, every edge's support ≥ k-2
        let support =
            mspgemm_graph::triangle_support(&r.truss, &cfg()).unwrap();
        for (i, j, _) in r.truss.iter() {
            let s = support.get(i, j as usize).unwrap_or(0);
            assert!(
                s >= (k - 2) as u64,
                "{k}-truss edge ({i},{j}) has support {s}"
            );
        }
        // and it is a subgraph of the input
        for (i, j, _) in r.truss.iter() {
            assert!(a.contains(i, j as usize));
        }
    }
}

#[test]
fn ktruss_is_monotone_in_k() {
    let a = suite_graph(
        &suite_specs().into_iter().find(|s| s.name == "com-Orkut").unwrap(),
        SCALE,
    );
    let mut prev_nnz = usize::MAX;
    for k in [3, 4, 5, 6] {
        let r = ktruss(&a, k, &cfg()).unwrap();
        assert!(r.truss.nnz() <= prev_nnz, "k={k} grew the truss");
        prev_nnz = r.truss.nnz();
    }
}

#[test]
fn bfs_matches_naive_on_all_classes() {
    for spec in suite_specs() {
        let a = suite_graph(&spec, SCALE);
        let got = bfs_levels(&a, 0).unwrap();
        let want = bfs_levels_naive(&a, 0);
        assert_eq!(got.levels, want, "{}", spec.name);
    }
}

#[test]
fn bfs_depth_reflects_graph_class() {
    // road networks have huge diameter relative to social networks
    let road = suite_graph(
        &suite_specs().into_iter().find(|s| s.name == "europe_osm").unwrap(),
        0.08,
    );
    let social = suite_graph(
        &suite_specs().into_iter().find(|s| s.name == "com-Orkut").unwrap(),
        0.08,
    );
    let depth = |a: &Csr<f64>| {
        let r = bfs_levels(a, 0).unwrap();
        r.levels.iter().filter(|&&l| l != UNREACHED).max().copied().unwrap_or(0)
    };
    let dr = depth(&road);
    let ds = depth(&social);
    assert!(dr > 3 * ds, "road diameter {dr} vs social {ds}");
}

#[test]
fn betweenness_hubs_have_high_scores() {
    let a = suite_graph(
        &suite_specs().into_iter().find(|s| s.name == "as-Skitter").unwrap(),
        SCALE,
    );
    let sources: Vec<usize> = (0..a.nrows()).step_by(7).collect();
    let bc = betweenness_centrality(&a, &sources).unwrap();
    // the top-degree hub should rank in the top decile of BC
    let hub = (0..a.nrows()).max_by_key(|&i| a.row_nnz(i)).unwrap();
    let mut sorted: Vec<f64> = bc.clone();
    sorted.sort_by(|x, y| y.partial_cmp(x).unwrap());
    let p90 = sorted[a.nrows() / 10];
    assert!(
        bc[hub] >= p90,
        "hub {hub} (deg {}) has bc {} below p90 {}",
        a.row_nnz(hub),
        bc[hub],
        p90
    );
}

#[test]
fn batched_bfs_matches_single_source_on_suite() {
    let a = suite_graph(
        &suite_specs().into_iter().find(|s| s.name == "uk-2002").unwrap(),
        SCALE,
    );
    let sources = [0usize, a.nrows() / 3, a.nrows() - 1];
    let batched = bfs_levels_multi(&a, &sources).unwrap();
    assert_eq!(batched.len(), sources.len());
    for (s, &src) in sources.iter().enumerate() {
        assert_eq!(batched[s], bfs_levels_naive(&a, src), "source {src}");
    }
}

#[test]
fn triangle_support_sums_to_six_t() {
    let a = suite_graph(
        &suite_specs().into_iter().find(|s| s.name == "circuit5M").unwrap(),
        SCALE,
    );
    let t = count_triangles(&a, &cfg()).unwrap();
    let s = mspgemm_graph::triangle_support(&a, &cfg()).unwrap();
    assert_eq!(reduce_values(&s, 0u64, |acc, v| acc + v), 6 * t);
}
