//! CSV round-trip pipeline: generate → export → import → query.

use durable_topk::{Algorithm, DurableQuery, LinearScorer, Window};
use durable_topk_temporal::{read_csv_file, write_csv_file};
use durable_topk_tests::{flat, TempPath};
use durable_topk_workloads::{nba_attribute, nba_like, NBA_ATTRIBUTES};

#[test]
fn csv_roundtrip_preserves_query_answers() {
    let ds = nba_like(3_000, 9);
    let path = TempPath::new("nba.csv");
    write_csv_file(&path, &ds, Some(&NBA_ATTRIBUTES)).expect("export");
    let imported = read_csv_file(&path).expect("import");
    assert_eq!(imported.columns.as_deref().map(|c| c.len()), Some(NBA_ATTRIBUTES.len()));
    assert_eq!(imported.dataset.len(), ds.len());

    let q = DurableQuery { k: 5, tau: 400, interval: Window::new(500, 2_999) };
    let weights = {
        let mut w = vec![0.0; 15];
        w[nba_attribute("points")] = 0.7;
        w[nba_attribute("rebounds")] = 0.3;
        w
    };
    let scorer = LinearScorer::new(weights);
    let original = flat(&ds, None).query(Algorithm::SHop, &scorer, &q);
    let roundtrip = flat(&imported.dataset, None).query(Algorithm::SHop, &scorer, &q);
    assert_eq!(original.records, roundtrip.records);
}

#[test]
fn projected_export_matches_projected_query() {
    let full = nba_like(2_000, 10);
    let cols = [nba_attribute("points"), nba_attribute("assists")];
    let nba2 = full.project(&cols);
    let path = TempPath::new("nba2.csv");
    write_csv_file(&path, &nba2, Some(&["points", "assists"])).expect("export");
    let imported = read_csv_file(&path).expect("import").dataset;
    assert_eq!(imported.dim(), 2);
    for id in [0u32, 777, 1_999] {
        assert_eq!(imported.row(id), nba2.row(id), "row {id}");
    }
}
