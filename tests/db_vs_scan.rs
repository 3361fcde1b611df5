//! The E4 claim as an integration test: the relational engine gets the
//! same answers as the columnar scan, but its indexed (random-access)
//! plan touches far more pages — while the streaming plans agree on
//! cost shape.

use riskpipe::core::ScenarioConfig;
use riskpipe::tables::Yelt;
use riskpipe_db::YeltTable;

#[test]
fn relational_and_columnar_agree_and_costs_diverge() {
    let stage1 = ScenarioConfig::small()
        .with_seed(71)
        .build_stage1()
        .unwrap();
    let yelt = Yelt::from_yet_elt(&stage1.year_event_table(), &stage1.output.books[0].elt);

    // Columnar streaming reference.
    let (columnar, col_stats) = yelt.scan_aggregate_by_trial();

    // Relational engine, both plans.
    let table = YeltTable::load(&yelt).unwrap();
    let (indexed, indexed_cost) = table.aggregate_by_trial_indexed().unwrap();
    let (scanned, scan_cost) = table.aggregate_by_trial_scan();

    // All three agree (relative tolerance: the columnar scan uses
    // compensated summation, the row-store plans sum naively).
    for t in 0..columnar.len() {
        let tol = 1e-9 * columnar[t].abs().max(1.0);
        assert!(
            (columnar[t] - indexed[t]).abs() < tol,
            "trial {t} indexed: {} vs {}",
            columnar[t],
            indexed[t]
        );
        assert!(
            (columnar[t] - scanned[t]).abs() < tol,
            "trial {t} scanned: {} vs {}",
            columnar[t],
            scanned[t]
        );
    }

    // The paper's point: random access costs far more I/O than a scan.
    let random_io = indexed_cost.heap_pages + indexed_cost.index_nodes;
    let scan_io = scan_cost.heap_pages;
    assert!(
        random_io > 3 * scan_io,
        "random {random_io} vs scan {scan_io}: expected a wide gap"
    );

    // And the relational row-store is bulkier than the columnar layout.
    let columnar_bytes = col_stats.bytes;
    let rowstore_bytes = (table.pages() * riskpipe_db::PAGE_SIZE) as u64;
    assert!(
        rowstore_bytes > columnar_bytes,
        "row store {rowstore_bytes} vs columnar {columnar_bytes}"
    );
}
