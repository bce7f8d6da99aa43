//! Memory budget: a sealed shard keeps its records' rows, tree and one
//! skyband duration per level — about 4.06 bytes each — for the records it
//! owns and nothing for the records before them, however far back `max_tau`
//! reaches. No record row and no tree node is held twice.

use durable_topk::{EngineConfig, MemoryUsage};
use durable_topk_workloads::ind;

const RECORDS: usize = 50_000;
/// `skyband_bound(20)` keeps levels 1, 2, 4, 8, 16, 32.
const LEVELS: usize = 6;

fn usage(max_tau: u32) -> MemoryUsage {
    let ds = ind(RECORDS, 3, 7);
    let engine =
        EngineConfig::new(3, 1, max_tau).skyband_bound(20).build_from(&ds, 13).expect("build");
    assert_eq!(engine.sealed_shards(), 13);
    engine.memory_usage()
}

#[test]
fn sealed_skyband_bytes_follow_owned_records_not_context() {
    let (narrow, wide) = (usage(2_000), usage(4_000));
    let budget = (4.25 * (LEVELS * RECORDS) as f64) as usize;
    assert!(narrow.skyband_sealed > 4 * LEVELS * RECORDS, "every owned record has a duration");
    assert!(narrow.skyband_sealed <= budget, "{} > {budget}", narrow.skyband_sealed);
    assert_eq!(narrow.skyband_sealed, wide.skyband_sealed, "context must not be indexed");
    // Rows and trees are the owned records', whatever `max_tau` is.
    assert_eq!((narrow.records, narrow.trees), (wide.records, wide.trees));
    // The head is where `max_tau` legitimately shows: it owns nothing yet
    // but keeps the rows of the `max_tau` records before it, which its
    // appends scan for dominators.
    assert!(wide.skyband_head > narrow.skyband_head);
}
