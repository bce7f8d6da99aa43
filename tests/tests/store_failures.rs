//! Failure injection and robustness tests for the storage substrate.

use durable_topk::LinearScorer;
use durable_topk_store::{t_base_proc, t_hop_proc, BufferPool, RelStore, PAGE_SIZE};
use durable_topk_temporal::{Dataset, Window};
use durable_topk_tests::TempPath;

fn dataset(n: usize) -> Dataset {
    Dataset::from_rows(2, (0..n).map(|i| [((i * 31) % 211) as f64, ((i * 17) % 89) as f64]))
}

#[test]
fn corrupted_magic_is_rejected() {
    let path = TempPath::new("magic.db");
    let ds = dataset(100);
    {
        RelStore::create(&path, &ds, 16, 32).expect("create");
    }
    // Flip a byte in the magic number.
    let mut bytes = std::fs::read(&path).expect("read file");
    bytes[3] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("rewrite");
    assert!(RelStore::open(&path, 32).is_err(), "corrupted magic must not open");
}

#[test]
fn results_identical_under_extreme_memory_pressure() {
    // A single-frame buffer pool thrashes on every access but must still
    // produce exact answers.
    let ds = dataset(2_000);
    let path = TempPath::new("thrash.db");
    let roomy_answers = {
        let mut store = RelStore::create(&path, &ds, 32, 256).expect("create");
        let scorer = LinearScorer::uniform(2);
        let (a, _) =
            t_hop_proc(&mut store, &scorer, 5, Window::new(500, 1_999), 300).expect("t-hop");
        a
    };
    let mut tiny = RelStore::open(&path, 1).expect("open with one frame");
    let scorer = LinearScorer::uniform(2);
    let (a, stats) =
        t_hop_proc(&mut tiny, &scorer, 5, Window::new(500, 1_999), 300).expect("t-hop");
    assert_eq!(a, roomy_answers);
    // With a single frame, every switch between index and data pages is a
    // physical read.
    assert!(stats.io.misses > 50, "one frame must thrash, misses={}", stats.io.misses);
}

#[test]
fn reopened_store_equals_fresh_store() {
    let ds = dataset(1_500);
    let path = TempPath::new("reopen.db");
    let scorer = LinearScorer::new(vec![0.2, 0.8]);
    let fresh = {
        let mut store = RelStore::create(&path, &ds, 64, 64).expect("create");
        let (a, _) =
            t_base_proc(&mut store, &scorer, 3, Window::new(200, 1_499), 150).expect("t-base");
        a
    };
    let mut reopened = RelStore::open(&path, 64).expect("open");
    let (b, _) =
        t_base_proc(&mut reopened, &scorer, 3, Window::new(200, 1_499), 150).expect("t-base");
    assert_eq!(fresh, b);
}

#[test]
fn pool_flush_then_crash_recovers_committed_pages() {
    // Simulate a crash after flush: data written + flushed must be visible
    // through a new pool even though the first pool was dropped without
    // further writes.
    let path = TempPath::new("crash.db");
    {
        let mut pool = BufferPool::create(&path, 4).expect("create");
        pool.write_bytes(2 * PAGE_SIZE as u64 + 7, b"committed").expect("write");
        pool.flush().expect("flush");
        // Unflushed follow-up write, then "crash" (drop without flush).
        pool.write_bytes(5 * PAGE_SIZE as u64, b"lost-maybe").expect("write");
    }
    let mut pool = BufferPool::open(&path, 4).expect("reopen");
    let mut buf = [0u8; 9];
    pool.read_bytes(2 * PAGE_SIZE as u64 + 7, &mut buf).expect("read");
    assert_eq!(&buf, b"committed");
}

#[test]
fn stored_and_memory_answers_agree_under_every_pool_size() {
    let ds = dataset(800);
    let scorer = LinearScorer::uniform(2);
    let reference = {
        use durable_topk::{Algorithm, DurableQuery};
        durable_topk_tests::flat(&ds, None)
            .query(
                Algorithm::THop,
                &scorer,
                &DurableQuery { k: 4, tau: 100, interval: Window::new(100, 799) },
            )
            .records
    };
    for pool_pages in [1usize, 2, 8, 64, 1024] {
        let path = TempPath::new(&format!("pool{pool_pages}.db"));
        let mut store = RelStore::create(&path, &ds, 16, pool_pages).expect("create");
        let (a, _) = t_hop_proc(&mut store, &scorer, 4, Window::new(100, 799), 100).expect("t-hop");
        assert_eq!(a, reference, "pool_pages={pool_pages}");
    }
}
