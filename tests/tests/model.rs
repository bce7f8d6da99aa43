//! The paper's exactness claim over every front door: random engine
//! configurations and op lists, run against the brute-force model in
//! `durable_topk_tests::model`. The suites that pin one axis of it (a
//! door, paged storage, a cache, S-Band queries) name it there.

use durable_topk_tests::model::{check, EVERY_DOOR, EXERCISED};

#[test]
fn every_front_door_answers_like_brute_force() {
    check("random_runs", 48, &EVERY_DOOR, |_, _| {}, &EXERCISED);
}
