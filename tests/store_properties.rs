//! Property tests for the persistent evaluation store: a store hit is
//! bitwise-equivalent to a cold evaluation, serialization round-trips
//! arbitrary bit patterns exactly, and damage of any kind to the log
//! reads as a *miss* for the damaged records only — never as a wrong
//! answer. Arbitrary interleavings of puts, gets, compactions, and
//! capacity evictions can only ever produce misses, a bounded store's
//! log stays within twice its live records, concurrent readers and
//! writers sharing one handle round-trip exactly, and independently
//! opened handles (standing in for processes) share one log.

use dovado::persist::{decode_evaluation, encode_evaluation};
use dovado::{DesignPoint, EvalConfig, Evaluation, Evaluator, HdlSource};
use dovado_eda::{EvalKey, EvalStore};
use dovado_fpga::{ResourceKind, ResourceSet};
use dovado_hdl::Language;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fs;
use std::path::PathBuf;

const FIFO_SV: &str = r#"
module fifo_v3 #(
    parameter DEPTH = 8,
    parameter DATA_WIDTH = 32
)(input logic clk_i, input logic [DATA_WIDTH-1:0] data_i);
endmodule"#;

fn evaluator() -> Evaluator {
    Evaluator::new(
        vec![HdlSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV)],
        "fifo_v3",
        EvalConfig::default(),
    )
    .unwrap()
}

fn store_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dovado-store-prop-{tag}-{case}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn store_in(tag: &str, case: u64) -> EvalStore {
    EvalStore::open(&store_dir(tag, case)).unwrap()
}

/// An evaluation whose every float is an arbitrary 64-bit pattern —
/// including NaNs, infinities and negative zero.
fn arbitrary_evaluation(rng: &mut StdRng) -> Evaluation {
    let mut utilization = ResourceSet::zero();
    for kind in ResourceKind::ALL {
        utilization.set(kind, rng.next_u64());
    }
    Evaluation {
        utilization,
        wns_ns: f64::from_bits(rng.next_u64()),
        period_ns: f64::from_bits(rng.next_u64()),
        fmax_mhz: f64::from_bits(rng.next_u64()),
        power_mw: f64::from_bits(rng.next_u64()),
        tool_time_s: f64::from_bits(rng.next_u64()),
    }
}

fn bits_of(e: &Evaluation) -> [u64; 5] {
    [
        e.wns_ns.to_bits(),
        e.period_ns.to_bits(),
        e.fmax_mhz.to_bits(),
        e.power_mw.to_bits(),
        e.tool_time_s.to_bits(),
    ]
}

proptest! {
    /// Serialization is bitwise for any float pattern and any counts.
    #[test]
    fn evaluation_roundtrips_arbitrary_bits(seed in 0u64..2000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = arbitrary_evaluation(&mut rng);
        let back = decode_evaluation(&encode_evaluation(&e)).unwrap();
        prop_assert_eq!(back.utilization, e.utilization);
        prop_assert_eq!(bits_of(&back), bits_of(&e));
    }

    /// A store hit is the cold evaluation, bit for bit: a storeless
    /// evaluator, the evaluator that fills the store, and a fresh
    /// evaluator answered purely from disk all agree on every float.
    #[test]
    fn store_hit_equals_cold_evaluation(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let point = DesignPoint::from_pairs(&[
            ("DEPTH", rng.gen_range(2i64..1024)),
            ("DATA_WIDTH", [8, 16, 32][rng.gen_range(0usize..3)]),
        ]);
        let cold = evaluator().evaluate(&point).unwrap();

        let store = store_in("hit", seed);
        let mut writer = evaluator();
        writer.attach_store(store.clone());
        let written = writer.evaluate(&point).unwrap();
        prop_assert_eq!(bits_of(&written), bits_of(&cold));

        let mut reader = evaluator();
        reader.attach_store(store);
        let read = reader.evaluate(&point).unwrap();
        prop_assert_eq!(bits_of(&read), bits_of(&cold));
        prop_assert_eq!(read.utilization, cold.utilization);
        prop_assert_eq!(reader.trace_summary().store_hits, 1);
        prop_assert_eq!(reader.trace_summary().attempts, 0);
    }

    /// Damaging the log — a cut at any offset, or any single flipped bit
    /// — costs only the records it touches: after a reopen every key reads
    /// as a miss or its exact payload, every record the damage missed
    /// still hits (records after the damage too), and one more put per
    /// key makes every key hit.
    #[test]
    fn corruption_is_a_miss_never_a_wrong_answer(
        seed in 0u64..500,
        truncate in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = store_dir("corrupt", seed);
        let store = EvalStore::open(&dir).unwrap();
        let path = store.log_path();
        let n = rng.gen_range(1usize..6);
        let keys: Vec<EvalKey> = (0..n)
            .map(|i| EvalKey::from_parts(&["p", &seed.to_string(), &i.to_string()]))
            .collect();
        let evals: Vec<Evaluation> = (0..n).map(|_| arbitrary_evaluation(&mut rng)).collect();
        let mut spans = Vec::new();
        for (key, e) in keys.iter().zip(&evals) {
            let start = fs::metadata(&path).map_or(0, |m| m.len() as usize);
            store.put(key, &encode_evaluation(e)).unwrap();
            spans.push(start..fs::metadata(&path).unwrap().len() as usize);
        }

        let mut bytes = fs::read(&path).unwrap();
        let damaged: Vec<bool> = if truncate {
            let keep = rng.gen_range(0usize..bytes.len());
            bytes.truncate(keep);
            spans.iter().map(|s| s.end > keep).collect()
        } else {
            let at = rng.gen_range(0usize..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0u32..8);
            spans.iter().map(|s| s.contains(&at)).collect()
        };
        fs::write(&path, &bytes).unwrap();

        let reopened = EvalStore::open(&dir).unwrap();
        for (i, key) in keys.iter().enumerate() {
            match reopened.get(key) {
                None => prop_assert!(damaged[i], "record {} was not damaged but missed", i),
                // A flip may cancel out only by restoring the original byte
                // — impossible for XOR with a nonzero mask — so any
                // surviving answer must decode to the exact original.
                Some(payload) => {
                    let back = decode_evaluation(&payload).unwrap();
                    prop_assert_eq!(back.utilization, evals[i].utilization);
                    prop_assert_eq!(bits_of(&back), bits_of(&evals[i]));
                }
            }
        }

        // The log accepts fresh records after the damage either way.
        for (key, e) in keys.iter().zip(&evals) {
            reopened.put(key, &encode_evaluation(e)).unwrap();
        }
        let healed = EvalStore::open(&dir).unwrap();
        for (key, e) in keys.iter().zip(&evals) {
            let back = decode_evaluation(&healed.get(key).unwrap()).unwrap();
            prop_assert_eq!(bits_of(&back), bits_of(e));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Two handles opened independently on one directory — standing in
    /// for two processes — interleave puts: each hits the other's keys,
    /// and a fresh open sees the union. After one handle compacts, both
    /// answer every key with a miss or its exact payload, including keys
    /// the other handle puts before it notices the rewrite.
    #[test]
    fn independent_handles_share_one_log(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = store_dir("handles", seed);
        let handles = [EvalStore::open(&dir).unwrap(), EvalStore::open(&dir).unwrap()];
        let keys: Vec<EvalKey> = (0..16u64)
            .map(|i| EvalKey::from_parts(&["two", &seed.to_string(), &i.to_string()]))
            .collect();
        let payloads: Vec<String> = keys
            .iter()
            .map(|_| encode_evaluation(&arbitrary_evaluation(&mut rng)))
            .collect();
        let mut writer = Vec::new();
        for i in 0..12 {
            let h = rng.gen_range(0usize..2);
            handles[h].put(&keys[i], &payloads[i]).unwrap();
            writer.push(h);
            let j = rng.gen_range(0..=i);
            prop_assert_eq!(handles[1 - writer[j]].get(&keys[j]), Some(payloads[j].clone()));
        }
        let fresh = EvalStore::open(&dir).unwrap();
        prop_assert_eq!(fresh.len(), 12);
        for handle in handles.iter().chain([&fresh]) {
            for i in 0..12 {
                prop_assert_eq!(handle.get(&keys[i]), Some(payloads[i].clone()));
            }
        }

        let c = rng.gen_range(0usize..2);
        handles[c].compact().unwrap();
        for i in 12..16 {
            handles[rng.gen_range(0usize..2)].put(&keys[i], &payloads[i]).unwrap();
        }
        for handle in handles.iter().chain([&fresh]) {
            for _ in 0..24 {
                let i = rng.gen_range(0usize..16);
                if let Some(found) = handle.get(&keys[i]) {
                    prop_assert_eq!(&found, &payloads[i], "a wrong answer after a compaction");
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Arbitrary interleavings of puts, gets, compactions, and capacity
    /// evictions over a tightly bounded store: every lookup is either a
    /// miss or the exact latest payload written for that key — never a
    /// wrong answer — and the bound holds throughout.
    #[test]
    fn bounded_interleavings_only_ever_miss(seed in 0u64..300) {
        const CAPACITY: usize = 3;
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = store_dir("interleave", seed);
        let store = EvalStore::open_bounded(&dir, Some(CAPACITY)).unwrap();
        let keys: Vec<EvalKey> = (0..6u64)
            .map(|i| EvalKey::from_parts(&["mix", &seed.to_string(), &i.to_string()]))
            .collect();
        let mut model: Vec<Option<String>> = vec![None; keys.len()];
        for _ in 0..40 {
            let k = rng.gen_range(0usize..keys.len());
            match rng.gen_range(0u32..10) {
                0..=4 => {
                    let payload = encode_evaluation(&arbitrary_evaluation(&mut rng));
                    store.put(&keys[k], &payload).unwrap();
                    model[k] = Some(payload);
                }
                5..=8 => match store.get(&keys[k]) {
                    // Eviction and capacity pressure may cost a hit…
                    None => {}
                    // …but can never change an answer.
                    Some(found) => {
                        prop_assert_eq!(Some(&found), model[k].as_ref(),
                            "lookup returned a value that was never the latest write");
                    }
                },
                _ => {
                    store.compact().unwrap();
                }
            }
            prop_assert!(store.len() <= CAPACITY, "capacity bound violated");
        }
    }
}

/// Concurrent writers and readers sharing one (unbounded) store: every
/// read-back is the exact payload its writer stored — concurrent appends
/// never tear or cross entries.
#[test]
fn concurrent_readers_and_writers_round_trip() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 25;
    let dir = store_dir("concurrent", 0);
    let store = EvalStore::open(&dir).unwrap();
    let key_of = |t: u64, i: u64| EvalKey::from_parts(&["cc", &t.to_string(), &i.to_string()]);
    let payload_of = |t: u64, i: u64| {
        encode_evaluation(&arbitrary_evaluation(&mut StdRng::seed_from_u64(
            t * 1000 + i,
        )))
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let store = store.clone();
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    store.put(&key_of(t, i), &payload_of(t, i)).unwrap();
                }
            })
        })
        .collect();
    // Readers race the writers: a miss means "not written yet", a hit
    // must be exact.
    let readers: Vec<_> = (0..2u64)
        .map(|r| {
            let store = store.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(r);
                for _ in 0..200 {
                    let t = rng.gen_range(0u64..WRITERS);
                    let i = rng.gen_range(0u64..PER_WRITER);
                    if let Some(found) = store.get(&key_of(t, i)) {
                        assert_eq!(found, payload_of(t, i), "racing read returned wrong bytes");
                    }
                }
            })
        })
        .collect();
    for h in writers.into_iter().chain(readers) {
        h.join().unwrap();
    }
    // Quiesced and unbounded: every write is now a hit, bit for bit.
    for t in 0..WRITERS {
        for i in 0..PER_WRITER {
            assert_eq!(store.get(&key_of(t, i)), Some(payload_of(t, i)));
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Concurrent writers against a tightly bounded store: the capacity
/// bound holds under racing puts, and a post-quiescence compaction pass
/// leaves only exact answers behind.
#[test]
fn concurrent_bounded_writers_never_corrupt() {
    const CAPACITY: usize = 10;
    let dir = store_dir("concurrent-bounded", 0);
    let store = EvalStore::open_bounded(&dir, Some(CAPACITY)).unwrap();
    let key_of = |t: u64, i: u64| EvalKey::from_parts(&["cb", &t.to_string(), &i.to_string()]);
    let payload_of = |t: u64, i: u64| {
        encode_evaluation(&arbitrary_evaluation(&mut StdRng::seed_from_u64(
            7_000 + t * 1000 + i,
        )))
    };
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let store = store.clone();
            std::thread::spawn(move || {
                for i in 0..25 {
                    store.put(&key_of(t, i), &payload_of(t, i)).unwrap();
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    assert!(store.len() <= CAPACITY, "bound violated under racing puts");
    store.compact().unwrap();
    assert!(store.len() <= CAPACITY);
    for t in 0..4u64 {
        for i in 0..25 {
            match store.get(&key_of(t, i)) {
                None => {} // evicted: a miss, which is always allowed
                Some(found) => assert_eq!(found, payload_of(t, i)),
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A capacity-10 store that has taken 10,000 puts keeps a log of at most
/// twice the bytes of its live records: the records it evicted are
/// rewritten away once they outweigh the live ones.
#[test]
fn a_bounded_log_stays_within_twice_its_live_records() {
    const CAPACITY: usize = 10;
    let dir = store_dir("bounded-log", 0);
    let store = EvalStore::open_bounded(&dir, Some(CAPACITY)).unwrap();
    let mut rng = StdRng::seed_from_u64(10_000);
    for i in 0..10_000u64 {
        let payload = encode_evaluation(&arbitrary_evaluation(&mut rng));
        store
            .put(&EvalKey::from_parts(&["bl", &i.to_string()]), &payload)
            .unwrap();
    }
    assert_eq!(store.len(), CAPACITY);
    let log_len = fs::metadata(store.log_path()).unwrap().len();
    // Compaction rewrites the log as exactly the live records.
    store.compact().unwrap();
    let live_len = fs::metadata(store.log_path()).unwrap().len();
    assert!(
        log_len <= 2 * live_len,
        "a log of {log_len} bytes for {live_len} bytes of live records"
    );
    let _ = fs::remove_dir_all(&dir);
}
