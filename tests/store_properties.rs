//! Property tests for the persistent evaluation store: a store hit is
//! bitwise-equivalent to a cold evaluation, serialization round-trips
//! arbitrary bit patterns exactly, and corruption of any kind reads as a
//! *miss* — never as a wrong answer. The sharded layout carries the
//! same contract: legacy flat entries read bitwise-equal to sharded
//! ones, arbitrary interleavings of puts, gets, compactions, and
//! capacity evictions can only ever produce misses, and concurrent
//! readers and writers sharing one store round-trip exactly.

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

    /// Corrupting a stored entry — truncation at any point, or a single
    /// bit flip anywhere — turns the lookup into a miss, never a wrong
    /// answer, and the damaged file is removed so the slot heals.
    #[test]
    fn corruption_is_a_miss_never_a_wrong_answer(
        seed in 0u64..500,
        truncate in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = arbitrary_evaluation(&mut rng);
        let store = store_in("corrupt", seed);
        let key = EvalKey::from_parts(&["p", &seed.to_string()]);
        store.put(&key, &encode_evaluation(&e)).unwrap();

        let path: PathBuf = store.entry_path(&key);
        let mut bytes = fs::read(&path).unwrap();
        if truncate {
            let keep = rng.gen_range(0usize..bytes.len());
            bytes.truncate(keep);
        } else {
            let at = rng.gen_range(0usize..bytes.len());
            let bit = rng.gen_range(0u32..8);
            bytes[at] ^= 1 << bit;
        }
        fs::write(&path, &bytes).unwrap();

        match store.get(&key) {
            None => prop_assert!(!path.exists(), "corrupt entry must self-heal"),
            // A flip may cancel out only by restoring the original byte —
            // impossible for XOR with a nonzero mask — so any surviving
            // answer must decode to the exact original.
            Some(payload) => {
                let back = decode_evaluation(&payload).unwrap();
                prop_assert_eq!(bits_of(&back), bits_of(&e));
            }
        }

        // The slot accepts a fresh write either way.
        store.put(&key, &encode_evaluation(&e)).unwrap();
        let healed = decode_evaluation(&store.get(&key).unwrap()).unwrap();
        prop_assert_eq!(bits_of(&healed), bits_of(&e));
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
/// read-back is the exact payload its writer stored — shard-level
/// concurrency never tears or crosses entries.
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
