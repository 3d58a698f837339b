//! One generic property test over every counter set declared with
//! `willump::counter_set!`: `merged` is the field-wise sum (max for
//! high-water marks), deltas telescope (`first + Σ delta == last`),
//! the serde keys are the declared names in declaration order, and an
//! empty JSON object decodes to all zeros. Golden JSON pins the wire
//! bytes of the snapshots that cross process boundaries.

use std::fmt::Debug;

use proptest::prelude::*;
use serde::{Content, Deserialize, Serialize};
use willump::PlanCountersSnapshot;
use willump_serve::{EndpointStatsSnapshot, ServerStatsSnapshot, TransportStats};

/// One counter's value: scalars as a single entry, `per_index`
/// counters as their vector.
type Values = Vec<Vec<u64>>;

/// The operations the generic checks drive, bound per snapshot type.
struct Set<T> {
    counters: &'static [(&'static str, &'static str)],
    merged: fn(T, T) -> T,
    delta: fn(&T, &T) -> T,
}

/// splitmix64: a seeded value source, so one proptest seed drives
/// every counter of every set.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A counter-sized value, small enough that sums never overflow.
    fn value(&mut self) -> u64 {
        self.next() >> 24
    }
}

fn is_vector(kind: &str) -> bool {
    kind == "per_index"
}

fn to_values<T: Serialize>(counters: &[(&str, &str)], snap: &T) -> Values {
    let Content::Map(pairs) = snap.to_content() else {
        panic!("snapshot serializes to a map");
    };
    assert_eq!(pairs.len(), counters.len());
    pairs
        .iter()
        .map(|(_, v)| match v {
            Content::Seq(items) => items.iter().map(as_u64).collect(),
            scalar => vec![as_u64(scalar)],
        })
        .collect()
}

fn as_u64(c: &Content) -> u64 {
    match c {
        Content::Int(i) => u64::try_from(*i).expect("counters are non-negative"),
        Content::UInt(u) => *u,
        other => panic!("counter value is an integer, got {other:?}"),
    }
}

fn from_values<T: Deserialize>(counters: &[(&str, &str)], values: &Values) -> T {
    let pairs = counters
        .iter()
        .zip(values)
        .map(|((name, kind), v)| {
            let content = if is_vector(kind) {
                Content::Seq(v.iter().map(|x| Content::UInt(*x)).collect())
            } else {
                Content::UInt(v[0])
            };
            ((*name).to_string(), content)
        })
        .collect();
    T::from_content(&Content::Map(pairs)).expect("snapshot decodes")
}

fn random_values(counters: &[(&str, &str)], rng: &mut Rng) -> Values {
    counters
        .iter()
        .map(|(_, kind)| {
            let len = if is_vector(kind) { rng.next() % 4 } else { 1 };
            (0..len).map(|_| rng.value()).collect()
        })
        .collect()
}

/// `later` grown from `earlier`: every counter moves forward (vectors
/// may gain entries), as cumulative counters do between two reads.
fn grown(counters: &[(&str, &str)], earlier: &Values, rng: &mut Rng) -> Values {
    counters
        .iter()
        .zip(earlier)
        .map(|((_, kind), v)| {
            let mut next: Vec<u64> = v.iter().map(|x| x + rng.value()).collect();
            if is_vector(kind) && rng.next().is_multiple_of(2) {
                next.push(rng.value());
            }
            next
        })
        .collect()
}

/// Field-wise expected `merged`: max for `max`, element-wise sum
/// otherwise (a shorter vector reads 0 past its end).
fn expected_merge(counters: &[(&str, &str)], a: &Values, b: &Values) -> Values {
    counters
        .iter()
        .zip(a.iter().zip(b))
        .map(|((_, kind), (x, y))| {
            let len = x.len().max(y.len());
            (0..len)
                .map(|i| {
                    let (p, q) = (
                        x.get(i).copied().unwrap_or(0),
                        y.get(i).copied().unwrap_or(0),
                    );
                    if *kind == "max" {
                        p.max(q)
                    } else {
                        p + q
                    }
                })
                .collect()
        })
        .collect()
}

fn check_set<T>(set: &Set<T>, seed: u64) -> Result<(), TestCaseError>
where
    T: Serialize + Deserialize + Default + Clone + PartialEq + Debug,
{
    let counters = set.counters;
    let mut rng = Rng(seed);

    // The serde keys are the declared names, in declaration order.
    let Content::Map(pairs) = T::default().to_content() else {
        panic!("snapshot serializes to a map");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    let declared: Vec<&str> = counters.iter().map(|(name, _)| *name).collect();
    prop_assert_eq!(keys, declared);

    // An empty object decodes to all zeros.
    let empty: T = serde_json::from_str("{}").expect("empty object decodes");
    prop_assert_eq!(&empty, &T::default());
    prop_assert!(to_values(counters, &empty)
        .iter()
        .flatten()
        .all(|&x| x == 0));

    // merged is the field-wise sum, or the max for `max` counters.
    let (a, b) = (
        random_values(counters, &mut rng),
        random_values(counters, &mut rng),
    );
    let merged = (set.merged)(from_values(counters, &a), from_values(counters, &b));
    prop_assert_eq!(
        to_values(counters, &merged),
        expected_merge(counters, &a, &b)
    );

    // Deltas telescope for every summed counter; a `max` delta
    // carries the later value.
    let mut history = vec![random_values(counters, &mut rng)];
    for _ in 0..4 {
        let next = grown(counters, history.last().expect("non-empty"), &mut rng);
        history.push(next);
    }
    let snaps: Vec<T> = history.iter().map(|v| from_values(counters, v)).collect();
    let mut acc = history[0].clone();
    for pair in snaps.windows(2) {
        let d = to_values(counters, &(set.delta)(&pair[1], &pair[0]));
        let later = to_values(counters, &pair[1]);
        for (i, (_, kind)) in counters.iter().enumerate() {
            if *kind == "max" {
                prop_assert_eq!(&d[i], &later[i]);
            } else {
                let len = d[i].len().max(acc[i].len());
                acc[i].resize(len, 0);
                for (x, y) in acc[i].iter_mut().zip(&d[i]) {
                    *x += y;
                }
            }
        }
    }
    let last = history.last().expect("non-empty");
    for (i, (name, kind)) in counters.iter().enumerate() {
        if *kind != "max" {
            prop_assert_eq!(&acc[i], &last[i], "counter {} does not telescope", name);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_counter_set_merges_telescopes_and_serializes(seed in any::<u64>()) {
        check_set(
            &Set {
                counters: PlanCountersSnapshot::COUNTERS,
                merged: PlanCountersSnapshot::merged,
                delta: PlanCountersSnapshot::delta,
            },
            seed,
        )?;
        check_set(
            &Set {
                counters: ServerStatsSnapshot::COUNTERS,
                merged: ServerStatsSnapshot::merged,
                delta: ServerStatsSnapshot::delta,
            },
            seed,
        )?;
        check_set(
            &Set {
                counters: EndpointStatsSnapshot::COUNTERS,
                merged: EndpointStatsSnapshot::merged,
                delta: EndpointStatsSnapshot::delta,
            },
            seed,
        )?;
        check_set(
            &Set {
                counters: TransportStats::COUNTERS,
                merged: TransportStats::merged,
                delta: TransportStats::delta,
            },
            seed,
        )?;
    }
}

/// The JSON bytes of the snapshots reported across processes and
/// exported by experiments, for fixed values: field names, order and
/// encoding are a compatibility contract.
#[test]
fn snapshot_json_bytes_are_stable() {
    let server = ServerStatsSnapshot {
        requests: 1,
        rows: 2,
        batches: 3,
        decode_errors: 4,
        route_errors: 5,
        coalesced_rows: 6,
        max_batch_rows: 7,
        remote_forwards: 8,
        remote_bytes_sent: 9,
        remote_bytes_received: 10,
        remote_max_in_flight: 11,
        transport_errors: 12,
        failovers: 13,
        degraded: 14,
        shed: 15,
        hot_keys: 16,
        probes_sent: 17,
        probes_ok: 18,
        worker_batches: vec![19, 20],
    };
    assert_eq!(
        serde_json::to_string(&server).expect("encodes"),
        r#"{"requests":1,"rows":2,"batches":3,"decode_errors":4,"route_errors":5,"coalesced_rows":6,"max_batch_rows":7,"remote_forwards":8,"remote_bytes_sent":9,"remote_bytes_received":10,"remote_max_in_flight":11,"transport_errors":12,"failovers":13,"degraded":14,"shed":15,"hot_keys":16,"probes_sent":17,"probes_ok":18,"worker_batches":[19,20]}"#
    );
    let endpoint = EndpointStatsSnapshot {
        requests: 1,
        rows: 2,
        coalesced_rows: 3,
        max_batch_rows: 4,
        shard_requests: 5,
        shard_transport_nanos: 6,
        remote_bytes_sent: 7,
        remote_bytes_received: 8,
        remote_max_in_flight: 9,
        transport_errors: 10,
        failovers: 11,
        degraded: 12,
        shed: 13,
        hot_keys: 14,
        probes_sent: 15,
        probes_ok: 16,
    };
    assert_eq!(
        serde_json::to_string(&endpoint).expect("encodes"),
        r#"{"requests":1,"rows":2,"coalesced_rows":3,"max_batch_rows":4,"shard_requests":5,"shard_transport_nanos":6,"remote_bytes_sent":7,"remote_bytes_received":8,"remote_max_in_flight":9,"transport_errors":10,"failovers":11,"degraded":12,"shed":13,"hot_keys":14,"probes_sent":15,"probes_ok":16}"#
    );
    let plan = PlanCountersSnapshot {
        rows: 1,
        gate_resolved: 2,
        escalated: 3,
        filter_dropped: 4,
    };
    assert_eq!(
        serde_json::to_string(&plan).expect("encodes"),
        r#"{"rows":1,"gate_resolved":2,"escalated":3,"filter_dropped":4}"#
    );
}
