//! Crash-recovery acceptance suite for the durability layer
//! (DESIGN.md's "Durability & crash recovery"):
//!
//! * for **any** random edit script, **any** snapshot cut point and
//!   **any** crash point in the journaled tail — a clean stop, a torn
//!   write mid-record, or an injected fault at the `store::append` fail
//!   point — recovery yields a reasoner **bit-identical** (byte-equal
//!   snapshot payloads: same `Σ`, same stable ids, same warm cache
//!   entries) to a live process that executed exactly the committed
//!   prefix and never crashed;
//! * **any** single flipped byte in a snapshot file is rejected with a
//!   typed [`StoreError::Corrupt`]; a flipped byte in a WAL is either
//!   rejected the same way or — when the damage is indistinguishable
//!   from a torn final append — reported as a truncation back to a
//!   strict prefix of the original records. Never a silently wrong
//!   answer;
//! * the snapshot file format is **byte-stable**: a pinned workload
//!   produces the exact golden bytes, re-blessed only by an explicit
//!   `UPDATE_GOLDENS=1` run.

use std::path::PathBuf;
use std::sync::Arc;

use nalist::gen::{random_edit_script, EditConfig, EditOp};
use nalist::guard::{FailAction, FailPoint};
use nalist::membership::{recover, WalOp};
use nalist::obs::NoopRecorder;
use nalist::prelude::*;
use nalist::store::{read_snapshot, read_wal, write_snapshot};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn temp_dir(tag: &str, seed: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "nalist_durability_{tag}_{}_{seed}",
        std::process::id()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn apply(r: &mut Reasoner, alg: &Algebra, op: &EditOp) {
    let b = Budget::unlimited();
    match op {
        EditOp::Add(d) => {
            r.add(d.decompile(alg)).expect("generated Σ compiles");
        }
        EditOp::Remove(d) => {
            assert!(r.remove(&d.decompile(alg)).expect("compiles"));
        }
        EditOp::Query(d) => {
            r.implies(d, &b).expect("compiles");
        }
    }
}

/// The WAL record a script op journals: the same abbreviated dependency
/// text the snapshot payload stores.
fn wal_op(n: &NestedAttr, alg: &Algebra, op: &EditOp) -> WalOp {
    let text = |d: &CompiledDep| d.decompile(alg).display_in(n);
    match op {
        EditOp::Add(d) => WalOp::Add(text(d)),
        EditOp::Remove(d) => WalOp::Remove(text(d)),
        EditOp::Query(d) => WalOp::Query(text(d)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random script, random snapshot cut, random crash point and
    /// random crash flavor: recovery is bit-identical to the uncrashed
    /// prefix execution.
    #[test]
    fn any_crash_point_recovers_bit_identically(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(4..=14);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let script = random_edit_script(&mut rng, &alg, &EditConfig::default());
        let cut = rng.gen_range(0..=script.len());
        let tail = &script[cut..];
        // committed: how many tail ops the crashed process fully journaled
        let committed = rng.gen_range(0..=tail.len());
        // crash flavors: 0 = clean stop after `committed` appends,
        // 1 = torn write mid-record on the next append,
        // 2 = injected fault at store::append on the next append
        let flavor = if committed < tail.len() { rng.gen_range(0..3u8) } else { 0 };

        let dir = temp_dir("crash", seed);
        let snap_path = dir.join("state.snap");
        let wal_path = dir.join("ops.wal");

        // the process that crashes: snapshot at `cut`, then journal-
        // before-apply the tail
        let mut live = Reasoner::new(&n);
        for op in &script[..cut] {
            apply(&mut live, &alg, op);
        }
        nalist::membership::write_reasoner_snapshot(
            &snap_path, &live, &Budget::unlimited(), &NoopRecorder,
        ).expect("snapshot writes");
        let mut wal = WalWriter::create(&wal_path, false).expect("wal creates");
        let budget = Budget::unlimited();
        wal.append(
            &WalOp::Header { schema: n.to_string() }.encode(),
            &budget,
            &NoopRecorder,
        ).expect("header appends");
        for op in &tail[..committed] {
            wal.append(&wal_op(&n, &alg, op).encode(), &budget, &NoopRecorder)
                .expect("append succeeds");
        }
        match flavor {
            1 => {
                // torn write: the next record reaches the disk only
                // partially (crash mid-`write`)
                let op = &tail[committed];
                wal.append(&wal_op(&n, &alg, op).encode(), &budget, &NoopRecorder)
                    .expect("append succeeds");
                drop(wal);
                let full = std::fs::metadata(&wal_path).unwrap().len();
                let record_start = {
                    let replay = read_wal(&wal_path).unwrap();
                    let last = replay.records.last().unwrap();
                    full - 8 - last.len() as u64
                };
                let torn = rng.gen_range(record_start + 1..full);
                let f = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
                f.set_len(torn).unwrap();
            }
            2 => {
                // injected fault: the fail point fires before any byte
                // is written, like a crash between the decision to
                // journal and the write itself
                let armed = Budget::unlimited().with_failpoint(FailPoint::nth(
                    "store::append",
                    0,
                    FailAction::ExhaustFuel,
                ));
                let op = &tail[committed];
                let err = wal.append(&wal_op(&n, &alg, op).encode(), &armed, &NoopRecorder);
                prop_assert!(err.is_err(), "armed fail point must fire");
                drop(wal);
            }
            _ => drop(wal),
        }

        // the process that never crashed, stopped at the same point
        let mut expected = Reasoner::new(&n);
        for op in &script[..cut + committed] {
            apply(&mut expected, &alg, op);
        }

        let report = recover(
            &snap_path,
            Some(&wal_path),
            &Budget::unlimited(),
            Arc::new(NoopRecorder),
        ).expect("recovery succeeds");
        prop_assert_eq!(
            report.truncated_at.is_some(),
            flavor == 1,
            "torn-tail report mismatch"
        );
        prop_assert_eq!(
            report.replayed(),
            committed as u64,
            "replayed op count"
        );
        prop_assert_eq!(
            snapshot_payload(&report.reasoner),
            snapshot_payload(&expected),
            "recovered state diverged from the uncrashed prefix execution"
        );
        prop_assert_eq!(report.reasoner.dep_ids(), expected.dep_ids());
        prop_assert_eq!(report.reasoner.next_dep_id(), expected.next_dep_id());
        prop_assert_eq!(
            report.reasoner.cache_stats().entries,
            expected.cache_stats().entries,
            "cache warmth diverged"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Any single flipped byte, anywhere in a snapshot file, is
    /// rejected with the typed corruption error — and recovery through
    /// the full stack errors out rather than answering from damaged
    /// state.
    #[test]
    fn any_flipped_snapshot_byte_is_rejected_typed(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let atoms = rng.gen_range(4..=12);
        let n = nalist::gen::attr_with_atoms(&mut rng, atoms);
        let alg = Algebra::new(&n);
        let script = random_edit_script(&mut rng, &alg, &EditConfig::default());
        let mut r = Reasoner::new(&n);
        for op in script.iter().take(8) {
            apply(&mut r, &alg, op);
        }
        let dir = temp_dir("flip_snap", seed);
        let path = dir.join("state.snap");
        nalist::membership::write_reasoner_snapshot(
            &path, &r, &Budget::unlimited(), &NoopRecorder,
        ).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        // one random flip per proptest case, plus the three structural
        // hot spots (magic, version, crc) every time
        let mut targets = vec![0usize, 8, 16, rng.gen_range(0..pristine.len())];
        targets.dedup();
        for at in targets {
            let mut bad = pristine.clone();
            bad[at] ^= 1 << rng.gen_range(0..8u8);
            std::fs::write(&path, &bad).unwrap();
            match read_snapshot(&path) {
                Err(StoreError::Corrupt { .. }) => {}
                other => prop_assert!(
                    false,
                    "flip at byte {at}: expected Corrupt, got {other:?}"
                ),
            }
            let full = recover(&path, None, &Budget::unlimited(), Arc::new(NoopRecorder));
            prop_assert!(full.is_err(), "flip at byte {at}: recover must fail");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Any single flipped byte in a WAL either surfaces as typed
    /// corruption or — when indistinguishable from a torn final append
    /// — as a reported truncation back to a strict prefix of the
    /// original records. Never a reordered, altered or invented record.
    #[test]
    fn any_flipped_wal_byte_is_corrupt_or_a_reported_prefix(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = temp_dir("flip_wal", seed);
        let path = dir.join("ops.wal");
        let mut wal = WalWriter::create(&path, false).unwrap();
        let budget = Budget::unlimited();
        let ops = [
            WalOp::Header { schema: "L(A, B, C)".to_string() },
            WalOp::Add("L(A) -> L(B)".to_string()),
            WalOp::Query("L(A) ->> L(C)".to_string()),
            WalOp::Remove("L(A) -> L(B)".to_string()),
        ];
        for op in &ops {
            wal.append(&op.encode(), &budget, &NoopRecorder).unwrap();
        }
        drop(wal);
        let pristine = std::fs::read(&path).unwrap();
        let original = read_wal(&path).unwrap();
        prop_assert!(original.truncated_at.is_none());
        let at = rng.gen_range(0..pristine.len());
        let mut bad = pristine.clone();
        bad[at] ^= 1 << rng.gen_range(0..8u8);
        std::fs::write(&path, &bad).unwrap();
        match read_wal(&path) {
            Err(StoreError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "flip at {at}: unexpected error {other:?}"),
            Ok(replay) => {
                prop_assert!(
                    replay.truncated_at.is_some(),
                    "flip at {at}: accepted undamaged? records {} of {}",
                    replay.records.len(),
                    original.records.len()
                );
                prop_assert!(
                    replay.records.len() < original.records.len(),
                    "flip at {at}: truncation must drop at least the damaged record"
                );
                for (i, rec) in replay.records.iter().enumerate() {
                    prop_assert_eq!(
                        rec,
                        &original.records[i],
                        "flip at {at}: surviving record {i} altered"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Hex dump used for the byte-pinned golden: 32 bytes per line.
fn hex_dump(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(bytes.len() * 2 + bytes.len() / 16);
    for chunk in bytes.chunks(32) {
        for b in chunk {
            write!(out, "{b:02x}").unwrap();
        }
        out.push('\n');
    }
    out
}

/// The snapshot format is byte-stable: the pinned workload (the paper's
/// running example, warmed with the Example 4.2 queries) produces
/// exactly the golden file bytes — header, CRC and payload. Any change
/// to the encoding is a format break and must be made consciously:
/// bless a new golden with `UPDATE_GOLDENS=1` and bump
/// [`nalist::store::SNAPSHOT_VERSION`].
#[test]
fn snapshot_format_is_byte_stable() {
    let b = Budget::unlimited();
    let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
    let mut r = Reasoner::new(&n);
    r.add_str("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
        .unwrap();
    r.add_str("Pubcrawl(Visit[Drink(Beer)]) -> Pubcrawl(Visit[Drink(Pub)])")
        .unwrap();
    assert!(r
        .implies_str("Pubcrawl(Person) -> Pubcrawl(Visit[λ])", &b)
        .unwrap());
    r.remove_at(1);
    r.add_str("Pubcrawl(Person) -> Pubcrawl(Visit[λ])").unwrap();
    let dir = temp_dir("golden", 0);
    let path = dir.join("golden.snap");
    write_snapshot(&path, &snapshot_payload(&r), &b, &NoopRecorder).unwrap();
    let got = hex_dump(&std::fs::read(&path).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/store_fixtures/snapshot_format.golden"
    );
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(golden_path).parent().unwrap()).unwrap();
        std::fs::write(golden_path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(golden_path).unwrap_or_else(|e| {
        panic!("no golden at {golden_path} ({e}); run with UPDATE_GOLDENS=1 to bless one")
    });
    assert_eq!(
        got, want,
        "snapshot bytes drifted from the golden — if the format change is \
         intentional, bump SNAPSHOT_VERSION and re-bless with UPDATE_GOLDENS=1"
    );
}
