//! Doorbell-batched read path: `Txn::read_many` / `probe_version_many` /
//! `fetch_many` must return byte-identical answers to their scalar
//! counterparts while posting far fewer one-sided verbs.

use a1_farm::{
    FarmCluster, FarmConfig, FarmError, FaultDecision, FaultInjector, FetchReq, FetchResp, Hint,
    MachineId, NetOp, Ptr,
};
use std::sync::{Arc, Mutex};

/// Allocate `n` objects spread across the cluster's machines, each with a
/// distinct payload, committed in one transaction per object.
fn seed_objects(farm: &Arc<FarmCluster>, n: usize, machines: u32) -> Vec<Ptr> {
    (0..n)
        .map(|i| {
            let m = MachineId(i as u32 % machines);
            farm.run(m, move |tx| {
                tx.alloc(16, Hint::Machine(m), &[(i as u8).wrapping_add(1); 16])
            })
            .unwrap()
        })
        .collect()
}

#[test]
fn read_many_matches_scalar_with_fewer_verbs() {
    let farm = FarmCluster::start(FarmConfig::small(4));
    let ptrs = seed_objects(&farm, 12, 4);

    let mut scalar_tx = farm.begin_read_only(MachineId(0));
    let scalar: Vec<_> = ptrs.iter().map(|&p| scalar_tx.read(p).unwrap()).collect();
    let scalar_verbs = scalar_tx.fetch_verbs();
    drop(scalar_tx);

    let before = farm.fabric().metrics().snapshot();
    let mut tx = farm.begin_read_only(MachineId(0));
    let batched = tx.read_many(&ptrs);
    let batched_verbs = tx.fetch_verbs();
    let d = farm.fabric().metrics().snapshot().delta_since(&before);

    for (s, b) in scalar.iter().zip(&batched) {
        let b = b.as_ref().unwrap();
        assert_eq!(s.data(), b.data(), "payloads must be byte-identical");
        assert_eq!(s.version, b.version);
        assert_eq!(s.capacity, b.capacity);
    }
    assert_eq!(scalar_verbs, 12, "scalar path posts one verb per object");
    assert!(
        batched_verbs <= 4,
        "one doorbell per machine, got {batched_verbs}"
    );
    assert_eq!(d.reads_batched, 12);
    assert!(d.doorbells <= 4, "got {} doorbells", d.doorbells);
}

#[test]
fn probe_version_many_matches_scalar() {
    let farm = FarmCluster::start(FarmConfig::small(3));
    let ptrs = seed_objects(&farm, 9, 3);
    // Free one object so the batch carries a NotFound slot.
    let freed = ptrs[4];
    farm.run(MachineId(0), move |tx| {
        let buf = tx.read(freed)?;
        tx.free(&buf)
    })
    .unwrap();

    let mut scalar_tx = farm.begin_read_only(MachineId(1));
    let scalar: Vec<_> = ptrs
        .iter()
        .map(|&p| scalar_tx.probe_version(p.addr))
        .collect();
    drop(scalar_tx);

    let mut tx = farm.begin_read_only(MachineId(1));
    let batched = tx.probe_version_many(&ptrs.iter().map(|p| p.addr).collect::<Vec<_>>());
    assert!(tx.fetch_verbs() <= 3);

    for (i, (s, b)) in scalar.iter().zip(&batched).enumerate() {
        match (s, b) {
            (Ok(sh), Ok(bh)) => {
                assert_eq!(sh.version, bh.version, "slot {i}");
                assert_eq!(sh.state, bh.state, "slot {i}");
            }
            (Err(FarmError::NotFound(sa)), Err(FarmError::NotFound(ba))) => {
                assert_eq!(sa, ba, "slot {i}")
            }
            other => panic!("slot {i} diverged: {other:?}"),
        }
    }
    assert!(batched[4].is_err(), "freed object must not revalidate");
}

#[test]
fn fetch_many_mixes_reads_and_probes_in_one_doorbell() {
    let farm = FarmCluster::start(FarmConfig::small(2));
    // All objects on machine 1, fetched from machine 0: reads and probes
    // against the same primary must share a single post.
    let ptrs: Vec<Ptr> = (0..8)
        .map(|i| {
            farm.run(MachineId(1), move |tx| {
                tx.alloc(16, Hint::Machine(MachineId(1)), &[i as u8; 16])
            })
            .unwrap()
        })
        .collect();

    let before = farm.fabric().metrics().snapshot();
    let mut tx = farm.begin_read_only(MachineId(0));
    let reqs: Vec<FetchReq> = ptrs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if i % 2 == 0 {
                FetchReq::Read(*p)
            } else {
                FetchReq::Probe(p.addr)
            }
        })
        .collect();
    let got = tx.fetch_many(&reqs);
    let d = farm.fabric().metrics().snapshot().delta_since(&before);

    assert_eq!(d.doorbells, 1, "reads and probes share one doorbell");
    assert_eq!(tx.fetch_verbs(), 1);
    for (i, slot) in got.iter().enumerate() {
        match slot.as_ref().unwrap() {
            FetchResp::Obj(buf) => {
                assert_eq!(i % 2, 0);
                assert_eq!(buf.data(), &[i as u8; 16]);
            }
            FetchResp::Hdr(h) => {
                assert_eq!(i % 2, 1);
                assert!(h.version > 0);
            }
        }
    }
}

/// Satellite: old-version round trips fold into the batch. A read-only
/// snapshot that finds every object too new pays one batched read post plus
/// one batched old-version post — not one of each per object. This test pins
/// the verb count.
#[test]
fn old_version_reads_batch_into_two_posts() {
    let farm = FarmCluster::start(FarmConfig::small(2));
    let ptrs: Vec<Ptr> = (0..8)
        .map(|i| {
            farm.run(MachineId(1), move |tx| {
                tx.alloc(16, Hint::Machine(MachineId(1)), &[i as u8; 16])
            })
            .unwrap()
        })
        .collect();

    // Pin a snapshot, then overwrite every object so the snapshot must be
    // served from the old-version store.
    let mut tx = farm.begin_read_only(MachineId(0));
    for &p in &ptrs {
        let farm = farm.clone();
        farm.run(MachineId(1), move |wtx| {
            let buf = wtx.read(p)?;
            wtx.update(&buf, vec![0xEE; 16])
        })
        .unwrap();
    }

    let batched = tx.read_many(&ptrs);
    for (i, b) in batched.iter().enumerate() {
        assert_eq!(
            b.as_ref().unwrap().data(),
            &[i as u8; 16],
            "snapshot must see pre-update bytes"
        );
    }
    assert_eq!(
        tx.fetch_verbs(),
        2,
        "one batched read post + one batched old-version post"
    );

    // The scalar path answers identically (but pays per-object verbs).
    let mut scalar_tx = farm.begin_read_only_at(MachineId(0), tx.read_ts());
    for (i, &p) in ptrs.iter().enumerate() {
        assert_eq!(scalar_tx.read(p).unwrap().data(), &[i as u8; 16]);
    }
    assert_eq!(scalar_tx.fetch_verbs(), 16);
}

#[test]
fn fetch_many_serves_pending_writes_locally() {
    let farm = FarmCluster::start(FarmConfig::small(2));
    let ptr = farm
        .run(MachineId(0), |tx| tx.alloc(16, Hint::Local, &[1; 16]))
        .unwrap();

    let mut tx = farm.begin(MachineId(0));
    let buf = tx.read(ptr).unwrap();
    tx.update(&buf, vec![9; 16]).unwrap();
    let got = tx.fetch_many(&[FetchReq::Read(ptr), FetchReq::Probe(ptr.addr)]);
    match got[0].as_ref().unwrap() {
        FetchResp::Obj(b) => assert_eq!(b.data(), &[9; 16], "read-your-writes"),
        other => panic!("expected object, got {other:?}"),
    }
    assert!(
        matches!(got[1], Err(FarmError::Conflict)),
        "probe of a pending write must conflict, got {:?}",
        got[1]
    );
    tx.abort();
}

#[test]
fn doomed_read_write_txn_conflicts_in_slot() {
    let farm = FarmCluster::start(FarmConfig::small(2));
    let ptr = farm
        .run(MachineId(0), |tx| tx.alloc(16, Hint::Local, &[1; 16]))
        .unwrap();

    let mut tx = farm.begin(MachineId(0));
    // A competing writer moves the object past our snapshot.
    farm.run(MachineId(1), move |wtx| {
        let buf = wtx.read(ptr)?;
        wtx.update(&buf, vec![2; 16])
    })
    .unwrap();
    let got = tx.read_many(&[ptr]);
    assert!(
        matches!(got[0], Err(FarmError::Conflict)),
        "read-write txn past its snapshot is doomed, got {:?}",
        got[0]
    );
    tx.abort();
}

/// Records the destination of every remote one-sided read; once `cut` is
/// set, drops them instead (a partition that starts mid-transaction).
#[derive(Default)]
struct ReadTap {
    seen: Mutex<Vec<MachineId>>,
    cut: std::sync::atomic::AtomicBool,
}

impl FaultInjector for ReadTap {
    fn decide(&self, op: NetOp, from: MachineId, to: MachineId, _: usize) -> FaultDecision {
        if op != NetOp::Read || from == to {
            return FaultDecision::Deliver;
        }
        if self.cut.load(std::sync::atomic::Ordering::SeqCst) {
            return FaultDecision::Drop;
        }
        self.seen.lock().unwrap().push(to);
        FaultDecision::Deliver
    }
}

/// Post order is part of what a seeded simulation replays (the injector's
/// decision sequence, its trace lines, virtual-clock advances): a fetch
/// that spans machines posts to them in ascending `MachineId` order, however
/// the requests were ordered and whatever the process's hash seed.
#[test]
fn batched_posts_go_out_in_machine_order() {
    let farm = FarmCluster::start(FarmConfig::small(6));
    let mut ptrs = seed_objects(&farm, 18, 6);
    ptrs.reverse();
    ptrs.swap(2, 11);
    let tap = Arc::new(ReadTap::default());
    farm.fabric().set_fault_injector(Some(tap.clone()));
    let mut tx = farm.begin_read_only(MachineId(0));
    assert!(tx.read_many(&ptrs).iter().all(Result::is_ok));
    let five: Vec<MachineId> = (1..6).map(MachineId).collect();
    assert_eq!(*tap.seen.lock().unwrap(), five, "header fetch");

    // Same for the old-version round: move every object past a pinned
    // snapshot, then read them all through it.
    let mut old = farm.begin_read_only(MachineId(0));
    for &p in &ptrs {
        farm.run(MachineId(0), move |wtx| {
            let buf = wtx.read(p)?;
            wtx.update(&buf, vec![0xEE; 16])
        })
        .unwrap();
    }
    tap.seen.lock().unwrap().clear();
    assert!(old.read_many(&ptrs).iter().all(Result::is_ok));
    assert_eq!(
        *tap.seen.lock().unwrap(),
        [&five[..], &five[..]].concat(),
        "current versions, then old versions"
    );
}

/// Fetching an old version is a round trip to the primary like any other:
/// a reader cut off from the primary between reading the (too new) current
/// version and fetching the old one gets a clean error, not an answer from
/// across the partition — and the snapshot is still there once it heals.
#[test]
fn old_version_read_across_a_partition_fails_clean() {
    let farm = FarmCluster::start(FarmConfig::small(2));
    let ptr = farm
        .run(MachineId(1), |tx| {
            tx.alloc(16, Hint::Machine(MachineId(1)), &[1; 16])
        })
        .unwrap();
    let ts = farm.begin_read_only(MachineId(0)).read_ts();
    farm.run(MachineId(1), move |wtx| {
        let buf = wtx.read(ptr)?;
        wtx.update(&buf, vec![2; 16])
    })
    .unwrap();

    /// Lets one remote read through, then cuts.
    struct CutAfterOne(ReadTap);
    impl FaultInjector for CutAfterOne {
        fn decide(&self, op: NetOp, from: MachineId, to: MachineId, len: usize) -> FaultDecision {
            let ruling = self.0.decide(op, from, to, len);
            if !self.0.seen.lock().unwrap().is_empty() {
                self.0.cut.store(true, std::sync::atomic::Ordering::SeqCst);
            }
            ruling
        }
    }
    for batched in [false, true] {
        let tap = Arc::new(CutAfterOne(ReadTap::default()));
        farm.fabric().set_fault_injector(Some(tap.clone()));
        let mut tx = farm.begin_read_only_at(MachineId(0), ts);
        let got = if batched {
            tx.read_many(&[ptr]).pop().unwrap()
        } else {
            tx.read(ptr)
        };
        assert!(
            matches!(got, Err(FarmError::Unavailable(_))),
            "batched={batched}: {got:?}"
        );
        assert_eq!(tap.0.seen.lock().unwrap().len(), 1, "current version only");
        farm.fabric().set_fault_injector(None);
        assert_eq!(tx.read(ptr).unwrap().data(), &[1; 16], "healed");
    }
}
