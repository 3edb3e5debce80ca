//! Engine-level checkpoint/restore: resuming from a mid-run snapshot must be
//! observationally *bit-identical* to never having stopped — same outputs,
//! same metrics arithmetic, same RNG draws, same later checkpoints — and a
//! restored checkpoint can be forked under divergent fault plans.

use ttmqo_query::Attribute;
use ttmqo_sim::{
    Ctx, Destination, FaultPlan, MsgKind, NodeApp, NodeId, Observe, RadioParams, RandomCrashes,
    Restorable, SimConfig, SimTime, Simulator, SnapReader, SnapWriter, Snapshot, SnapshotError,
    Topology, UniformField,
};

/// A deliberately stateful app: periodic jittered sampling, unicast of a
/// running sum toward the base station, occasional radio sleep — touching
/// timers, the RNG, the frame path, the sleep path and the sensor field.
#[derive(Debug, Clone, PartialEq)]
struct Chatter {
    sent: u64,
    acc: f64,
    heard: u64,
}

impl Chatter {
    fn new() -> Self {
        Chatter {
            sent: 0,
            acc: 0.0,
            heard: 0,
        }
    }
}

impl Snapshot for Chatter {
    fn write(&self, w: &mut SnapWriter) {
        let Chatter { sent, acc, heard } = *self;
        w.put_u64(sent);
        w.put_f64(acc);
        w.put_u64(heard);
    }
}

impl Restorable for Chatter {
    fn read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Chatter {
            sent: r.u64()?,
            acc: r.f64()?,
            heard: r.u64()?,
        })
    }
}

impl NodeApp for Chatter {
    type Payload = f64;
    type Command = u64;
    type Output = (u64, f64);

    fn on_start(&mut self, ctx: &mut Ctx<'_, f64, (u64, f64)>) {
        if !ctx.is_base_station() {
            let jitter = ctx.rand_u64() % 500;
            ctx.set_timer(100 + jitter, 1);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, f64, (u64, f64)>, _key: u64) {
        let v = ctx.read_sensor(Attribute::Light);
        self.acc += v;
        self.sent += 1;
        ctx.send(
            Destination::Unicast(NodeId::BASE_STATION),
            MsgKind::Result,
            8,
            self.acc,
        );
        if ctx.rand_u64().is_multiple_of(4) {
            ctx.sleep_for(50);
        }
        let jitter = ctx.rand_u64() % 400;
        ctx.set_timer(400 + jitter, 1);
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, f64, (u64, f64)>,
        _from: NodeId,
        _kind: MsgKind,
        payload: &f64,
    ) {
        self.heard += 1;
        if ctx.is_base_station() && self.heard.is_multiple_of(8) {
            ctx.emit((self.heard, *payload));
        }
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_, f64, (u64, f64)>, cmd: u64) {
        ctx.emit((cmd, -1.0));
    }
}

fn build(with_faults: bool) -> Simulator<Chatter> {
    let topo = Topology::grid(4).unwrap();
    let radio = RadioParams {
        loss_rate: 0.05,
        ..RadioParams::default()
    };
    let mut sim = Simulator::new(
        topo,
        radio,
        SimConfig::default(),
        Box::new(UniformField::new(0xF1E1D)),
        |_, _| Chatter::new(),
    );
    sim.attach(&Observe {
        timeseries: true,
        ..Observe::default()
    });
    if with_faults {
        sim.install_fault_plan(&fault_plan(0xFA17));
    }
    sim
}

fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        random_crashes: Some(RandomCrashes {
            fraction: 0.2,
            from_ms: 4_000,
            until_ms: 9_000,
            outage_ms: Some(2_000),
        }),
        ..FaultPlan::default()
    }
}

fn restore(bytes: &[u8]) -> Simulator<Chatter> {
    Simulator::restore(bytes, Box::new(UniformField::new(0xF1E1D)), |_, _| {
        Chatter::new()
    })
    .expect("snapshot restores")
}

#[test]
fn resume_is_bit_identical_to_straight_run() {
    for with_faults in [false, true] {
        let mut straight = build(with_faults);
        straight.run_until(SimTime::from_ms(12_000));

        let mut interrupted = build(with_faults);
        interrupted.run_until(SimTime::from_ms(5_000));
        let bytes = interrupted.checkpoint();
        drop(interrupted);
        let mut resumed = restore(&bytes);
        resumed.run_until(SimTime::from_ms(12_000));

        assert_eq!(
            straight.outputs(),
            resumed.outputs(),
            "faults={with_faults}: outputs diverged"
        );
        assert_eq!(
            straight.metrics().snapshot(),
            resumed.metrics().snapshot(),
            "faults={with_faults}: metrics diverged"
        );
        assert_eq!(straight.engine_stats(), resumed.engine_stats());
        // The strongest equivalence: both futures checkpoint to the same
        // bytes, so every field of the full state matches, not just the
        // observables we thought to compare.
        assert_eq!(
            straight.checkpoint(),
            resumed.checkpoint(),
            "faults={with_faults}: end-state snapshots differ"
        );
    }
}

#[test]
fn checkpoints_can_be_taken_repeatedly_along_one_run() {
    let mut straight = build(false);
    straight.run_until(SimTime::from_ms(12_000));
    let reference = straight.checkpoint();

    // Checkpoint every 3 simulated seconds, restoring the latest each time.
    let mut sim = build(false);
    for t in [3_000u64, 6_000, 9_000, 12_000] {
        sim.run_until(SimTime::from_ms(t));
        let bytes = sim.checkpoint();
        sim = restore(&bytes);
    }
    assert_eq!(sim.checkpoint(), reference);
}

#[test]
fn fork_with_divergent_fault_plans() {
    let mut sim = build(false);
    sim.run_until(SimTime::from_ms(4_000));
    let bytes = sim.checkpoint();

    // Two forks with different fault futures, one control with none.
    let mut fork_a = restore(&bytes);
    fork_a.replace_fault_plan(&fault_plan(1));
    let mut fork_b = restore(&bytes);
    fork_b.replace_fault_plan(&fault_plan(2));
    let mut control = restore(&bytes);
    fork_a.run_until(SimTime::from_ms(12_000));
    fork_b.run_until(SimTime::from_ms(12_000));
    control.run_until(SimTime::from_ms(12_000));

    let (a, b, c) = (
        fork_a.metrics().snapshot(),
        fork_b.metrics().snapshot(),
        control.metrics().snapshot(),
    );
    assert_ne!(a, c, "fork A's crashes must be observable");
    assert_ne!(b, c, "fork B's crashes must be observable");
    assert_ne!(a, b, "different plans must diverge");

    // Same plan twice from the same checkpoint: identical futures.
    let mut twin_a = restore(&bytes);
    twin_a.replace_fault_plan(&fault_plan(1));
    twin_a.run_until(SimTime::from_ms(12_000));
    assert_eq!(twin_a.checkpoint(), fork_a.checkpoint());
}

#[test]
fn replacing_an_existing_plan_retracts_pending_fault_events() {
    // Checkpoint a run that already has crash/recovery events queued, then
    // fork it under a *different* plan: the old plan's events must be gone.
    let mut sim = build(true);
    sim.run_until(SimTime::from_ms(2_000));
    let bytes = sim.checkpoint();

    let mut swapped = restore(&bytes);
    swapped.replace_fault_plan(&FaultPlan::default());
    swapped.run_until(SimTime::from_ms(12_000));
    // FaultPlan::default() is empty: no fault events may fire after the swap.
    assert_eq!(swapped.engine_stats().fault_events, 0);

    let mut kept = restore(&bytes);
    kept.run_until(SimTime::from_ms(12_000));
    assert!(kept.engine_stats().fault_events > 0);
}

#[test]
fn corrupted_snapshots_error_and_never_panic() {
    let mut sim = build(false);
    sim.run_until(SimTime::from_ms(5_000));
    let pristine = sim.checkpoint();

    // Sanity: pristine restores.
    restore(&pristine);

    // Truncation at every prefix length.
    for cut in 0..pristine.len().min(256) {
        let err = Simulator::<Chatter>::restore(
            &pristine[..cut],
            Box::new(UniformField::new(0xF1E1D)),
            |_, _| Chatter::new(),
        )
        .expect_err("truncated snapshot must not restore");
        let _ = err.to_string();
    }
    let err = Simulator::<Chatter>::restore(
        &pristine[..pristine.len() - 1],
        Box::new(UniformField::new(0xF1E1D)),
        |_, _| Chatter::new(),
    )
    .expect_err("truncated snapshot must not restore");
    assert!(matches!(err, SnapshotError::Truncated { .. }));

    // A bit flip anywhere in the document fails closed (header fields fail
    // magic/version/length checks; payload bytes fail the CRC).
    let stride = (pristine.len() / 97).max(1);
    for byte in (0..pristine.len()).step_by(stride) {
        let mut corrupt = pristine.clone();
        corrupt[byte] ^= 0x10;
        let err = Simulator::<Chatter>::restore(
            &corrupt,
            Box::new(UniformField::new(0xF1E1D)),
            |_, _| Chatter::new(),
        )
        .expect_err("bit-flipped snapshot must not restore");
        let _ = err.to_string();
    }
}

#[test]
fn version_mismatch_reports_both_versions() {
    let mut sim = build(false);
    sim.run_until(SimTime::from_ms(1_000));
    let mut bytes = sim.checkpoint();
    let stale = ttmqo_sim::SCHEMA_VERSION + 7;
    bytes[8..12].copy_from_slice(&stale.to_le_bytes());
    let err =
        Simulator::<Chatter>::restore(&bytes, Box::new(UniformField::new(0xF1E1D)), |_, _| {
            Chatter::new()
        })
        .expect_err("stale snapshot must not restore");
    assert_eq!(
        err,
        SnapshotError::VersionMismatch {
            found: stale,
            expected: ttmqo_sim::SCHEMA_VERSION
        }
    );
    let msg = err.to_string();
    assert!(
        msg.contains(&stale.to_string()) && msg.contains(&ttmqo_sim::SCHEMA_VERSION.to_string())
    );
}
