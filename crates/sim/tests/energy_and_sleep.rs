//! Sleep-time accounting and the energy model, end to end.

use ttmqo_sim::{
    ConstantField, Ctx, Destination, EnergyProfile, FaultPlan, MsgKind, NodeApp, NodeId, Position,
    RadioParams, SimConfig, SimTime, Simulator, Topology,
};

#[derive(Debug, Default)]
struct Napper;

#[derive(Debug, Clone)]
enum Cmd {
    Sleep(u64),
    Wake,
    Send,
}

impl NodeApp for Napper {
    type Payload = ();
    type Command = Cmd;
    type Output = ();

    fn on_start(&mut self, _: &mut Ctx<'_, (), ()>) {}
    fn on_timer(&mut self, _: &mut Ctx<'_, (), ()>, _: u64) {}
    fn on_message(&mut self, _: &mut Ctx<'_, (), ()>, _: NodeId, _: MsgKind, _: &()) {}
    fn on_command(&mut self, ctx: &mut Ctx<'_, (), ()>, cmd: Cmd) {
        match cmd {
            Cmd::Sleep(ms) => ctx.sleep_for(ms),
            Cmd::Wake => ctx.wake(),
            Cmd::Send => ctx.send(Destination::Unicast(NodeId(0)), MsgKind::Result, 10, ()),
        }
    }
}

fn sim() -> Simulator<Napper> {
    Simulator::new(
        Topology::from_positions(
            vec![Position { x: 0.0, y: 0.0 }, Position { x: 20.0, y: 0.0 }],
            50.0,
        )
        .unwrap(),
        RadioParams::lossless(),
        SimConfig {
            maintenance_interval_ms: None,
            ..SimConfig::default()
        },
        Box::new(ConstantField),
        |_, _| Napper,
    )
}

#[test]
fn sleep_time_is_accounted() {
    let mut s = sim();
    s.schedule_command(SimTime::from_ms(100), NodeId(1), Cmd::Sleep(500));
    s.run_until(SimTime::from_ms(1000));
    assert!((s.metrics().node_sleep_ms(1) - 500.0).abs() < 1e-9);
    assert_eq!(s.metrics().node_sleep_ms(0), 0.0);
}

#[test]
fn early_wake_refunds_the_unspent_nap() {
    // Woken, or crashed (a failed node draws no power): either way the nap
    // ends at 300 ms and the rest of it is retracted.
    for crash in [false, true] {
        let mut s = sim();
        s.schedule_command(SimTime::from_ms(100), NodeId(1), Cmd::Sleep(800));
        if crash {
            s.install_fault_plan(&FaultPlan::scripted(vec![(NodeId(1), 300, None)]));
        } else {
            s.schedule_command(SimTime::from_ms(300), NodeId(1), Cmd::Wake);
        }
        s.run_until(SimTime::from_ms(1000));
        assert!(
            (s.metrics().node_sleep_ms(1) - 200.0).abs() < 1e-6,
            "slept 100..300 = 200 ms (crash: {crash}), got {}",
            s.metrics().node_sleep_ms(1)
        );
    }
}

#[test]
fn renewed_nap_does_not_double_count() {
    let mut s = sim();
    s.schedule_command(SimTime::from_ms(100), NodeId(1), Cmd::Sleep(400));
    // Re-plan mid-nap: total asleep should be 100..600 = 500 ms.
    s.schedule_command(SimTime::from_ms(200), NodeId(1), Cmd::Sleep(400));
    s.run_until(SimTime::from_ms(1000));
    assert!(
        (s.metrics().node_sleep_ms(1) - 500.0).abs() < 1e-6,
        "got {}",
        s.metrics().node_sleep_ms(1)
    );
}

#[test]
fn sleeping_network_consumes_less_energy() {
    let profile = EnergyProfile::default();
    let run = |sleep: bool| {
        let mut s = sim();
        if sleep {
            s.schedule_command(SimTime::from_ms(0), NodeId(1), Cmd::Sleep(10_000));
        }
        s.run_until(SimTime::from_ms(10_000));
        s.metrics().total_energy_mj(&profile)
    };
    let awake = run(false);
    let asleep = run(true);
    // One of two nodes sleeping the whole run ≈ halves the energy.
    assert!(asleep < awake * 0.6, "{asleep} !< 0.6 × {awake}");
}

#[test]
fn transmitting_costs_more_than_idling() {
    let profile = EnergyProfile::default();
    let run = |sends: usize| {
        let mut s = sim();
        for i in 0..sends {
            s.schedule_command(SimTime::from_ms(10 + i as u64 * 50), NodeId(1), Cmd::Send);
        }
        s.run_until(SimTime::from_ms(10_000));
        s.metrics().total_energy_mj(&profile)
    };
    let quiet = run(0);
    let chatty = run(100);
    assert!(
        chatty > quiet,
        "transmissions must add energy: {chatty} !> {quiet}"
    );
}
