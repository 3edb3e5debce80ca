//! The event queue's determinism contract: a `BinaryHeap<Event<_>>` pops in
//! exactly ascending `(time_us, seq)` order on engine-shaped streams. The
//! model is the pushed stream itself, sorted — not a second heap, which would
//! be the same code checking itself.

use super::{Event, EventKind};
use proptest::prelude::*;
use std::collections::BinaryHeap;

/// One scripted step. Times are relative to the last popped event, as in
/// the engine, which never schedules into the past.
#[derive(Debug, Clone)]
enum Op {
    /// A burst of events at one instant (a flood reaching a neighbourhood).
    Ties {
        delta_us: u64,
        count: usize,
    },
    /// A `Deliver` behind a CSMA backlog: within a few hundred ms.
    Near {
        delta_us: u64,
    },
    /// A maintenance beacon: about 30 s out.
    Sparse {
        jitter_us: u64,
    },
    Pop,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Near-future pushes and pops dominate, so the queue builds a dense
    // cluster and drains through it.
    let op =
        (0usize..7, 0u64..300_000, 1usize..3_000).prop_map(|(sel, delta_us, count)| match sel {
            0 => Op::Ties {
                delta_us: delta_us % 2_000,
                count,
            },
            1..=3 => Op::Near { delta_us },
            4 => Op::Sparse {
                jitter_us: delta_us * 3,
            },
            _ => Op::Pop,
        });
    prop::collection::vec(op, 0..120)
}

/// `(time_us, seq, frame)` of an event; `frame` shows the payload travelled
/// with its key.
fn key(e: &Event<()>) -> (u64, u64, usize) {
    let EventKind::Deliver { frame } = e.kind else {
        panic!("only Deliver events are pushed");
    };
    (e.time_us, e.seq, frame)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pops_are_the_stream_sorted_by_time_then_seq(ops in arb_ops()) {
        let mut queue: BinaryHeap<Event<()>> = BinaryHeap::new();
        // Everything pushed and not yet popped, in push order.
        let mut pending: Vec<(u64, u64, usize)> = Vec::new();
        let (mut now, mut seq) = (0u64, 0u64);
        let mut push = |queue: &mut BinaryHeap<_>, pending: &mut Vec<_>, time_us: u64| {
            seq += 1;
            let frame = (seq * 2) as usize;
            queue.push(Event { time_us, seq, kind: EventKind::Deliver { frame } });
            pending.push((time_us, seq, frame));
        };
        for op in ops {
            match op {
                Op::Ties { delta_us, count } => {
                    for _ in 0..count {
                        push(&mut queue, &mut pending, now + delta_us);
                    }
                }
                Op::Near { delta_us } => push(&mut queue, &mut pending, now + delta_us),
                Op::Sparse { jitter_us } => {
                    push(&mut queue, &mut pending, now + 30_000_000 + jitter_us)
                }
                Op::Pop => {
                    let expected = pending.iter().copied().min();
                    prop_assert_eq!(queue.pop().as_ref().map(key), expected);
                    if let Some(min) = expected {
                        pending.retain(|&e| e != min);
                        now = min.0;
                    }
                }
            }
        }
        pending.sort_unstable();
        let drained: Vec<_> = std::iter::from_fn(|| queue.pop()).map(|e| key(&e)).collect();
        prop_assert_eq!(drained, pending);
    }
}

#[test]
fn a_fat_command_type_does_not_grow_the_event() {
    #[allow(dead_code)]
    struct Fat([u8; 256]);
    assert!(std::mem::size_of::<Event<Fat>>() <= 32);
}
