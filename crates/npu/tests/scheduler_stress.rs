//! Property tests stressing the command-scheduler engine with random
//! programs: the schedule must respect fundamental bounds regardless of
//! structure.

use ianus_npu::scheduler::{Command, Engine, Program};
use ianus_sim::{Duration, Time};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandCmd {
    unit: usize,
    dur_ns: u64,
    // Dependencies reference earlier commands by relative offset.
    dep_offsets: Vec<usize>,
    shared: Option<usize>,
}

fn rand_cmd(units: usize) -> impl Strategy<Value = RandCmd> {
    (
        0..units,
        1u64..500,
        prop::collection::vec(1usize..8, 0..3),
        prop::option::of(0..units),
    )
        .prop_map(|(unit, dur_ns, dep_offsets, shared)| RandCmd {
            unit,
            dur_ns,
            dep_offsets,
            shared,
        })
}

fn build(cmds: &[RandCmd], units: usize) -> Program {
    let mut p = Program::new();
    for (i, c) in cmds.iter().enumerate() {
        let mut cmd = Command::new(c.unit, Duration::from_ns(c.dur_ns), c.unit);
        for &off in &c.dep_offsets {
            if off <= i && i > 0 {
                cmd = cmd.after(i - off.min(i));
            }
        }
        if let Some(s) = c.shared {
            if s != c.unit && s < units {
                cmd = cmd.holding(s);
            }
        }
        p.push(cmd);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn makespan_bounds(cmds in prop::collection::vec(rand_cmd(5), 1..60)) {
        let units = 5;
        let p = build(&cmds, units);
        let mut eng = Engine::new(units, Duration::ZERO);
        let r = eng.run(&p);
        // Upper bound: fully serialized execution.
        let total: u64 = cmds.iter().map(|c| c.dur_ns).sum();
        prop_assert!(r.makespan() <= Time::from_ns(total));
        // Lower bound: the busiest unit's work.
        let mut per_unit = [0u64; 5];
        for c in &cmds {
            per_unit[c.unit] += c.dur_ns;
            if let Some(s) = c.shared {
                if s != c.unit {
                    per_unit[s] += c.dur_ns;
                }
            }
        }
        let bound = per_unit.iter().copied().max().unwrap_or(0);
        prop_assert!(r.makespan() >= Time::from_ns(bound));
    }

    #[test]
    fn commands_finish_after_dependencies(
        cmds in prop::collection::vec(rand_cmd(4), 2..40),
    ) {
        let p = build(&cmds, 4);
        let mut eng = Engine::new(4, Duration::from_ns(1));
        let r = eng.run(&p);
        for (i, cmd) in p.commands().enumerate() {
            for &d in cmd.deps {
                prop_assert!(r.finish(i) > r.finish(d));
            }
        }
    }

    #[test]
    fn traced_spans_never_overlap_on_a_unit(
        cmds in prop::collection::vec(rand_cmd(3), 1..40),
    ) {
        let p = build(&cmds, 3);
        let mut eng = Engine::new(3, Duration::ZERO);
        let (_, spans) = eng.run_traced(&p);
        for unit in 0..3 {
            let mut mine: Vec<_> = spans.iter().filter(|s| s.unit == unit).collect();
            mine.sort_by_key(|s| s.start);
            for w in mine.windows(2) {
                prop_assert!(w[1].start >= w[0].end, "overlap on unit {unit}");
            }
        }
    }

    #[test]
    fn determinism(cmds in prop::collection::vec(rand_cmd(4), 1..40)) {
        let p = build(&cmds, 4);
        let mut eng = Engine::new(4, Duration::from_ns(2));
        let a = eng.run(&p).makespan();
        let b = eng.run(&p).makespan();
        prop_assert_eq!(a, b);
    }
}
