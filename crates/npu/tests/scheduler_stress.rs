//! Property tests stressing the command-scheduler engine with random
//! programs: the schedule must respect fundamental bounds regardless of
//! structure, programs with repeated blocks, with heads repeated inside
//! them, and with phases mirrored side by side on every copy's own units
//! must schedule exactly as their expansions, and every lane of a
//! multi-lane run must schedule exactly as its own program.

use ianus_npu::scheduler::{CmdId, Command, Engine, Lanes, Program};
use ianus_sim::{Duration, Time};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

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

/// One command of a repeated block, or of a head repeated inside every
/// block. In a head, `prev` indexes the head before and `far` the
/// commands of its block before the heads: a dependency every head of the
/// block shares, which its copies keep.
#[derive(Debug, Clone)]
struct BlockCmd {
    unit: usize,
    dur_ns: u64,
    tag: usize,
    /// Earlier commands of the same block, by offset back.
    own: Vec<usize>,
    /// Commands of the previous block, by index (none in the first block).
    prev: Vec<usize>,
    /// A command of the block before the previous, by index: a program
    /// with one never repeats in closed form.
    far: Option<usize>,
    /// Held resources other than the unit; repeats are allowed.
    shared: Vec<usize>,
}

const UNITS: usize = 5;

fn block_cmd() -> impl Strategy<Value = BlockCmd> {
    (
        0..UNITS,
        1u64..300,
        0usize..4,
        prop::collection::vec(1usize..6, 0..3),
        prop::collection::vec(0usize..8, 0..3),
        (prop::collection::vec(0..UNITS, 0..3), 0usize..128),
    )
        .prop_map(|(unit, dur_ns, tag, own, prev, (shared, far))| BlockCmd {
            unit,
            dur_ns,
            tag,
            own,
            prev,
            // One command in 16 reaches two blocks back.
            far: (far < 8).then_some(far),
            shared: shared.into_iter().filter(|&s| s != unit).collect(),
        })
}

fn head_cmd() -> impl Strategy<Value = BlockCmd> {
    (block_cmd(), 0usize..16).prop_map(|(cmd, fixed)| BlockCmd {
        // One head command in 4 reads the head before it, and half read
        // their block.
        prev: if fixed < 4 { cmd.prev } else { Vec::new() },
        far: (fixed % 2 == 0).then_some(fixed),
        ..cmd
    })
}

/// A change to one command of one block.
#[derive(Debug, Clone, Copy)]
enum Perturb {
    Duration,
    Dependency,
    Unit,
    Hold,
    Tag,
}

/// A prologue, a block emitted `blocks` times and an epilogue reading
/// the last block. Each block ends with `heads` heads.
#[derive(Debug, Clone)]
struct BlockProgram {
    prologue: Vec<RandCmd>,
    block: Vec<BlockCmd>,
    head: Vec<BlockCmd>,
    heads: usize,
    /// Heads stored in each block of the compact program; the rest are
    /// copies of the last of them.
    stored_heads: usize,
    blocks: usize,
    /// Blocks stored in the compact program; the rest are copies of the
    /// last of them.
    stored: usize,
    /// Epilogue commands: own earlier dependencies as in [`build`], plus
    /// indices into the last block.
    epilogue: Vec<(RandCmd, Vec<usize>)>,
    dispatch_ns: u64,
    /// Block, command within it, and change of the perturbed variant.
    perturb: (usize, usize, Perturb),
}

fn block_program() -> impl Strategy<Value = BlockProgram> {
    let perturb = (
        2usize..16,
        0usize..8,
        prop::sample::select(vec![
            Perturb::Duration,
            Perturb::Dependency,
            Perturb::Unit,
            Perturb::Hold,
            Perturb::Tag,
        ]),
    );
    let heads = (
        prop::collection::vec(head_cmd(), 0..4),
        0usize..7,
        1usize..4,
    );
    (
        prop::collection::vec(rand_cmd(UNITS), 0..5),
        (prop::collection::vec(block_cmd(), 1..8), heads),
        (0usize..16, 1usize..8),
        prop::collection::vec(
            (rand_cmd(UNITS), prop::collection::vec(0usize..8, 0..3)),
            0..4,
        ),
        0u64..3,
        perturb,
    )
        .prop_map(
            |(prologue, (block, heads), (blocks, stored), epilogue, dispatch_ns, perturb)| {
                let (head, heads, stored_heads) = heads;
                BlockProgram {
                    prologue,
                    block,
                    head,
                    heads,
                    stored_heads,
                    blocks,
                    stored,
                    epilogue,
                    dispatch_ns,
                    perturb,
                }
            },
        )
}

impl BlockProgram {
    /// Commands per block, heads included.
    fn period(&self) -> usize {
        self.block.len() + self.heads * self.head.len()
    }

    /// Emits the program, storing only the first `stored` blocks and
    /// repeating the last of them if `compact`, with the perturbation if
    /// `perturbed` (in stored blocks only).
    fn emit(&self, compact: bool, perturbed: bool) -> Program {
        let mut p = build(&self.prologue, UNITS);
        let (len, period) = (self.block.len(), self.period());
        let stored = if compact {
            self.stored.min(self.blocks)
        } else {
            self.blocks
        };
        let mut starts: Vec<usize> = Vec::new();
        for b in 0..stored {
            let start = p.next_id();
            for (i, cmd) in self.block.iter().enumerate() {
                let mut cmd = cmd.clone();
                let (pb, pi, change) = self.perturb;
                if perturbed && (pb, pi % len) == (b, i) {
                    match change {
                        Perturb::Duration => cmd.dur_ns += 7,
                        // Retarget a dependency, or add or drop some.
                        Perturb::Dependency => match cmd.prev.first_mut() {
                            Some(j) => *j = (*j % len + 1) % len,
                            None if cmd.own.is_empty() => cmd.prev.push(len - 1),
                            None => cmd.own.clear(),
                        },
                        Perturb::Unit => {
                            cmd.unit = (cmd.unit + 1) % UNITS;
                            cmd.shared.retain(|&s| s != cmd.unit);
                        }
                        Perturb::Tag => cmd.tag += 1,
                        Perturb::Hold => {
                            let other = (cmd.unit + 1 + cmd.shared.len()) % UNITS;
                            match cmd.shared.first_mut() {
                                Some(s) if *s != other => *s = other,
                                _ => cmd.shared = vec![(cmd.unit + 1) % UNITS],
                            }
                        }
                    }
                }
                let own = cmd
                    .own
                    .iter()
                    .filter(|&&off| off <= i)
                    .map(|off| start + i - off);
                let prev = starts
                    .last()
                    .into_iter()
                    .flat_map(|&ps| cmd.prev.iter().map(move |&j| ps + j % period));
                let far = starts
                    .len()
                    .checked_sub(2)
                    .and_then(|b| cmd.far.map(|j| starts[b] + j % period));
                let deps = own.chain(prev).chain(far);
                p.emit(
                    cmd.unit,
                    Duration::from_ns(cmd.dur_ns),
                    cmd.tag,
                    deps,
                    cmd.shared,
                );
            }
            self.emit_heads(&mut p, start, compact);
            starts.push(start);
        }
        if let Some(&last) = starts.last() {
            let copies = self.blocks - stored;
            p.repeat_block(last..last + period, 0, copies);
            starts.extend((1..=copies).map(|k| last + k * period));
        }
        let epilogue_start = p.next_id();
        for (i, (cmd, last)) in self.epilogue.iter().enumerate() {
            let id = epilogue_start + i;
            let own = cmd
                .dep_offsets
                .iter()
                .filter(|&&off| off <= i)
                .map(|off| id - off);
            let last = starts
                .last()
                .into_iter()
                .flat_map(|&ps| last.iter().map(move |&j| ps + j % period));
            let shared = cmd.shared.filter(|&s| s != cmd.unit);
            p.emit(
                cmd.unit,
                Duration::from_ns(cmd.dur_ns),
                cmd.unit,
                own.chain(last),
                shared,
            );
        }
        p
    }

    /// Emits the heads of the block starting at `block`, storing only the
    /// first `stored_heads` and repeating the last of them, with the
    /// block's commands fixed, if `compact`.
    fn emit_heads(&self, p: &mut Program, block: usize, compact: bool) {
        let len = self.head.len();
        let anchor = p.next_id();
        let stored = match compact {
            true => self.stored_heads.min(self.heads),
            false => self.heads,
        };
        for h in 0..stored {
            let start = p.next_id();
            for (i, cmd) in self.head.iter().enumerate() {
                let own = cmd
                    .own
                    .iter()
                    .filter(|&&off| off <= i)
                    .map(|off| start + i - off);
                let prev = (h > 0)
                    .then(|| start - len)
                    .into_iter()
                    .flat_map(|ps| cmd.prev.iter().map(move |&j| ps + j % len));
                let fixed = cmd.far.map(|j| block + j % self.block.len());
                let deps = own.chain(prev).chain(fixed);
                let duration = Duration::from_ns(cmd.dur_ns);
                p.emit(cmd.unit, duration, cmd.tag, deps, cmd.shared.clone());
            }
        }
        if compact && len > 0 && stored > 0 {
            let last = anchor + (stored - 1) * len;
            p.repeat_block(last..last + len, anchor, self.heads - stored);
        }
    }

    /// Whether the compact program's copies are the blocks full emission
    /// gives: blocks 2 on shift alike, so the copied block must be one of
    /// them and unperturbed; heads 1 on shift alike, as does head 0 when
    /// no head reads the head before it.
    fn copies_match_emission(&self, perturbed: bool) -> bool {
        let stored = self.stored.min(self.blocks);
        let heads = self.stored_heads >= 2.min(self.heads)
            || self.head.iter().all(|cmd| cmd.prev.is_empty());
        heads
            && (stored == self.blocks
                || (stored >= 3 && !(perturbed && self.perturb.0 + 1 >= stored)))
    }

    fn engine(&self) -> Engine {
        Engine::new(UNITS, Duration::from_ns(self.dispatch_ns))
    }
}

/// Durations for four lanes of a block program's stored commands.
#[derive(Debug, Clone)]
struct LaneTimes {
    /// Durations, in ns, that the random lane cycles through.
    random_ns: Vec<u64>,
    /// Stored command, by index among the stored, and its duration in
    /// the lane that re-times one command.
    retime: (usize, u64),
}

fn lane_times() -> impl Strategy<Value = LaneTimes> {
    (
        prop::collection::vec(1u64..300, 1..16),
        (0usize..64, 1u64..300),
    )
        .prop_map(|(random_ns, retime)| LaneTimes { random_ns, retime })
}

impl LaneTimes {
    /// Four lanes of durations for the stored commands of `program`, by
    /// id: lane 0 keeps the program's, lane 1 doubles them, lane 2 cycles
    /// through random durations, and lane 3 re-times one command, which
    /// can move the copy at which a repeat around it settles.
    fn durations(&self, program: &Program) -> Vec<(CmdId, [Duration; 4])> {
        let stored = program.commands().count();
        let (retimed, retime_ns) = self.retime;
        (program.commands().enumerate())
            .map(|(i, cmd)| {
                let random = Duration::from_ns(self.random_ns[i % self.random_ns.len()]);
                let retimed = match i == retimed % stored {
                    true => Duration::from_ns(retime_ns),
                    false => cmd.duration,
                };
                (cmd.id, [cmd.duration, cmd.duration * 2, random, retimed])
            })
            .collect()
    }
}

/// `program` with its stored commands re-timed to lane `lane` of
/// `durations`.
fn lane_program(program: &Program, durations: &[(CmdId, [Duration; 4])], lane: usize) -> Program {
    let mut own = program.clone();
    for &(id, d) in durations {
        own.set_duration(id, d[lane]);
    }
    own
}

/// `program` in `L` lanes, lane `l` timed as lane `lanes[l]` of
/// `durations`.
fn lanes<'p, const L: usize>(
    program: &'p Program,
    durations: &[(CmdId, [Duration; 4])],
    lanes: [usize; L],
) -> Lanes<'p, L> {
    let mut out = Lanes::new(program);
    for &(id, d) in durations {
        out.set_durations(id, &[lanes.map(|l| d[l])]);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn repeated_blocks_schedule_as_expanded(bp in block_program()) {
        for perturbed in [false, true] {
            let compact = bp.emit(true, perturbed);
            let expanded = compact.expanded();
            prop_assert_eq!(expanded.len(), compact.len());
            if bp.copies_match_emission(perturbed) {
                prop_assert_eq!(&expanded, &bp.emit(false, perturbed));
            }
            let fast = bp.engine().run_traced(&compact);
            let full = bp.engine().run_traced(&expanded);
            prop_assert_eq!(full.0.scheduled(), expanded.len());
            prop_assert_eq!(&fast, &full);
            prop_assert_eq!(bp.engine().run(&compact), full.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lanes_schedule_as_their_own_programs(bp in block_program(), times in lane_times()) {
        for perturbed in [false, true] {
            let program = bp.emit(true, perturbed);
            let durations = times.durations(&program);
            let mut engine = bp.engine();
            let schedule = engine.run_lanes(&lanes(&program, &durations, [0, 1, 2, 3]));
            let reports: Vec<_> = (0..4).map(|lane| schedule.report(lane)).collect();
            for (lane, report) in reports.iter().enumerate() {
                let alone = bp.engine().run(&lane_program(&program, &durations, lane));
                let scheduled = (report.scheduled(), alone.scheduled());
                prop_assert_eq!((lane, report, scheduled.0), (lane, &alone, scheduled.1));
                prop_assert_eq!(
                    (schedule.makespan(lane), schedule.scheduled(lane)),
                    (alone.makespan(), alone.scheduled())
                );
                for tag in 0..=program.commands().map(|c| c.tag).max().unwrap_or(0) {
                    prop_assert_eq!(schedule.tag_busy(lane, tag), alone.tag_busy(tag));
                }
            }
            prop_assert!([1, 5].contains(&engine.walks()), "{} walks", engine.walks());
            // Without dispatch cost, doubling every duration doubles every
            // time: the two lanes settle alike, each by its own shift, and
            // share one walk.
            if bp.dispatch_ns == 0 {
                let mut engine = bp.engine();
                let schedule = engine.run_lanes(&lanes(&program, &durations, [0, 1]));
                let (own, doubled) = (schedule.report(0), schedule.report(1));
                prop_assert_eq!(engine.walks(), 1);
                prop_assert_eq!(&own, &reports[0]);
                prop_assert_eq!(&doubled, &reports[1]);
                prop_assert_eq!(
                    (own.scheduled(), doubled.scheduled()),
                    (reports[0].scheduled(), reports[1].scheduled())
                );
            }
        }
    }
}

#[test]
fn random_lanes_both_share_walks_and_settle_apart() {
    // Guards the property above against testing only one path: among
    // generated programs with enough copies of a block or head to write
    // some in closed form, the lanes that double every duration must
    // share a walk with closed-form copies, and the four lanes must
    // sometimes settle apart.
    let (strategy, times) = (block_program(), lane_times());
    let mut rng = TestRng::from_name("random_lanes_both_share_walks_and_settle_apart");
    let (mut long, mut shared, mut apart) = (0, 0, 0);
    for _ in 0..512 {
        let (mut bp, times) = (strategy.generate(&mut rng), times.generate(&mut rng));
        bp.dispatch_ns = 0;
        let program = bp.emit(true, false);
        if bp.engine().run(&program).scheduled() == program.len() {
            continue;
        }
        long += 1;
        let durations = times.durations(&program);
        let mut engine = bp.engine();
        let schedule = engine.run_lanes(&lanes(&program, &durations, [0, 1]));
        shared += usize::from(engine.walks() == 1 && schedule.scheduled(0) < program.len());
        let mut engine = bp.engine();
        engine.run_lanes(&lanes(&program, &durations, [0, 1, 2, 3]));
        apart += usize::from(engine.walks() > 1);
    }
    assert_eq!(
        shared, long,
        "{shared} of {long} doubled lanes shared a walk"
    );
    assert!(
        5 * apart > long,
        "{apart} of {long} lane sets settled apart"
    );
}

#[test]
fn random_block_programs_mostly_reach_steady_state() {
    // Guards the property above against testing only the fallback: most
    // generated programs with enough copies of a block, or of a head in
    // blocks that are all stored, must skip some.
    let strategy = block_program();
    let mut rng = TestRng::from_name("random_block_programs_mostly_reach_steady_state");
    let (mut long, mut shortcut) = ([0; 2], [0; 2]);
    for _ in 0..512 {
        let bp = strategy.generate(&mut rng);
        let long_blocks = bp.blocks >= bp.stored + 6;
        let long_heads = (1..=bp.stored).contains(&bp.blocks)
            && !bp.head.is_empty()
            && bp.heads >= bp.stored_heads + 4;
        for (kind, is_long) in [long_blocks, long_heads].into_iter().enumerate() {
            if is_long {
                long[kind] += 1;
                let p = bp.emit(true, false);
                shortcut[kind] += usize::from(bp.engine().run(&p).scheduled() < p.len());
            }
        }
    }
    for kind in 0..2 {
        assert!(
            2 * shortcut[kind] > long[kind],
            "{} of {} programs reached steady state",
            shortcut[kind],
            long[kind]
        );
    }
}

#[test]
fn non_settling_repeat_is_scheduled_copy_by_copy() {
    // Each block's load has no dependencies, so loads run back to back
    // and drift ahead of the chained computes at a rate of their own: no
    // copy finishes every command one shift after the one before.
    let mut p = Program::new();
    let mut last = None;
    for _ in 0..3 {
        let load = p.emit(1, Duration::from_ns(100), 0, [], None);
        last = Some(p.emit(
            0,
            Duration::from_ns(150),
            1,
            last.into_iter().chain([load]),
            None,
        ));
    }
    p.repeat_block(4..6, 0, 17);
    let mut eng = Engine::new(2, Duration::ZERO);
    let compact = eng.run_traced(&p);
    let full = eng.run_traced(&p.expanded());
    assert_eq!(compact, full);
    assert_eq!(compact.0.scheduled(), p.len());
    assert_eq!(compact.0.makespan(), Time::from_ns(100 + 20 * 150));
}

/// One command of a phase that runs side by side on every copy of a
/// [`MirrorProgram`]: copy `c` runs it on its own units.
#[derive(Debug, Clone)]
struct MirrorCmd {
    /// The copy's own unit, by index among its units.
    unit: usize,
    dur_ns: u64,
    tag: usize,
    /// Earlier commands of the same copy, by offset back.
    own: Vec<usize>,
    /// A command of the same copy of the phase before, by index (linked
    /// when that phase is mirrored).
    prev: Option<usize>,
    /// Whether it reads the last command of every copy of the phase
    /// before, as a barrier does (a fixed dependency).
    all: bool,
    hold: Option<Hold>,
}

/// A resource a [`MirrorCmd`] holds besides its unit.
#[derive(Debug, Clone, Copy)]
enum Hold {
    /// Another unit of the copy's own, by index.
    Own(usize),
    /// A resource every copy shares, by index: no copy can mirror it.
    Shared(usize),
}

fn mirror_cmd() -> impl Strategy<Value = MirrorCmd> {
    (
        (0usize..3, 1u64..300, 0usize..4),
        prop::collection::vec(1usize..4, 0..2),
        prop::option::of(0usize..8),
        0usize..4,
        (0usize..16, 0usize..3),
    )
        .prop_map(
            |((unit, dur_ns, tag), own, prev, all, (hold, which))| MirrorCmd {
                unit,
                dur_ns,
                tag,
                own,
                prev,
                all: all == 0,
                // One command in 16 holds a shared resource.
                hold: match hold {
                    0 => Some(Hold::Shared(which % SHARED)),
                    1..=5 if which != unit => Some(Hold::Own(which)),
                    _ => None,
                },
            },
        )
}

/// Units per copy and resources every copy shares in a
/// [`MirrorProgram`].
const LOCAL: usize = 3;
const SHARED: usize = 2;

/// A prologue, then blocks of phases, each run side by side by `width`
/// copies on disjoint units (the cores of a compiled stage), the last
/// stored block repeated in time, and an epilogue. The first phase of a
/// block ends with heads, a repeat inside each copy. A compact program
/// stores copy 0 of each phase that copy 1 mirrors
/// ([`Program::mirror_block`]).
#[derive(Debug, Clone)]
struct MirrorProgram {
    width: usize,
    /// Copy `c`'s unit `j` is unit `layout[c * LOCAL + j]`; the shared
    /// resources follow.
    layout: Vec<usize>,
    /// Commands on any unit, shared ones included: one on a unit of a
    /// copy other than 0 gives that copy other inputs than copy 0's.
    prologue: Vec<(usize, u64)>,
    phases: Vec<Vec<MirrorCmd>>,
    head: Vec<MirrorCmd>,
    heads: usize,
    blocks: usize,
    stored: usize,
    dispatch_ns: u64,
}

fn mirror_program() -> impl Strategy<Value = MirrorProgram> {
    (
        (2usize..5, any::<u64>()),
        prop::collection::vec((0usize..4 * LOCAL + SHARED, 1u64..400), 0..3),
        prop::collection::vec(prop::collection::vec(mirror_cmd(), 1..4), 1..4),
        (prop::collection::vec(mirror_cmd(), 0..3), 2usize..6),
        (1usize..9, 1usize..5),
        0u64..3,
    )
        .prop_map(
            |((width, seed), prologue, phases, (head, heads), (blocks, stored), dispatch_ns)| {
                // A seeded shuffle lays the copies out over the units.
                let mut layout: Vec<usize> = (0..width * LOCAL).collect();
                let mut state = seed;
                for i in (1..layout.len()).rev() {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    layout.swap(i, (state >> 33) as usize % (i + 1));
                }
                layout.extend(width * LOCAL..width * LOCAL + SHARED);
                let units = layout.len();
                MirrorProgram {
                    width,
                    layout,
                    prologue: prologue.into_iter().map(|(u, d)| (u % units, d)).collect(),
                    phases,
                    head,
                    heads,
                    blocks,
                    stored,
                    dispatch_ns,
                }
            },
        )
}

impl MirrorProgram {
    fn units(&self) -> usize {
        self.layout.len()
    }

    /// σ: each copy's units to the next copy's, the last copy's to copy
    /// 0's; shared resources stay.
    fn sigma(&self) -> Vec<usize> {
        let mut sigma: Vec<usize> = (0..self.units()).collect();
        for c in 0..self.width {
            let next = (c + 1) % self.width;
            for j in 0..LOCAL {
                sigma[self.layout[c * LOCAL + j]] = self.layout[next * LOCAL + j];
            }
        }
        sigma
    }

    /// Emits the program, mirroring each phase that copy 1 mirrors if
    /// `compact`, or every copy stored.
    fn emit(&self) -> [Program; 2] {
        [true, false].map(|compact| {
            let mut p = Program::new();
            for &(unit, dur) in &self.prologue {
                p.emit(unit, Duration::from_ns(dur), 0, [], None);
            }
            let stored = self.stored.min(self.blocks);
            let (mut prev, mut last_block) = (None, None);
            for _ in 0..stored {
                let start = p.next_id();
                for (i, phase) in self.phases.iter().enumerate() {
                    let heads = (i == 0).then_some((&self.head[..], self.heads));
                    prev = Some(self.emit_phase(&mut p, phase, heads, prev, compact));
                }
                last_block = Some(start..p.next_id());
            }
            if let Some(block) = last_block {
                let period = block.len();
                p.repeat_block(block, 0, self.blocks - stored);
                prev = prev.map(|(starts, len): (Vec<CmdId>, usize)| {
                    let shift = (self.blocks - stored) * period;
                    (starts.iter().map(|s| s + shift).collect(), len)
                });
            }
            if let Some((starts, len)) = prev {
                let reads: Vec<CmdId> = starts.iter().map(|s| s + len - 1).collect();
                p.emit(self.layout[0], Duration::from_ns(5), 1, reads, None);
            }
            p
        })
    }

    /// Emits one phase on every copy after the phase `prev` (each copy's
    /// first id, and the commands per copy), with `heads` at the end of
    /// each copy; returns this phase's copies.
    fn emit_phase(
        &self,
        p: &mut Program,
        phase: &[MirrorCmd],
        heads: Option<(&[MirrorCmd], usize)>,
        prev: Option<(Vec<CmdId>, usize)>,
        compact: bool,
    ) -> (Vec<CmdId>, usize) {
        let mut starts = vec![p.next_id()];
        self.emit_copy(p, 0, phase, heads, prev.as_ref());
        let len = p.next_id() - starts[0];
        for c in 1..self.width {
            starts.push(p.next_id());
            self.emit_copy(p, c, phase, heads, prev.as_ref());
            if c == 1 && compact && p.mirror_block(starts[0]..starts[1], &self.sigma(), self.width)
            {
                let first = starts[0];
                starts.extend((2..self.width).map(|c| first + c * len));
                break;
            }
        }
        (starts, len)
    }

    /// Emits copy `c` of a phase.
    fn emit_copy(
        &self,
        p: &mut Program,
        c: usize,
        phase: &[MirrorCmd],
        heads: Option<(&[MirrorCmd], usize)>,
        prev: Option<&(Vec<CmdId>, usize)>,
    ) {
        let start = p.next_id();
        self.emit_cmds(p, c, phase, start, prev);
        let Some((head, heads)) = heads.filter(|(head, _)| !head.is_empty()) else {
            return;
        };
        // Heads 0 and 1 stored, the rest copies of head 1; every head
        // reads its copy's first command.
        let anchor = p.next_id();
        for _ in 0..2 {
            let head_start = p.next_id();
            self.emit_cmds(p, c, head, head_start, Some(&(vec![start; self.width], 1)));
        }
        let len = head.len();
        p.repeat_block(anchor + len..anchor + 2 * len, anchor, heads - 2);
    }

    /// Emits `cmds` for copy `c` from id `start`, `prev` the phase before.
    fn emit_cmds(
        &self,
        p: &mut Program,
        c: usize,
        cmds: &[MirrorCmd],
        start: CmdId,
        prev: Option<&(Vec<CmdId>, usize)>,
    ) {
        let unit = |j: usize| self.layout[c * LOCAL + j];
        for (i, cmd) in cmds.iter().enumerate() {
            let own = cmd
                .own
                .iter()
                .filter(|&&off| off <= i)
                .map(|off| start + i - off);
            let (same, all) = match prev {
                Some((starts, len)) => (
                    cmd.prev.map(|j| starts[c] + j % len),
                    cmd.all
                        .then(|| starts.iter().map(|s| s + len - 1).collect::<Vec<_>>()),
                ),
                None => (None, None),
            };
            let deps = own.chain(same).chain(all.into_iter().flatten());
            let hold = cmd.hold.map(|hold| match hold {
                Hold::Own(j) => unit(j),
                Hold::Shared(s) => self.width * LOCAL + s,
            });
            let duration = Duration::from_ns(cmd.dur_ns);
            p.emit(unit(cmd.unit), duration, cmd.tag, deps, hold);
        }
    }

    fn engine(&self) -> Engine {
        Engine::new(self.units(), Duration::from_ns(self.dispatch_ns))
    }
}

/// Lane `l`'s duration of a command lasting `d`: scaled in lanes 0-3,
/// shifted in lanes 4-7, so every copy of a command is timed alike.
fn mirror_lane(d: Duration, l: usize) -> Duration {
    match l {
        0..=3 => d * (l as u64 + 1),
        _ => d + Duration::from_ns(l as u64 * 3),
    }
}

/// `program` in eight lanes, lane `l` timed by [`mirror_lane`].
fn mirror_lanes(program: &Program) -> Lanes<'_, 8> {
    let mut lanes = Lanes::new(program);
    let stored: Vec<(CmdId, Duration)> = program.commands().map(|c| (c.id, c.duration)).collect();
    for (id, d) in stored {
        lanes.set_durations(id, &[std::array::from_fn(|l| mirror_lane(d, l))]);
    }
    lanes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mirrored_copies_schedule_as_expanded(mp in mirror_program()) {
        let [compact, full] = mp.emit();
        let expanded = compact.expanded();
        prop_assert_eq!(&expanded, &full.expanded());
        // One lane, traced: finishes, makespan, unit and tag busy times
        // and spans.
        let fast = mp.engine().run_traced(&compact);
        let slow = mp.engine().run_traced(&expanded);
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(mp.engine().run(&compact), slow.0);
        // Eight lanes on the host's widest kernel, each lane against the
        // expansion's lane and, for the work count, the compact program
        // alone in that lane.
        let schedule = mp.engine().run_lanes(&mirror_lanes(&compact));
        let expected = mp.engine().run_lanes(&mirror_lanes(&expanded));
        for lane in 0..8 {
            let report = schedule.report(lane);
            prop_assert_eq!((lane, &report), (lane, &expected.report(lane)));
            let mut alone = compact.clone();
            for cmd in compact.commands() {
                alone.set_duration(cmd.id, mirror_lane(cmd.duration, lane));
            }
            let alone = mp.engine().run(&alone);
            prop_assert_eq!(
                (lane, report.scheduled(), schedule.scheduled(lane)),
                (lane, alone.scheduled(), alone.scheduled())
            );
            prop_assert_eq!(schedule.makespan(lane), alone.makespan());
        }
    }
}

#[test]
fn random_mirrors_take_every_path() {
    // Guards the property above against testing one path only: among
    // generated programs, some mirror copies that are written in closed
    // form, some mirror copies whose inputs differ (scheduled one by
    // one), and some mirror no phase at all.
    let strategy = mirror_program();
    let mut rng = TestRng::from_name("random_mirrors_take_every_path");
    let (mut closed, mut apart, mut none) = (0, 0, 0);
    for _ in 0..512 {
        let mp = strategy.generate(&mut rng);
        let [compact, full] = mp.emit();
        let stored = compact.commands().count();
        if stored == full.commands().count() {
            none += 1;
            continue;
        }
        // Without a prologue every copy starts from the same state.
        let report = mp.engine().run(&compact);
        let mirrored_prologue = MirrorProgram {
            prologue: Vec::new(),
            ..mp.clone()
        };
        let [quiet, _] = mirrored_prologue.emit();
        let quiet_report = mirrored_prologue.engine().run(&quiet);
        closed += usize::from(quiet_report.scheduled() < quiet.len());
        apart += usize::from(report.scheduled() > quiet_report.scheduled());
    }
    assert!(
        closed > 256 && apart > 64 && none > 16,
        "{closed} closed-form, {apart} with other inputs, {none} unmirrored"
    );
}
