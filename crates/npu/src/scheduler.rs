//! Dependency-driven command scheduler (paper Section 4.3).
//!
//! The IANUS command scheduler checks dependencies between commands and
//! the status of every compute, DMA and PIM unit, issuing a command when
//! its dependencies are resolved and its unit is free. This module is the
//! execution engine for that microarchitecture: a [`Program`] is a list of
//! commands (emitted in compile order) over the units of an [`Engine`];
//! [`Engine::run`] performs in-order-per-unit list scheduling with
//! cross-unit overlap, which is exactly what the paper's 4-slot
//! issue queues + pending queue produce for compiler-ordered streams.
//!
//! A command may occupy a second, *shared* resource in addition to its
//! unit — this is how the unified-memory conflict is modelled: normal DMA
//! commands and macro PIM commands both hold the memory-channel resource,
//! so they serialize; in a partitioned system they hold different
//! resources and overlap.
//!
//! # Repeated blocks
//!
//! A transformer compiles to the same command stream once per block, and
//! the sync that ends each block makes the schedule periodic; inside a
//! block, every attention head of a core runs the same commands. A
//! compiler stores such a block once and repeats it with
//! [`Program::repeat_block`]: copy `k` of an `L`-command block has ids
//! `k·L` later than the block, and so does every dependency of each of
//! its commands except those before the repeat's *anchor*, which stay
//! fixed in every copy (every head reads its core's layer norm). Units,
//! durations, tags and holds are the block's. A repeat may sit inside a
//! repeated block (heads inside a transformer block), and then every copy
//! of the outer block repeats it alike. Ids stay virtual: a program has
//! [`len`](Program::len) commands, copies included, and
//! [`Program::expanded`] materializes them. The engine schedules a
//! repeat's copies command by command only until the schedule reaches
//! steady state, and writes the remaining copies in closed form.
//!
//! Every start time is a max-plus expression: the latest of its
//! dependencies' finishes plus `dispatch`, the dispatch-only ready time
//! of a dependency-free command, and the free times of its unit and
//! shared resources (the finish of their last earlier user). Suppose a
//! timed block repeats the `L` commands before it — the same units,
//! durations, tags and holds, every dependency `L` ids later unless
//! before the anchor — and its shifted dependencies all point into
//! itself or into those commands. Suppose also that every finish of the
//! block is the matching finish of the `L` commands before plus one
//! δ > 0. Each start of the block then exceeds the one before by δ, so
//! no constant binds it: not the dispatch-only ready time, and not the
//! finish of a fixed dependency, which the command before it waited for
//! too. It is the latest of its shifted finish and free-time terms. The
//! next copy repeats the block by construction, so every such term of
//! the copy is the matching term of the block plus δ, the constants
//! still bind nothing, and the copy is the block shifted by δ, exactly;
//! by induction so is every later copy: finishes and unit free times move
//! by δ per copy, and each copy adds the same busy time to every unit and
//! tag. The engine first tries the stored block against the commands
//! before it, if they are emitted like it, then each copy it schedules
//! against the one before. Inside a copy a repeat's own copies may be in
//! closed form already; two copies then match when the commands
//! scheduled one by one shift by δ and the closed-form runs are the same
//! runs shifted along. A repeat whose dependencies reach further back,
//! or whose schedule never reaches a constant shift, is scheduled copy by
//! copy, and the result is the same either way.
//! [`ExecutionReport::finish`] reads a closed-form copy as the copy timed
//! before it plus `k`·δ, and [`ExecutionReport::scheduled`] counts the
//! commands scheduled one by one.
//!
//! # Mirrored copies
//!
//! Copies may also run side by side: the cores of an NPU each run one
//! phase of a block (their heads, their column slice of an FC, their
//! sync) on units of their own. A compiler stores one core's commands and
//! mirrors them with [`Program::mirror_block`]: copy `k` has ids `k·L`
//! later and runs on the units and held resources a unit map σ takes the
//! block's to `k` times over (σᵏ), which are no other copy's. Its
//! dependencies inside the block move `k·L` ids on; a dependency on copy
//! 0 of an earlier mirrored block as wide moves to that block's copy `k`
//! (a core reads its own core's sync), and every other one stays (a sync
//! reads every core). Repeats may sit in the block, and a mirrored block
//! may sit in a repeated one.
//!
//! A copy's start times are the same max-plus expressions as copy 0's,
//! over its own terms: the dispatch-only ready time, its fixed
//! dependencies (the same for every copy), its linked dependencies, its
//! own commands' finishes, and the free times of its units. No copy
//! before it touches its units, so those are the free times they had
//! before copy 0. If every unit of copy `k` was free when copy 0's
//! matching unit was, and every linked dependency of copy `k` finished
//! when copy 0's did, every term of copy `k` equals copy 0's, and so by
//! induction over its commands does every start and finish: copy `k` is
//! copy 0 shifted by δ = 0, on σᵏ of copy 0's units. The engine checks
//! those inputs before it schedules copy 0; if every copy has them, it
//! writes the copies in closed form (a run of δ = 0: finishes read as
//! copy 0's, the busy time copy 0 added to each of its units added to
//! that unit's image in every copy, each image freed when its unit is,
//! and each tag's busy time added once per copy). Otherwise it schedules
//! every copy one by one on its own units, so the result is exact either
//! way. Lanes that differ on the check end the walk, as for repeats.
//!
//! # Lanes
//!
//! Programs that differ only in durations share the walk of their
//! structure: its records, dependencies, holds and repeats. [`Lanes`]
//! gives one program `L` duration columns, and [`Engine::run_lanes`]
//! times them in one walk in which every time value (finishes, unit free
//! and busy times, tag busy times) is an `[Time; L]` or
//! `[Duration; L]`, one entry per lane. [`Engine::run`] is the one-lane
//! case of that walk. A repeat is written in closed form only when every
//! lane settles at the same copy, each lane by its own δ; if the lanes
//! settle at different copies, the walk stops and each lane is walked
//! again alone. Every lane's report is therefore the report of `run` on
//! the program with that lane's durations, work count included.
//! [`Engine::run_lanes`] returns the walk's [`Schedule`], which reads
//! each lane's makespan, tag busy times and work count in place and
//! copies a lane out into an [`ExecutionReport`] only when asked.
//! [`Lanes::recycle`] lets a caller that re-times the same commands walk
//! after walk keep one duration table.
//!
//! # Kernels
//!
//! Every time value of a lane walk is an `L`-wide array of 64-bit
//! picoseconds, and the per-command loop spends most of its time on
//! lane-wide `max`es and sums. The build's baseline x86-64 target has no
//! 64-bit vector compare, so there each lane's `max` is a scalar compare
//! and move. The loop therefore has one body, inlined with every helper
//! it calls into each of several instantiations: the baseline one and,
//! on x86-64, one compiled for AVX2, whose 256-bit compares and blends
//! take four lanes at a time. A walk of more than one lane runs the
//! widest instantiation the host reports at run time
//! (`is_x86_feature_detected!`); a one-lane walk has nothing to widen
//! and stays on the baseline. Integer `max` and `+` are exact at any
//! width, so every instantiation gives the same schedule, which a unit
//! test checks on random programs in eight lanes. No build flag changes.
//!
//! # Examples
//!
//! ```
//! use ianus_npu::scheduler::{Command, Engine, Program};
//! use ianus_sim::Duration;
//!
//! let mut eng = Engine::new(2, Duration::ZERO); // units: 0 = MU, 1 = DMA
//! let mut prog = Program::new();
//! let load = prog.push(Command::new(1, Duration::from_ns(100), 0));
//! let gemm = prog.push(Command::new(0, Duration::from_ns(50), 1).after(load));
//! let load2 = prog.push(Command::new(1, Duration::from_ns(100), 0)); // overlaps gemm
//! let gemm2 = prog.push(Command::new(0, Duration::from_ns(50), 1).after(load2).after(gemm));
//! let report = eng.run(&prog);
//! assert_eq!(report.finish(gemm2).as_ns_f64(), 250.0);
//! ```

use ianus_sim::{Duration, Time};
use std::ops::Range;

/// Identifier of a command within its [`Program`].
pub type CmdId = usize;

/// Index of a hardware unit within its [`Engine`].
pub type UnitId = usize;

/// A schedulable command, built by value.
///
/// A convenience for hand-written programs: [`Program::push`] flattens it
/// into the program's records. Compilers emitting many commands use
/// [`Program::emit`], which takes the parts directly and allocates
/// nothing per command.
#[derive(Debug, Clone)]
pub struct Command {
    /// Unit that executes the command.
    pub unit: UnitId,
    /// Additional resources held for the full duration (e.g. the unified
    /// memory channel tokens a DMA stream touches).
    pub shared: Vec<UnitId>,
    /// Execution time on the unit.
    pub duration: Duration,
    /// Commands that must finish first.
    pub deps: Vec<CmdId>,
    /// Caller-defined class for busy-time attribution (breakdown reports).
    pub tag: usize,
}

impl Command {
    /// Creates a command on `unit` lasting `duration`, attributed to `tag`.
    pub fn new(unit: UnitId, duration: Duration, tag: usize) -> Self {
        Command {
            unit,
            shared: Vec::new(),
            duration,
            deps: Vec::new(),
            tag,
        }
    }

    /// Adds a dependency.
    pub fn after(mut self, dep: CmdId) -> Self {
        self.deps.push(dep);
        self
    }

    /// Holds `resource` for the command's duration in addition to its unit.
    pub fn holding(mut self, resource: UnitId) -> Self {
        self.shared.push(resource);
        self
    }
}

/// One command's fixed-size record inside a [`Program`]: its
/// dependencies and shared resources live in the program-wide arrays, up
/// to the recorded end offsets (each command's slice starts where the
/// previous command's ends). Narrow fields keep a record at 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    duration: Duration,
    unit: u32,
    tag: u32,
    deps_end: u32,
    shared_end: u32,
}

/// A borrowed view of one stored command of a [`Program`], as yielded by
/// [`Program::commands`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandView<'a> {
    /// The command's id.
    pub id: CmdId,
    /// Unit that executes the command.
    pub unit: UnitId,
    /// Execution time on the unit.
    pub duration: Duration,
    /// Caller-defined class for busy-time attribution.
    pub tag: usize,
    /// Commands that must finish first.
    pub deps: &'a [CmdId],
    /// Additional resources held for the full duration.
    pub shared: &'a [UnitId],
}

/// A compiler-ordered list of commands.
///
/// Commands are stored flat: one fixed-size record each, with every
/// command's dependencies and shared resources packed into two
/// program-wide arrays, so emitting a command allocates nothing beyond
/// amortized growth of those three vectors. A repeated block is stored
/// once ([`repeat_block`](Self::repeat_block)), and so is a mirrored one
/// ([`mirror_block`](Self::mirror_block)); their copies have ids but no
/// records. Two programs are equal when every stored command and every
/// repeat and mirror is.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    records: Vec<Record>,
    deps: Vec<CmdId>,
    shared: Vec<UnitId>,
    /// Repeated blocks outside any other, in id order; each holds the
    /// repeated blocks inside it.
    repeats: Vec<Repeat>,
    /// The unit maps of mirrored copies, one list per map σ registered:
    /// its powers σ¹, σ², …, the unit maps of copies 1, 2, … (see
    /// [`Side::maps`]).
    maps: Vec<Vec<Vec<UnitId>>>,
    /// Number of commands, copies included.
    len: usize,
    /// One more than the largest tag.
    tags: usize,
}

/// A stored block followed by copies of itself: copies in time (see
/// [`Program::repeat_block`]) or, with a [`Side`], side by side (see
/// [`Program::mirror_block`]).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Repeat {
    /// The block's records, those of the repeats inside it included.
    block: Range<usize>,
    /// Id of the block's first command.
    start: CmdId,
    /// Commands per copy, copies of the repeats inside it included.
    period: usize,
    /// Copies after the block.
    times: usize,
    /// Dependencies on commands before this id are the same in every
    /// copy, but for a mirrored block's links (see [`Side::links`]); a
    /// mirrored block's anchor is its start.
    anchor: CmdId,
    /// Repeated blocks inside the block, in id order.
    inner: Vec<Repeat>,
    /// Whether the `period` commands before the block are emitted like
    /// it, durations aside: same units, tags, holds and repeats, and
    /// dependencies `period` later unless before `anchor`.
    follows: bool,
    /// Whether every dependency of the block is before `anchor` or
    /// reaches no further back than the copy before its own.
    local: bool,
    /// The units and held resources of the block's commands in every
    /// copy in time, each once (a mirrored block's are its side's `own`
    /// and their images).
    units: Vec<UnitId>,
    /// How copies side by side map units and dependencies; `None` for
    /// copies in time, which run on the block's units.
    side: Option<Side>,
}

/// What makes copy `k` of a mirrored block the block side by side: its
/// units, and its dependencies on other mirrored blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Side {
    /// Index in [`Program::maps`] of the powers of the block's map σ:
    /// copy `k` maps units by the list's entry `k - 1`, σᵏ.
    maps: usize,
    /// The copy-0 ids of earlier mirrored blocks as wide that the block's
    /// dependencies follow, each with its period: copy `k` maps a
    /// dependency among them to that block's copy `k`.
    links: Vec<(Range<CmdId>, usize)>,
    /// The block's dependencies among `links`, each once, with the period
    /// of its link: the inputs copies may see differently.
    inputs: Vec<(CmdId, usize)>,
    /// The units and held resources of the block's own commands (copy
    /// 0), each once.
    own: Vec<UnitId>,
    /// The tags from the block's smallest to its largest.
    tags: Range<usize>,
}

/// Dependencies on ids `from..to` move `shift` ids on: how one copy being
/// timed or emitted maps the dependencies of its stored commands.
#[derive(Debug, Clone, Copy)]
struct Level {
    from: CmdId,
    to: CmdId,
    shift: usize,
}

impl Repeat {
    /// Id of the first command after the last copy.
    fn end(&self) -> CmdId {
        self.start + (1 + self.times) * self.period
    }

    /// Ids of the repeat that have no record: its copies, and the copies
    /// of the repeats inside its block.
    fn unstored(&self) -> usize {
        (1 + self.times) * self.period - self.block.len()
    }

    /// Whether `self` is `prev` emitted `records` records and `ids` ids
    /// later.
    fn shifted_from(&self, prev: &Repeat, records: usize, ids: usize) -> bool {
        self.block == (prev.block.start + records..prev.block.end + records)
            && (self.start, self.anchor) == (prev.start + ids, prev.anchor + ids)
            && (self.period, self.times) == (prev.period, prev.times)
            && (self.follows, self.local) == (prev.follows, prev.local)
            && self.inner.len() == prev.inner.len()
            && (self.inner.iter())
                .zip(&prev.inner)
                .all(|(r, p)| r.shifted_from(p, records, ids))
            && match (&self.side, &prev.side) {
                (None, None) => true,
                (Some(side), Some(p)) => {
                    let links = (p.links.iter()).map(|(l, n)| (l.start + ids..l.end + ids, *n));
                    let inputs = p.inputs.iter().map(|&(d, n)| (d + ids, n));
                    (side.maps, &side.own) == (p.maps, &p.own)
                        && links.eq(side.links.iter().cloned())
                        && inputs.eq(side.inputs.iter().copied())
                }
                _ => false,
            }
    }

    /// Pushes onto `levels` how copy `k` maps its stored commands'
    /// dependencies: those at or after the anchor move `k` periods on,
    /// and those on a linked block's copy 0 move to its copy `k`.
    fn push_levels(&self, k: usize, levels: &mut Vec<Level>) {
        let (from, shift) = (self.anchor, k * self.period);
        levels.push(Level {
            from,
            to: CmdId::MAX,
            shift,
        });
        if let Some(side) = &self.side {
            levels.extend(side.links.iter().map(|(ids, period)| Level {
                from: ids.start,
                to: ids.end,
                shift: k * period,
            }));
        }
    }
}

/// Dependency `d` of a stored command, in the copies `levels` list from
/// the outermost repeat in.
fn resolve(levels: &[Level], d: CmdId) -> CmdId {
    levels.iter().rev().fold(d, |d, level| {
        if (level.from..level.to).contains(&d) {
            d + level.shift
        } else {
            d
        }
    })
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Appends a command, returning its id.
    pub fn push(&mut self, cmd: Command) -> CmdId {
        self.emit(cmd.unit, cmd.duration, cmd.tag, cmd.deps, cmd.shared)
    }

    /// Appends a command from its parts, returning its id. `deps` and
    /// `shared` take any iterator of ids: arrays, `Option`s, ranges,
    /// copied slices.
    ///
    /// # Examples
    ///
    /// ```
    /// use ianus_npu::scheduler::Program;
    /// use ianus_sim::Duration;
    ///
    /// let mut p = Program::new();
    /// let a = p.emit(0, Duration::from_ns(10), 0, [], 2..4);
    /// let b = p.emit(1, Duration::from_ns(5), 1, [a], None);
    /// let cmd = p.commands().nth(b).unwrap();
    /// assert_eq!((cmd.deps, cmd.shared), (&[a][..], &[][..]));
    /// assert_eq!(p.commands().next().unwrap().shared, &[2, 3]);
    /// ```
    pub fn emit(
        &mut self,
        unit: UnitId,
        duration: Duration,
        tag: usize,
        deps: impl IntoIterator<Item = CmdId>,
        shared: impl IntoIterator<Item = UnitId>,
    ) -> CmdId {
        self.deps.extend(deps);
        self.shared.extend(shared);
        let narrow = |n: usize| u32::try_from(n).expect("program exceeds u32 indices");
        self.records.push(Record {
            duration,
            unit: narrow(unit),
            tag: narrow(tag),
            deps_end: narrow(self.deps.len()),
            shared_end: narrow(self.shared.len()),
        });
        self.tags = self.tags.max(tag + 1);
        self.len += 1;
        self.len - 1
    }

    /// Removes every command, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.records.clear();
        self.deps.clear();
        self.shared.clear();
        self.repeats.clear();
        self.maps.clear();
        (self.len, self.tags) = (0, 0);
    }

    /// Frees the capacity beyond the commands stored, for a program kept
    /// long after it is emitted.
    pub fn shrink_to_fit(&mut self) {
        self.records.shrink_to_fit();
        self.deps.shrink_to_fit();
        self.shared.shrink_to_fit();
        self.repeats.shrink_to_fit();
        self.maps.shrink_to_fit();
    }

    /// Repeats commands `block`, the last ones emitted, `times` more
    /// times without storing the copies. Copy `k` has ids `k ×
    /// block.len()` later than the block, and so does every dependency of
    /// each of its commands on a command at or after `anchor`; dependencies
    /// on commands before `anchor` are the same in every copy (pass 0 to
    /// shift them all). Units, durations, tags and holds are the block's.
    /// The block may hold repeated blocks of its own, which every copy
    /// repeats alike. Commands emitted afterwards follow the last copy and
    /// may depend on any command, copies included. [`Engine::run`] writes
    /// copies in closed form once the schedule settles (see the
    /// [module docs](self)), and [`expanded`](Self::expanded) emits them.
    ///
    /// # Panics
    ///
    /// Panics if `block` is empty, does not end at
    /// [`next_id`](Self::next_id) or starts inside an earlier repeat, if
    /// `anchor` is after the block's start, or if a repeat inside the
    /// block has an anchor before `anchor`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ianus_npu::scheduler::{Engine, Program};
    /// use ianus_sim::Duration;
    ///
    /// let mut p = Program::new();
    /// let mut last = None;
    /// for _ in 0..3 {
    ///     let load = p.emit(1, Duration::from_ns(100), 0, last, None);
    ///     last = Some(p.emit(0, Duration::from_ns(50), 1, [load], None));
    /// }
    /// // Blocks 3-9 are copies of block 2, which repeats block 1.
    /// assert!(p.repeats_previous(4..6, 0));
    /// p.repeat_block(4..6, 0, 7);
    /// assert_eq!((p.len(), p.commands().count()), (20, 6));
    /// let report = Engine::new(2, Duration::ZERO).run(&p);
    /// assert_eq!(report.makespan().as_ns_f64(), 1500.0);
    /// assert_eq!(report.finish(19), report.makespan());
    /// // Blocks 0-2 are scheduled; the shift they settle into fills 3-9.
    /// assert_eq!(report.scheduled(), 6);
    /// assert_eq!(report, Engine::new(2, Duration::ZERO).run(&p.expanded()));
    /// ```
    ///
    /// Heads that all read one layer norm keep that dependency fixed:
    ///
    /// ```
    /// use ianus_npu::scheduler::{Engine, Program};
    /// use ianus_sim::Duration;
    ///
    /// let mut p = Program::new();
    /// let norm = p.emit(0, Duration::from_ns(30), 0, [], None);
    /// for _ in 0..2 {
    ///     let load = p.emit(1, Duration::from_ns(100), 1, [], None);
    ///     p.emit(0, Duration::from_ns(50), 1, [norm, load], None);
    /// }
    /// assert!(p.repeats_previous(3..5, 1));
    /// p.repeat_block(3..5, 1, 6);
    /// let full = p.expanded();
    /// assert_eq!(full.commands().last().unwrap().deps, &[0, 15]);
    /// let mut engine = Engine::new(2, Duration::ZERO);
    /// assert_eq!(engine.run(&p), engine.run(&full));
    /// ```
    pub fn repeat_block(&mut self, block: Range<CmdId>, anchor: CmdId, times: usize) {
        let (before, inner, records) = self
            .last_block(&block)
            .unwrap_or_else(|| panic!("repeated block {block:?} is not the last commands emitted"));
        assert!(
            anchor <= block.start && inner.iter().all(|r| r.anchor >= anchor),
            "anchor {anchor} of repeated block {block:?} is after its start \
             or before the anchor of a repeat inside it"
        );
        if times == 0 {
            return;
        }
        let nested = before.len();
        let follows = self
            .previous_copy(&block, anchor, before, inner, &records)
            .is_some();
        let period = block.len();
        let local = self.deps[self.deps_range(&records)]
            .iter()
            .all(|&d| d < anchor || d + period >= block.start);
        let mut inner = self.repeats.split_off(nested);
        let units = self.units_of(&records, &inner);
        // The commands before an inner repeat that starts less than one
        // period into the block differ from copy to copy.
        for r in &mut inner {
            r.follows &= r.start >= block.start + r.period;
        }
        self.len += times * period;
        self.repeats.push(Repeat {
            block: records,
            start: block.start,
            period,
            times,
            anchor,
            inner,
            follows,
            local,
            units,
            side: None,
        });
    }

    /// Mirrors commands `block` side by side into `width` copies, if the
    /// commands emitted right after it, the last ones emitted, are its
    /// copy 1: keeps `block` as copy 0, drops copy 1's records and returns
    /// `true`. Copy `k` then has ids `k × block.len()` later than the
    /// block and runs on the units and held resources `sigma` maps the
    /// block's to `k` times over (σᵏ); so does copy 1 as emitted.
    ///
    /// Copy 1 is the block's copy when, command by command, it has the
    /// same duration, tag and repeats, its unit and held resources are the
    /// block's mapped by σ, and each dependency is the block's moved
    /// `block.len()` ids on if inside the block, the same if before it,
    /// or, on copy 0 of an earlier mirrored block as wide, that block's
    /// copy 1; copy `k` then reads its copy `k`, and the link holds for
    /// every dependency of `block` on that block's copy 0. The block's
    /// copies must also run on units of their own: a unit or resource of
    /// the block is never that of another copy, so σ moves every one (a
    /// resource all copies hold, such as a shared bus, fails this). The
    /// block may hold repeated blocks of its own but not mirrored ones.
    /// Otherwise the program is left as it is and `false` returned, and
    /// the caller emits the other copies itself. [`Engine::run`] writes
    /// copies whose inputs are copy 0's in closed form (see the [module
    /// docs](self)), and [`expanded`](Self::expanded) emits them.
    ///
    /// # Examples
    ///
    /// ```
    /// use ianus_npu::scheduler::{Engine, Program};
    /// use ianus_sim::Duration;
    ///
    /// // Two cores, each a load on its DMA (units 0, 2) and a compute on
    /// // its matrix unit (units 1, 3) reading it; σ swaps the cores.
    /// let sigma = [2, 3, 0, 1];
    /// let mut p = Program::new();
    /// for core in [0, 2] {
    ///     let load = p.emit(core, Duration::from_ns(100), 0, [], None);
    ///     p.emit(core + 1, Duration::from_ns(50), 1, [load], None);
    /// }
    /// assert!(p.mirror_block(0..2, &sigma, 2));
    /// assert_eq!((p.len(), p.commands().count()), (4, 2));
    /// let report = Engine::new(4, Duration::ZERO).run(&p);
    /// assert_eq!(report.finish(3).as_ns_f64(), 150.0);
    /// assert_eq!(report.scheduled(), 2);
    /// assert_eq!(report, Engine::new(4, Duration::ZERO).run(&p.expanded()));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `width` is less than 2, if `block` is empty, or if
    /// `sigma` maps a unit past its own length.
    pub fn mirror_block(&mut self, block: Range<CmdId>, sigma: &[UnitId], width: usize) -> bool {
        assert!(
            width >= 2 && !block.is_empty(),
            "mirror {block:?} {width} wide"
        );
        assert!(
            sigma.iter().all(|&u| u < sigma.len()),
            "unit map {sigma:?} maps a unit outside itself"
        );
        fn mirrors_inside(repeats: &[Repeat]) -> bool {
            (repeats.iter()).any(|r| r.side.is_some() || mirrors_inside(&r.inner))
        }
        let period = block.len();
        let Some((_, inner, records)) = self.last_block(&(block.start..block.end + period)) else {
            return false;
        };
        let (inner, copy_inner) = inner.split_at(inner.partition_point(|r| r.start < block.end));
        let unstored: usize = inner.iter().map(Repeat::unstored).sum();
        let (Some(stored), true) = (
            period.checked_sub(unstored),
            inner.iter().all(|r| r.end() <= block.end),
        ) else {
            return false;
        };
        let (copy, records) = (
            records.start + stored..records.end,
            records.start..records.start + stored,
        );
        let mapped = |u: UnitId| sigma.get(u).copied().filter(|&m| m != u);
        let alike = copy.len() == records.len()
            && copy_inner.len() == inner.len()
            && self
                .commands_in(records.clone(), block.start)
                .zip(self.commands_in(copy.clone(), block.end))
                .all(|(r, c)| {
                    (r.duration, r.tag) == (c.duration, c.tag)
                        && mapped(r.unit) == Some(c.unit)
                        && r.shared.len() == c.shared.len()
                        && r.deps.len() == c.deps.len()
                        && (r.shared.iter())
                            .zip(c.shared)
                            .all(|(&s, &t)| mapped(s) == Some(t))
                })
            && !mirrors_inside(inner)
            && (copy_inner.iter())
                .zip(inner)
                .all(|(c, r)| c.shifted_from(r, records.len(), period));
        let (inner, copy_inner) = (inner.len(), copy_inner.len());
        if !alike {
            return false;
        }
        // Sort every dependency of the block: inside it, fixed, or linked.
        let (mut links, mut inputs) = (Vec::new(), Vec::new());
        let deps = || {
            let (deps, copy_deps) = (self.deps_range(&records), self.deps_range(&copy));
            self.deps[deps].iter().zip(&self.deps[copy_deps])
        };
        for (&d, &c) in deps() {
            if d >= block.start {
                if c != d + period {
                    return false;
                }
            } else if c != d {
                match self.mirror_of(d) {
                    Some((ids, r)) if r.times + 1 == width && c == d + r.period => {
                        if !links.contains(&(ids.clone(), r.period)) {
                            links.push((ids, r.period));
                        }
                        if !inputs.contains(&(d, r.period)) {
                            inputs.push((d, r.period));
                        }
                    }
                    _ => return false,
                }
            }
        }
        let linked = |d: &CmdId| {
            links
                .iter()
                .any(|(ids, _): &(Range<CmdId>, _)| ids.contains(d))
        };
        if deps().any(|(d, c)| d == c && linked(d)) {
            return false;
        }
        // Copy k runs on σᵏ of the block's units: every copy's own.
        let mut used = vec![false; sigma.len()];
        let held = self.shared[self.shared_range(&records)].iter().copied();
        for u in self.records[records.clone()]
            .iter()
            .map(|r| r.unit as UnitId)
            .chain(held)
        {
            used[u] = true;
        }
        let own: Vec<UnitId> = (0..used.len()).filter(|&u| used[u]).collect();
        for &u in &own {
            let mut image = u;
            for _ in 1..width {
                image = sigma[image];
                if std::mem::replace(&mut used[image], true) {
                    return false;
                }
            }
        }
        let tags = self.records[records.clone()].iter().map(|r| r.tag as usize);
        let tags = tags.clone().min().unwrap_or(0)..tags.max().map_or(0, |t| t + 1);
        // Drop copy 1 and keep the block, its repeats inside it.
        self.records.truncate(copy.start);
        self.deps.truncate(self.deps_start(copy.start));
        self.shared.truncate(self.shared_start(copy.start));
        let nested = self.repeats.len() - inner - copy_inner;
        self.repeats.truncate(nested + inner);
        let inner = self.repeats.split_off(nested);
        let maps = self.maps_of(sigma, width - 1);
        self.len = block.start + width * period;
        self.repeats.push(Repeat {
            block: records,
            start: block.start,
            period,
            times: width - 1,
            anchor: block.start,
            inner,
            follows: false,
            local: true,
            units: Vec::new(),
            side: Some(Side {
                maps,
                links,
                inputs,
                own,
                tags,
            }),
        });
        true
    }

    /// Index in `maps` of a list of `sigma`'s powers from σ¹ to at least
    /// σⁿ: an earlier mirror's, or a new one.
    fn maps_of(&mut self, sigma: &[UnitId], n: usize) -> usize {
        let found = (self.maps.iter()).position(|powers| powers[0] == sigma && powers.len() >= n);
        found.unwrap_or_else(|| {
            let mut powers = vec![sigma.to_vec()];
            for k in 1..n {
                powers.push(powers[k - 1].iter().map(|&u| sigma[u]).collect());
            }
            self.maps.push(powers);
            self.maps.len() - 1
        })
    }

    /// The mirrored block command `id` is copy 0 of, or a copy in time of
    /// copy 0 of, if any: the ids of that copy 0 around `id`, and the
    /// mirror.
    fn mirror_of(&self, id: CmdId) -> Option<(Range<CmdId>, &Repeat)> {
        let (mut at, mut level) = (id, &self.repeats[..]);
        loop {
            let r = &level[level.partition_point(|r| r.start <= at).checked_sub(1)?];
            if at >= r.end() {
                return None;
            }
            let offset = at - r.start;
            if r.side.is_some() {
                let start = id - offset;
                return (offset < r.period).then_some((start..start + r.period, r));
            }
            (at, level) = (r.start + offset % r.period, &r.inner);
        }
    }

    /// The units and held resources of records `records` and of the
    /// copies of the repeats `inner` among them, each once, in ascending
    /// order: a set over unit ids, read back in order.
    fn units_of(&self, records: &Range<usize>, inner: &[Repeat]) -> Vec<UnitId> {
        let units = self.records[records.clone()]
            .iter()
            .map(|r| r.unit as UnitId);
        let held = self.shared[self.shared_range(records)].iter().copied();
        let copies = inner.iter().flat_map(|r| {
            let maps: &[Vec<UnitId>] = match &r.side {
                Some(side) => &self.maps[side.maps][..r.times],
                None => &[],
            };
            let own = r.side.iter().flat_map(|side| &side.own);
            let images = own.flat_map(move |&u| maps.iter().map(move |map| map[u]));
            r.units.iter().copied().chain(images)
        });
        let all = units.chain(held).chain(copies);
        let mut used = vec![false; all.clone().max().map_or(0, |u| u + 1)];
        for u in all {
            used[u] = true;
        }
        (0..used.len()).filter(|&u| used[u]).collect()
    }

    /// The repeats outside any other before `block` and inside it, and
    /// the block's records, if `block` is the last commands emitted and
    /// starts inside no repeat.
    fn last_block(&self, block: &Range<CmdId>) -> Option<(&[Repeat], &[Repeat], Range<usize>)> {
        let (before, inner) = self
            .repeats
            .split_at(self.repeats.partition_point(|r| r.start < block.start));
        let inside_earlier = before.last().is_some_and(|r| r.end() > block.start);
        if block.is_empty() || block.end != self.len || inside_earlier {
            return None;
        }
        let stored = block.len() - inner.iter().map(Repeat::unstored).sum::<usize>();
        Some((
            before,
            inner,
            self.records.len() - stored..self.records.len(),
        ))
    }

    /// The records of the `block.len()` commands before `block`, if they
    /// are emitted like it, durations aside: the same units, tags, holds
    /// and repeats, with every dependency `block.len()` ids later unless
    /// before `anchor`. `before` and `inner` are the repeats outside any
    /// other before the block and inside it, and `records` the block's
    /// records.
    fn previous_copy(
        &self,
        block: &Range<CmdId>,
        anchor: CmdId,
        before: &[Repeat],
        inner: &[Repeat],
        records: &Range<usize>,
    ) -> Option<Range<usize>> {
        let period = block.len();
        let prev_start = block.start.checked_sub(period)?;
        let (earlier, prev_inner) =
            before.split_at(before.partition_point(|r| r.start < prev_start));
        if earlier.last().is_some_and(|r| r.end() > prev_start) {
            return None;
        }
        let unstored: usize = earlier.iter().map(Repeat::unstored).sum();
        let prev = prev_start - unstored..records.start;
        let offset = prev.len();
        let same = offset == records.len()
            && self.emitted_alike(&prev, records, period, anchor)
            && prev_inner.len() == inner.len()
            && (inner.iter())
                .zip(prev_inner)
                .all(|(r, p)| p.anchor >= anchor && r.shifted_from(p, offset, period));
        same.then_some(prev)
    }

    /// Re-times command `id`, leaving its unit, tag, dependencies and
    /// shared resources as emitted: a compiler re-timing one program to
    /// new operand sizes patches durations instead of emitting again. A
    /// command of a repeated or mirrored block is re-timed in every copy.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use ianus_npu::scheduler::{Command, Program};
    /// use ianus_sim::Duration;
    ///
    /// let mut p = Program::new();
    /// let a = p.push(Command::new(0, Duration::from_ns(10), 0));
    /// p.set_duration(a, Duration::from_ns(25));
    /// assert_eq!(p.commands().next().unwrap().duration, Duration::from_ns(25));
    /// ```
    pub fn set_duration(&mut self, id: CmdId, duration: Duration) {
        self.set_durations(id, &[duration]);
    }

    /// Re-times commands `first..first + durations.len()` like
    /// [`set_duration`](Self::set_duration), in one lookup.
    ///
    /// # Panics
    ///
    /// Panics if the commands are out of range or are not stored one
    /// after another (a repeat's copies lie between them).
    pub fn set_durations(&mut self, first: CmdId, durations: &[Duration]) {
        let records = self.stored_together(first, durations.len());
        for (record, &duration) in self.records[records].iter_mut().zip(durations) {
            record.duration = duration;
        }
    }

    /// The records of commands `first..first + len`.
    ///
    /// # Panics
    ///
    /// Panics if the commands are out of range or are not stored one
    /// after another.
    fn stored_together(&self, first: CmdId, len: usize) -> Range<usize> {
        let Some(last) = len.checked_sub(1) else {
            return 0..0;
        };
        let start = self.record_of(first);
        assert_eq!(
            self.record_of(first + last),
            start + last,
            "commands {first}..={} are not stored together",
            first + last
        );
        start..start + len
    }

    /// Index of the record command `id` is, or is a copy of.
    fn record_of(&self, id: CmdId) -> usize {
        let (mut id, mut unstored, mut level) = (id, 0, &self.repeats[..]);
        'descend: loop {
            for r in level {
                if id < r.start {
                    break;
                }
                if id < r.end() {
                    id = r.start + (id - r.start) % r.period;
                    level = &r.inner;
                    continue 'descend;
                }
                unstored += r.unstored();
            }
            return id - unstored;
        }
    }

    /// Number of commands, copies of repeated blocks included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The stored commands in emission order: a repeated block's
    /// commands appear once, not once per copy.
    pub fn commands(&self) -> impl Iterator<Item = CommandView<'_>> + '_ {
        let mut stretches = Vec::new();
        self.stretches(0..self.records.len(), 0, &self.repeats, &mut stretches);
        stretches
            .into_iter()
            .flat_map(|(records, first)| self.commands_in(records, first))
    }

    /// Collects the stretches of stored commands between the repeats
    /// `repeats` of records `records`, whose first command is `first`,
    /// and inside them: each one's records and first id, in order.
    fn stretches(
        &self,
        records: Range<usize>,
        first: CmdId,
        repeats: &[Repeat],
        out: &mut Vec<(Range<usize>, CmdId)>,
    ) {
        let (mut record, mut id) = (records.start, first);
        for r in repeats {
            out.push((record..r.block.start, id));
            self.stretches(r.block.clone(), r.start, &r.inner, out);
            (record, id) = (r.block.end, r.end());
        }
        out.push((record..records.end, id));
    }

    /// The program with every copy of a repeated or mirrored block
    /// emitted: the same commands under the same ids, all stored.
    pub fn expanded(&self) -> Program {
        let mut full = Program::new();
        let mut levels = Vec::new();
        let records = 0..self.records.len();
        self.expand(&mut full, records, &self.repeats, &mut levels, &[]);
        full
    }

    /// Emits records `records` into `full` with every copy of the
    /// repeats `repeats` among them, each dependency mapped through
    /// `levels` and each unit through `units` (no map if empty).
    fn expand(
        &self,
        full: &mut Program,
        records: Range<usize>,
        repeats: &[Repeat],
        levels: &mut Vec<Level>,
        units: &[UnitId],
    ) {
        let mut record = records.start;
        for r in repeats {
            full.append(self.commands_in(record..r.block.start, 0), levels, units);
            for k in 0..=r.times {
                let depth = levels.len();
                r.push_levels(k, levels);
                let units = self.copy_units(r, k).unwrap_or(units);
                self.expand(full, r.block.clone(), &r.inner, levels, units);
                levels.truncate(depth);
            }
            record = r.block.end;
        }
        full.append(self.commands_in(record..records.end, 0), levels, units);
    }

    /// The unit map of copy `k` of `repeat`, if the copy runs on other
    /// units than the block: a mirrored block's copy after the first.
    fn copy_units(&self, repeat: &Repeat, k: usize) -> Option<&[UnitId]> {
        let side = repeat.side.as_ref().filter(|_| k > 0)?;
        Some(&self.maps[side.maps][k - 1])
    }

    /// Emits `cmds`, each dependency mapped through `levels` and each unit
    /// and held resource through `units` (no map if empty).
    fn append<'p>(
        &mut self,
        cmds: impl Iterator<Item = CommandView<'p>>,
        levels: &[Level],
        units: &[UnitId],
    ) {
        let unit = |u: UnitId| units.get(u).copied().unwrap_or(u);
        for cmd in cmds {
            let deps = cmd.deps.iter().map(|&d| resolve(levels, d));
            let shared = cmd.shared.iter().map(|&s| unit(s));
            self.emit(unit(cmd.unit), cmd.duration, cmd.tag, deps, shared);
        }
    }

    /// Records `records`, the first of which is command `first`, in
    /// emission order.
    fn commands_in(
        &self,
        records: Range<usize>,
        first: CmdId,
    ) -> impl ExactSizeIterator<Item = CommandView<'_>> {
        let mut deps_start = self.deps_start(records.start);
        let mut shared_start = self.shared_start(records.start);
        self.records[records].iter().enumerate().map(move |(i, r)| {
            let (deps_end, shared_end) = (r.deps_end as usize, r.shared_end as usize);
            let view = CommandView {
                id: first + i,
                unit: r.unit as UnitId,
                duration: r.duration,
                tag: r.tag as usize,
                deps: &self.deps[deps_start..deps_end],
                shared: &self.shared[shared_start..shared_end],
            };
            deps_start = deps_end;
            shared_start = shared_end;
            view
        })
    }

    /// Id the next pushed command will receive.
    pub fn next_id(&self) -> CmdId {
        self.len
    }

    /// Offset in `deps` of record `index`'s first dependency (`deps.len()`
    /// for `index == records.len()`).
    fn deps_start(&self, index: usize) -> usize {
        index
            .checked_sub(1)
            .map_or(0, |prev| self.records[prev].deps_end as usize)
    }

    /// Offset in `shared` of record `index`'s first held resource.
    fn shared_start(&self, index: usize) -> usize {
        index
            .checked_sub(1)
            .map_or(0, |prev| self.records[prev].shared_end as usize)
    }

    /// Whether commands `block`, the last ones emitted, repeat the
    /// `block.len()` commands just before them: the same units,
    /// durations, tags, holds and repeated blocks, with every dependency
    /// on a command at or after `anchor` `block.len()` ids later and every
    /// other the same. Commands that start inside a repeat, or are not
    /// the last emitted, do not repeat.
    pub fn repeats_previous(&self, block: Range<CmdId>, anchor: CmdId) -> bool {
        self.last_block(&block)
            .and_then(|(before, inner, records)| {
                let prev = self.previous_copy(&block, anchor, before, inner, &records)?;
                Some(self.durations_alike(&prev, &records))
            })
            .unwrap_or(false)
    }

    /// Whether records `prev` and `block` have the same durations.
    fn durations_alike(&self, prev: &Range<usize>, block: &Range<usize>) -> bool {
        (self.records[prev.clone()].iter())
            .zip(&self.records[block.clone()])
            .fold(true, |same, (p, r)| same & (p.duration == r.duration))
    }

    /// Whether records `block` are emitted like records `prev`, of the same
    /// length, durations aside: the same units, tags and holds, with every
    /// dependency `period` ids later unless before `anchor`.
    fn emitted_alike(
        &self,
        prev: &Range<usize>,
        block: &Range<usize>,
        period: usize,
        anchor: CmdId,
    ) -> bool {
        let (deps, prev_deps) = (self.deps_range(block), self.deps_range(prev));
        let (shared, prev_shared) = (self.shared_range(block), self.shared_range(prev));
        let (dep_shift, shared_shift) = (prev_deps.len(), prev_shared.len());
        if deps.len() != dep_shift || shared.len() != shared_shift {
            return false;
        }
        // Folds without short-circuit: a repeating block is read whole
        // anyway, and branch-free comparisons vectorize.
        let (dep_shift, shared_shift) = (dep_shift as u32, shared_shift as u32);
        let records = self.records[prev.clone()]
            .iter()
            .zip(&self.records[block.clone()])
            .fold(true, |same, (p, r)| {
                same & (r.unit == p.unit)
                    & (r.tag == p.tag)
                    & (r.deps_end.wrapping_sub(p.deps_end) == dep_shift)
                    & (r.shared_end.wrapping_sub(p.shared_end) == shared_shift)
            });
        let deps = self.deps[deps]
            .iter()
            .zip(&self.deps[prev_deps])
            .fold(true, |same, (&d, &p)| {
                same & (d == p + usize::from(p >= anchor) * period)
            });
        records && deps && self.shared[shared] == self.shared[prev_shared]
    }

    /// The `deps` entries of records `records`.
    fn deps_range(&self, records: &Range<usize>) -> Range<usize> {
        self.deps_start(records.start)..self.deps_start(records.end)
    }

    /// The `shared` entries of records `records`.
    fn shared_range(&self, records: &Range<usize>) -> Range<usize> {
        self.shared_start(records.start)..self.shared_start(records.end)
    }
}

/// One command's execution interval, emitted by [`Engine::run_traced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Command id within the program.
    pub cmd: CmdId,
    /// Unit the command executed on.
    pub unit: UnitId,
    /// Tag of the command.
    pub tag: usize,
    /// Start of execution.
    pub start: Time,
    /// End of execution.
    pub end: Time,
}

/// Serializes spans as a Chrome `chrome://tracing` / Perfetto JSON array
/// ("X" complete events; timestamps in microseconds). Unit and tag names
/// are optional lookups — indices are printed when a name is missing.
///
/// # Examples
///
/// ```
/// use ianus_npu::scheduler::{chrome_trace, Span};
/// use ianus_sim::Time;
/// let spans = [Span { cmd: 0, unit: 1, tag: 0, start: Time::ZERO, end: Time::from_ns(1500) }];
/// let json = chrome_trace(&spans, &["mu", "dma"], &["gemm"]);
/// assert!(json.contains("\"name\": \"gemm\""));
/// assert!(json.contains("\"tid\": \"dma\""));
/// ```
pub fn chrome_trace(spans: &[Span], unit_names: &[&str], tag_names: &[&str]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let name = tag_names
            .get(s.tag)
            .map_or_else(|| format!("tag{}", s.tag), |n| (*n).to_owned());
        let tid = unit_names
            .get(s.unit)
            .map_or_else(|| format!("unit{}", s.unit), |n| (*n).to_owned());
        let ts = s.start.as_ps() as f64 / 1e6;
        let dur = (s.end.as_ps() - s.start.as_ps()) as f64 / 1e6;
        out.push_str(&format!(
            "  {{\"name\": {}, \"ph\": \"X\", \"pid\": 0, \"tid\": {}, \
             \"ts\": {ts:.3}, \"dur\": {dur:.3}, \"args\": {{\"cmd\": {}}}}}{}\n",
            json_string(&name),
            json_string(&tid),
            s.cmd,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

/// `s` as a quoted JSON string, with quotes, backslashes and control
/// characters escaped.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Execution result of a program.
///
/// Two reports are equal when they describe the same schedule:
/// [`scheduled`](Self::scheduled) counts the engine's work, not the
/// schedule, and is not compared.
#[derive(Debug, Clone, Eq)]
pub struct ExecutionReport {
    walk: Walk<1>,
}

impl PartialEq for ExecutionReport {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.walk, &other.walk);
        let len = a.finish.len;
        len == b.finish.len
            && (0..len).all(|id| a.finish.get(id) == b.finish.get(id))
            && a.makespan == b.makespan
            && a.tag_busy == b.tag_busy
            && a.unit_busy == b.unit_busy
    }
}

impl ExecutionReport {
    /// Completion time of command `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn finish(&self, id: CmdId) -> Time {
        let [finish] = self.walk.finish.get(id);
        finish
    }

    /// Completion time of the whole program.
    pub fn makespan(&self) -> Time {
        self.walk.makespan[0]
    }

    /// Total busy time attributed to `tag` (zero for unseen tags).
    pub fn tag_busy(&self, tag: usize) -> Duration {
        self.walk.tag_busy(0, tag)
    }

    /// Total busy time of `unit`.
    pub fn unit_busy(&self, unit: UnitId) -> Duration {
        column(&self.walk.unit_busy, 0, unit)
    }

    /// Number of commands the engine scheduled one by one; the rest of
    /// the program's commands were copies of repeated or mirrored blocks
    /// written in closed form (see the [module docs](self)). A
    /// deterministic work counter: it depends only on the program and the
    /// engine, never on the host.
    pub fn scheduled(&self) -> usize {
        self.walk.scheduled()
    }
}

/// Every lane's schedule from one [`Engine::run_lanes`] call: each
/// lane's makespan, tag busy times and work count, read without copying
/// the lane out of the walk, and each lane's whole [`ExecutionReport`]
/// on demand.
///
/// Lanes are numbered from 0 to `L - 1`, as in the [`Lanes`] walked.
#[derive(Debug, Clone)]
pub struct Schedule<const L: usize> {
    timed: Timed<L>,
}

/// How the lanes of a [`Schedule`] were timed.
#[derive(Debug, Clone)]
enum Timed<const L: usize> {
    /// In one walk.
    Shared(Walk<L>),
    /// Each in a walk of its own: the lanes settled a repeat at different
    /// copies.
    Apart(Vec<Walk<1>>),
}

impl<const L: usize> Schedule<L> {
    /// Completion time of lane `lane`'s program.
    pub fn makespan(&self, lane: usize) -> Time {
        match &self.timed {
            Timed::Shared(walk) => walk.makespan[lane],
            Timed::Apart(walks) => walks[lane].makespan[0],
        }
    }

    /// Busy time lane `lane` attributes to `tag` (zero for unseen tags).
    pub fn tag_busy(&self, lane: usize, tag: usize) -> Duration {
        match &self.timed {
            Timed::Shared(walk) => walk.tag_busy(lane, tag),
            Timed::Apart(walks) => walks[lane].tag_busy(0, tag),
        }
    }

    /// Commands the engine scheduled one by one for lane `lane`: its
    /// report's [`scheduled`](ExecutionReport::scheduled).
    pub fn scheduled(&self, lane: usize) -> usize {
        match &self.timed {
            Timed::Shared(walk) => walk.scheduled(),
            Timed::Apart(walks) => walks[lane].scheduled(),
        }
    }

    /// Lane `lane`'s report: the report [`Engine::run`] gives on the
    /// program with that lane's durations. Copies the lane's finishes
    /// and busy times out of the schedule.
    pub fn report(&self, lane: usize) -> ExecutionReport {
        let walk = match &self.timed {
            Timed::Shared(walk) => walk.lane(lane),
            Timed::Apart(walks) => walks[lane].clone(),
        };
        ExecutionReport { walk }
    }
}

/// A program with `L` duration columns, or *lanes*, that
/// [`Engine::run_lanes`] times in one walk of the program.
///
/// Every lane runs the program's commands, dependencies and holds; each
/// has durations of its own, which start as the program's and are
/// re-timed with [`set_durations`](Self::set_durations), the program
/// itself untouched.
///
/// # Examples
///
/// ```
/// use ianus_npu::scheduler::{Engine, Lanes, Program};
/// use ianus_sim::Duration;
///
/// let mut p = Program::new();
/// let load = p.emit(1, Duration::from_ns(100), 0, [], None);
/// p.emit(0, Duration::from_ns(50), 1, [load], None);
/// let mut lanes = Lanes::<2>::new(&p);
/// lanes.set_durations(load, &[[Duration::from_ns(100), Duration::from_ns(300)]]);
/// let mut engine = Engine::new(2, Duration::ZERO);
/// let schedule = engine.run_lanes(&lanes);
/// let [fast, slow] = [0, 1].map(|lane| schedule.makespan(lane).as_ns_f64());
/// assert_eq!((fast, slow), (150.0, 350.0));
/// p.set_duration(load, Duration::from_ns(300));
/// assert_eq!(schedule.report(1), engine.run(&p));
/// ```
#[derive(Debug, Clone)]
pub struct Lanes<'p, const L: usize> {
    program: &'p Program,
    /// Every stored command's duration in each lane, by record.
    durations: Vec<[Duration; L]>,
}

impl<'p, const L: usize> Lanes<'p, L> {
    /// `program` with its own durations in every lane.
    ///
    /// # Panics
    ///
    /// Panics if `L` is zero.
    pub fn new(program: &'p Program) -> Self {
        assert!(L > 0, "a lane program needs at least one lane");
        Lanes {
            program,
            durations: program.records.iter().map(|r| [r.duration; L]).collect(),
        }
    }

    /// Re-times commands `first..first + durations.len()`, each lane to
    /// its own of each command's durations, as
    /// [`Program::set_durations`] re-times them in a program: a command
    /// of a repeated or mirrored block is re-timed in every copy.
    ///
    /// # Panics
    ///
    /// Panics where [`Program::set_durations`] panics.
    pub fn set_durations(&mut self, first: CmdId, durations: &[[Duration; L]]) {
        let records = self.program.stored_together(first, durations.len());
        self.durations[records].copy_from_slice(durations);
    }

    /// `program` with the durations an earlier `Lanes` of `program` left
    /// in `durations` ([`into_durations`](Self::into_durations)), so a
    /// caller that re-times the same commands walk after walk copies
    /// neither the program's durations nor a table.
    ///
    /// # Panics
    ///
    /// Panics if `durations` does not have one entry per stored command
    /// of `program`.
    pub fn recycle(program: &'p Program, durations: Vec<[Duration; L]>) -> Self {
        assert_eq!(
            durations.len(),
            program.records.len(),
            "a recycled duration table has one entry per stored command"
        );
        Lanes { program, durations }
    }

    /// The lanes' duration table, to [`recycle`](Self::recycle).
    pub fn into_durations(self) -> Vec<[Duration; L]> {
        self.durations
    }

    /// Lane `lane` alone.
    fn lane(&self, lane: usize) -> Lanes<'p, 1> {
        Lanes {
            program: self.program,
            durations: self.durations.iter().map(|d| [d[lane]]).collect(),
        }
    }
}

/// Finish times of the commands timed so far, by id, in each of `L`
/// lanes: those scheduled one by one, and runs of copies written in
/// closed form. Every lane has the same runs, each with a shift of its
/// own.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Finishes<const L: usize> {
    /// Finishes of the commands scheduled one by one, in id order.
    scheduled: Vec<[Time; L]>,
    /// Runs of copies written in closed form, in id order.
    shifted: Vec<Shifted<L>>,
    /// Number of commands timed.
    len: usize,
    /// First id after the last run; the finish of a later command is
    /// `scheduled[id - unscheduled]`.
    tail: CmdId,
    /// Commands written in closed form.
    unscheduled: usize,
}

/// Copies of a block written in closed form: in each lane, copy `k` of
/// the run finishes `k` × that lane's δ after the copy timed just before
/// the run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Shifted<const L: usize> {
    /// Id of the run's first command.
    start: CmdId,
    /// Commands per copy.
    period: usize,
    /// Copies in the run.
    copies: usize,
    /// Each lane's shift between consecutive copies.
    delta: [Duration; L],
    /// Whether every lane's shift is zero, as for mirrored copies.
    still: bool,
    /// Index in `scheduled` of the first command after the run.
    resume: usize,
}

impl<const L: usize> Shifted<L> {
    /// Id of the first command after the run.
    fn end(&self) -> CmdId {
        self.start + self.copies * self.period
    }

    /// The copy of the run command `id` is in, from 0, and its offset in
    /// that copy. A run of a few copies (mirrored ones) is walked by
    /// subtraction, which is cheaper than a division.
    #[inline(always)]
    fn copy_of(&self, id: CmdId) -> (usize, usize) {
        let mut offset = id - self.start;
        if self.copies > 4 {
            return (offset / self.period, offset % self.period);
        }
        let mut copy = 0;
        while offset >= self.period {
            (copy, offset) = (copy + 1, offset - self.period);
        }
        (copy, offset)
    }
}

impl<const L: usize> Finishes<L> {
    /// Times the next command one by one.
    #[inline(always)]
    fn push(&mut self, finish: [Time; L]) {
        self.scheduled.push(finish);
        self.len += 1;
    }

    /// Finish of command `id`.
    #[inline(always)]
    fn get(&self, id: CmdId) -> [Time; L] {
        if id >= self.tail {
            return self.scheduled[id - self.unscheduled];
        }
        // A copy in a run finishes a whole number of shifts after the
        // matching command of the copy before the run, which may itself
        // be in a run (a repeat inside a repeated block). Runs of mirrored
        // copies shift by nothing.
        let (mut id, mut shift) = (id, None);
        let shifted = |finish, shift: Option<[Duration; L]>| match shift {
            Some(shift) => after(finish, shift),
            None => finish,
        };
        loop {
            let Some(run) = self.run_at(id) else {
                return shifted(self.scheduled[id], shift);
            };
            if id >= run.end() {
                return shifted(self.scheduled[run.resume + id - run.end()], shift);
            }
            let (copy, offset) = run.copy_of(id);
            if !run.still {
                let copies = copy as u64 + 1;
                let sum = shift.get_or_insert([Duration::ZERO; L]);
                add(sum, &run.delta.map(|d| d * copies));
            }
            id = run.start - run.period + offset;
        }
    }

    /// Whether command `id` and the `copies - 1` commands `period` ids
    /// apart after it are copies written in closed form of one command,
    /// the one `period` ids before `id`, with no shift: the copies of a
    /// mirrored block, which finish with its copy 0.
    fn mirrored(&self, id: CmdId, period: usize, copies: usize) -> bool {
        let last = id + (copies - 1) * period;
        (id < self.tail)
            .then(|| self.run_at(id))
            .flatten()
            .is_some_and(|run| {
                run.still && run.period == period && id - run.start < period && last < run.end()
            })
    }

    /// The last run that starts at or before id `id`. Reads look up runs
    /// timed lately the most, so the last few are tried first.
    #[inline(always)]
    fn run_at(&self, id: CmdId) -> Option<&Shifted<L>> {
        let recent = self.shifted.iter().rev().take(4);
        if let Some(run) = recent.clone().find(|r| r.start <= id) {
            return Some(run);
        }
        let runs = self.shifted.partition_point(|r| r.start <= id);
        runs.checked_sub(1).map(|r| &self.shifted[r])
    }

    /// Indices in `scheduled` and `shifted` of the first command and run
    /// at or after id `id`, unless `id` falls inside a run.
    fn mark(&self, id: CmdId) -> Option<(usize, usize)> {
        let runs = self.shifted.partition_point(|r| r.start < id);
        match runs.checked_sub(1).map(|r| &self.shifted[r]) {
            None => Some((id, 0)),
            Some(run) => (id >= run.end()).then(|| (run.resume + id - run.end(), runs)),
        }
    }

    /// In each lane, the shift δ > 0 by which each of the last `period`
    /// commands timed finishes after the one `period` commands before it,
    /// if they all finish by one such shift: the commands scheduled one by
    /// one shift by δ, and the runs among them are the runs `period` ids
    /// before, shifted along.
    fn settled(&self, period: usize) -> [Option<Duration>; L] {
        self.shifts(period).unwrap_or([None; L])
    }

    /// [`settled`](Self::settled), or `None` for every lane if the last
    /// `period` commands are not timed like the `period` before them:
    /// as many scheduled one by one, and the same runs.
    fn shifts(&self, period: usize) -> Option<[Option<Duration>; L]> {
        let last_start = self.len.checked_sub(period)?;
        let (prev_scheduled, prev_runs) = self.mark(last_start.checked_sub(period)?)?;
        let (last_scheduled, last_runs) = self.mark(last_start)?;
        let (prev, last) =
            self.scheduled[prev_scheduled..].split_at(last_scheduled - prev_scheduled);
        let (prev_runs, last_runs) = self.shifted[prev_runs..].split_at(last_runs - prev_runs);
        let alike = prev.len() == last.len()
            && prev_runs.len() == last_runs.len()
            && prev_runs.iter().zip(last_runs).all(|(p, l)| {
                (l.start, l.period, l.copies) == (p.start + period, p.period, p.copies)
            });
        let (first_prev, first_last) = (prev.first()?, last.first()?);
        alike.then(|| {
            std::array::from_fn(|lane| {
                let delta = first_last[lane]
                    .as_ps()
                    .checked_sub(first_prev[lane].as_ps())?;
                let shifted = delta > 0
                    && prev
                        .iter()
                        .zip(last)
                        .all(|(p, l)| l[lane].as_ps() == p[lane].as_ps() + delta)
                    && (prev_runs.iter())
                        .zip(last_runs)
                        .all(|(p, l)| l.delta[lane] == p.delta[lane]);
                shifted.then_some(Duration::from_ps(delta))
            })
        })
    }

    /// Times `copies` copies of the last `period` commands timed, each
    /// the one before shifted by its lane's `delta`.
    fn repeat_last(&mut self, period: usize, copies: usize, delta: [Duration; L]) {
        self.shifted.push(Shifted {
            start: self.len,
            period,
            copies,
            delta,
            still: delta == [Duration::ZERO; L],
            resume: self.scheduled.len(),
        });
        self.len += copies * period;
        self.tail = self.len;
        self.unscheduled = self.len - self.scheduled.len();
    }

    /// Lane `lane` alone.
    fn lane(&self, lane: usize) -> Finishes<1> {
        Finishes {
            scheduled: self.scheduled.iter().map(|t| [t[lane]]).collect(),
            shifted: (self.shifted.iter())
                .map(|r| Shifted {
                    start: r.start,
                    period: r.period,
                    copies: r.copies,
                    delta: [r.delta[lane]],
                    still: r.delta[lane] == Duration::ZERO,
                    resume: r.resume,
                })
                .collect(),
            len: self.len,
            tail: self.tail,
            unscheduled: self.unscheduled,
        }
    }
}

/// The later of two times in each lane.
#[inline(always)]
fn later<const L: usize>(mut a: [Time; L], b: [Time; L]) -> [Time; L] {
    raise(&mut a, &b);
    a
}

/// Raises each lane's time `t` to `to` if that is later.
#[inline(always)]
fn raise<const L: usize>(t: &mut [Time; L], to: &[Time; L]) {
    for (t, &to) in t.iter_mut().zip(to) {
        *t = (*t).max(to);
    }
}

/// Each lane's time plus its duration.
#[inline(always)]
fn after<const L: usize>(mut t: [Time; L], d: [Duration; L]) -> [Time; L] {
    advance(&mut t, &d);
    t
}

/// Moves each lane's time on by its duration.
#[inline(always)]
fn advance<const L: usize>(t: &mut [Time; L], d: &[Duration; L]) {
    for (t, &d) in t.iter_mut().zip(d) {
        *t += d;
    }
}

/// Adds each lane's duration to its sum.
#[inline(always)]
fn add<const L: usize>(sum: &mut [Duration; L], d: &[Duration; L]) {
    for (s, &d) in sum.iter_mut().zip(d) {
        *s += d;
    }
}

/// Adds, `times` over, each lane's busy time since `before`.
fn repeat_busy<const L: usize>(busy: &mut [Duration; L], before: &[Duration; L], times: u64) {
    for (busy, &before) in busy.iter_mut().zip(before) {
        *busy += (*busy - before) * times;
    }
}

/// The unit pool a program executes against.
///
/// Units are plain indices; the system layer defines the convention (which
/// index is a core's matrix unit, which is the shared memory bus, …).
#[derive(Debug, Clone)]
pub struct Engine {
    units: usize,
    dispatch: Duration,
    /// Walks of a program made so far.
    walks: u64,
    /// Commands those walks scheduled one by one.
    scheduled: u64,
}

impl Engine {
    /// Creates an engine with `units` resources and a fixed per-command
    /// dispatch overhead (the command scheduler's issue cost).
    pub fn new(units: usize, dispatch: Duration) -> Self {
        Engine {
            units,
            dispatch,
            walks: 0,
            scheduled: 0,
        }
    }

    /// Number of units.
    pub fn unit_count(&self) -> usize {
        self.units
    }

    /// Number of walks of a program the engine has made: one per
    /// [`run`](Self::run) or [`run_traced`](Self::run_traced), and one
    /// per [`run_lanes`](Self::run_lanes) plus one per lane when its lanes
    /// settle a repeat at different copies. A deterministic work counter,
    /// like [`ExecutionReport::scheduled`].
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Number of commands the engine's walks have scheduled one by one:
    /// the sum of their [`ExecutionReport::scheduled`] counts, a walk of
    /// several lanes counting each command once, and a walk that ends
    /// when its lanes settle apart counting what it scheduled before. A
    /// deterministic work counter, like [`walks`](Self::walks).
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Executes `program`, every unit free at time zero.
    ///
    /// # Panics
    ///
    /// Panics if a command references an out-of-range unit or a dependency
    /// on a later command (programs must be emitted in topological order).
    pub fn run(&mut self, program: &Program) -> ExecutionReport {
        let walk = self.walk(&Lanes::new(program), None, Kernel::Baseline);
        ExecutionReport {
            walk: walk.expect("one lane settles alike"),
        }
    }

    /// Executes `program` and records one [`Span`] per command, copies of
    /// repeated and mirrored blocks included, for timeline inspection /
    /// Chrome-trace export.
    pub fn run_traced(&mut self, program: &Program) -> (ExecutionReport, Vec<Span>) {
        let mut spans = Vec::with_capacity(program.len());
        let walk = self.walk(&Lanes::new(program), Some(&mut spans), Kernel::Baseline);
        let walk = walk.expect("one lane settles alike");
        (ExecutionReport { walk }, spans)
    }

    /// Executes every lane of `lanes`. Lane `l` of the schedule reads as
    /// the report [`run`](Self::run) gives on the program with lane `l`'s
    /// durations, [`scheduled`](ExecutionReport::scheduled) included.
    ///
    /// The lanes share one walk of the program, which times every lane of
    /// a command at once, and a repeat's copies are written in closed form
    /// only when every lane settles at the same copy, each lane shifting
    /// by its own δ. If lanes settle a repeat at different copies, each
    /// lane is walked again alone.
    ///
    /// A walk of more than one lane runs on the widest kernel the host
    /// supports (see the [module docs](self#kernels)); every kernel gives
    /// the same schedule.
    ///
    /// # Panics
    ///
    /// Panics where [`run`](Self::run) does.
    pub fn run_lanes<const L: usize>(&mut self, lanes: &Lanes<'_, L>) -> Schedule<L> {
        self.run_lanes_on(lanes, Kernel::widest(L))
    }

    /// [`run_lanes`](Self::run_lanes) on kernel `kernel`.
    fn run_lanes_on<const L: usize>(
        &mut self,
        lanes: &Lanes<'_, L>,
        kernel: Kernel,
    ) -> Schedule<L> {
        let timed = match self.walk(lanes, None, kernel) {
            Some(walk) => Timed::Shared(walk),
            None => Timed::Apart(
                (0..L)
                    .map(|l| {
                        let walk = self.walk(&lanes.lane(l), None, Kernel::Baseline);
                        walk.expect("one lane settles alike")
                    })
                    .collect(),
            ),
        };
        Schedule { timed }
    }

    /// Walks the program of `lanes` once on `kernel`, timing every lane,
    /// and records lane 0's spans if `spans` is given; `None` if the lanes
    /// settle a repeat at different copies.
    fn walk<const L: usize>(
        &mut self,
        lanes: &Lanes<'_, L>,
        spans: Option<&mut Vec<Span>>,
        kernel: Kernel,
    ) -> Option<Walk<L>> {
        debug_assert!(L == 1 || spans.is_none(), "only one lane is traced");
        self.walks += 1;
        let program = lanes.program;
        let mut run = Run {
            program,
            durations: &lanes.durations,
            kernel,
            dispatch: self.dispatch,
            free_at: vec![[Time::ZERO; L]; self.units],
            busy: vec![[Duration::ZERO; L]; self.units],
            finish: Finishes {
                scheduled: Vec::with_capacity(program.records.len()),
                shifted: Vec::with_capacity(2 * program.repeats.len()),
                ..Finishes::default()
            },
            tag_busy: vec![[Duration::ZERO; L]; program.tags],
            levels: Vec::new(),
            units: &[],
            busy_marks: Vec::with_capacity(2 * (self.units + program.tags)),
            spans,
        };
        let records = 0..program.records.len();
        let makespan = run.region(records, 0, &program.repeats);
        self.scheduled += run.finish.scheduled.len() as u64;
        let makespan = makespan.ok()?;
        Some(Walk {
            finish: run.finish,
            makespan,
            tag_busy: run.tag_busy,
            unit_busy: run.busy,
        })
    }
}

/// A machine-code instantiation of the engine's per-command loop
/// ([`Run::schedule`]). Every kernel computes the same integer `max`es
/// and sums, so all give the same schedule; a wider one takes several
/// lanes of a 64-bit time per instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// The build's own target features.
    Baseline,
    /// AVX2: 256-bit integer compares, blends and adds.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    /// The widest kernel the host runs, for a walk of `lanes` lanes. A
    /// one-lane walk has nothing to widen and stays on the baseline.
    fn widest(lanes: usize) -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if lanes > 1 && std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        Kernel::Baseline
    }
}

/// Every lane's schedule from one walk.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Walk<const L: usize> {
    finish: Finishes<L>,
    makespan: [Time; L],
    tag_busy: Vec<[Duration; L]>,
    unit_busy: Vec<[Duration; L]>,
}

impl<const L: usize> Walk<L> {
    /// Busy time lane `lane` attributes to `tag`.
    fn tag_busy(&self, lane: usize, tag: usize) -> Duration {
        column(&self.tag_busy, lane, tag)
    }

    /// Commands scheduled one by one, in every lane.
    fn scheduled(&self) -> usize {
        self.finish.scheduled.len()
    }

    /// Lane `lane` alone.
    fn lane(&self, lane: usize) -> Walk<1> {
        let column = |busy: &[[Duration; L]]| busy.iter().map(|b| [b[lane]]).collect();
        Walk {
            finish: self.finish.lane(lane),
            makespan: [self.makespan[lane]],
            tag_busy: column(&self.tag_busy),
            unit_busy: column(&self.unit_busy),
        }
    }
}

/// Lane `lane` of entry `index` of a busy-time table (zero past its end).
fn column<const L: usize>(busy: &[[Duration; L]], lane: usize, index: usize) -> Duration {
    busy.get(index).map_or(Duration::ZERO, |b| b[lane])
}

/// Lanes of one walk settled a repeat at different copies.
struct Disagree;

/// The schedule of `L` lanes under construction by one walk of a
/// program.
struct Run<'a, const L: usize> {
    program: &'a Program,
    /// Every stored command's duration in each lane, by record.
    durations: &'a [[Duration; L]],
    /// The instantiation of [`schedule`](Self::schedule) to run.
    kernel: Kernel,
    dispatch: Duration,
    /// Earliest time each unit may start new work.
    free_at: Vec<[Time; L]>,
    /// Busy time accumulated by each unit.
    busy: Vec<[Duration; L]>,
    finish: Finishes<L>,
    tag_busy: Vec<[Duration; L]>,
    /// How the copies being scheduled one by one map dependencies,
    /// outermost first.
    levels: Vec<Level>,
    /// The unit map of the mirrored copy being scheduled one by one; empty
    /// outside one.
    units: &'a [UnitId],
    /// For each repeat being timed, outermost first, the unit and tag
    /// busy times before the block or copy it timed last.
    busy_marks: Vec<[Duration; L]>,
    /// Lane 0's spans, if traced.
    spans: Option<&'a mut Vec<Span>>,
}

impl<'a, const L: usize> Run<'a, L> {
    /// Times records `records`, the first of which is command `first`,
    /// and every copy of the repeats `repeats` among them; returns the
    /// latest finish.
    fn region(
        &mut self,
        records: Range<usize>,
        first: CmdId,
        repeats: &'a [Repeat],
    ) -> Result<[Time; L], Disagree> {
        let (mut record, mut id, mut latest) = (records.start, first, [Time::ZERO; L]);
        for r in repeats {
            let before = self.schedule(record..r.block.start, id);
            id += r.block.start - record;
            let mark = match &r.side {
                None => self.mark_busy(),
                Some(side) => self.mark_side(side),
            };
            let alike = r.side.as_ref().map(|side| self.inputs_alike(r, side));
            let block = self.region(r.block.clone(), id, &r.inner)?;
            let copies = match alike {
                None => self.repeat(r, id, block, mark)?,
                Some(alike) => self.mirror(r, id, block, mark, alike)?,
            };
            latest = later(later(latest, before), copies);
            self.busy_marks.truncate(mark);
            id += (1 + r.times) * r.period;
            record = r.block.end;
        }
        Ok(later(latest, self.schedule(record..records.end, id)))
    }

    /// Schedules records `records`, the first of which is command
    /// `first`, one by one, each dependency mapped through the levels and
    /// each unit through the unit map; returns the latest finish. Runs the
    /// walk's kernel, or the baseline inside a mirrored copy.
    fn schedule(&mut self, records: Range<usize>, first: CmdId) -> [Time; L] {
        if records.is_empty() {
            return [Time::ZERO; L];
        }
        if !self.units.is_empty() {
            return self.schedule_body::<true>(records, first);
        }
        match self.kernel {
            Kernel::Baseline => self.schedule_body::<false>(records, first),
            // SAFETY: a walk runs the AVX2 kernel only where
            // `Kernel::widest` detected AVX2 on the host.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { self.schedule_avx2(records, first) },
        }
    }

    /// [`schedule`](Self::schedule) compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn schedule_avx2(&mut self, records: Range<usize>, first: CmdId) -> [Time; L] {
        self.schedule_body::<false>(records, first)
    }

    /// The body of [`schedule`](Self::schedule), inlined with every
    /// helper it calls into each kernel; `MAPPED` maps every unit through
    /// the unit map.
    #[inline(always)]
    fn schedule_body<const MAPPED: bool>(
        &mut self,
        records: Range<usize>,
        first: CmdId,
    ) -> [Time; L] {
        let mut latest = [Time::ZERO; L];
        let durations = &self.durations[records.clone()];
        let units = self.units;
        let unit = |u: UnitId| if MAPPED { units[u] } else { u };
        for (cmd, duration) in self.program.commands_in(records, first).zip(durations) {
            let id = cmd.id;
            let cmd = CommandView {
                unit: unit(cmd.unit),
                ..cmd
            };
            let mut start = [Time::ZERO; L];
            for &d in cmd.deps {
                let d = resolve(&self.levels, d);
                assert!(d < id, "dependency {d} of command {id} is not earlier");
                raise(&mut start, &self.finish.get(d));
            }
            for t in &mut start {
                *t += self.dispatch;
            }
            // Start when the unit and every shared resource are free.
            raise(&mut start, &self.free_at[cmd.unit]);
            for &s in cmd.shared {
                let s = unit(s);
                assert!(s != cmd.unit, "shared resource equals unit");
                raise(&mut start, &self.free_at[s]);
            }
            let done = after(start, *duration);
            self.free_at[cmd.unit] = done;
            add(&mut self.busy[cmd.unit], duration);
            // A resource held twice stays held for twice the duration.
            for &s in cmd.shared {
                let s = unit(s);
                let free = &mut self.free_at[s];
                raise(free, &start);
                advance(free, duration);
                add(&mut self.busy[s], duration);
            }
            self.finish.push(done);
            raise(&mut latest, &done);
            add(&mut self.tag_busy[cmd.tag], duration);
            if let Some(spans) = self.spans.as_deref_mut() {
                spans.push(Span {
                    cmd: id,
                    unit: cmd.unit,
                    tag: cmd.tag,
                    start: start[0],
                    end: done[0],
                });
            }
        }
        latest
    }

    /// Times the copies of `repeat`, whose block has just been timed from
    /// id `start` with latest finish `block`, after busy times marked at
    /// `mark`; returns the latest finish of the copies. Copies are
    /// scheduled one by one until one finishes every command one shift
    /// δ > 0 after the block or copy before it (the stored block against
    /// the commands before it counts too, if they are emitted alike); the
    /// rest are written in closed form. Lanes that settle at different
    /// copies end the walk.
    fn repeat(
        &mut self,
        repeat: &'a Repeat,
        start: CmdId,
        block: [Time; L],
        mark: usize,
    ) -> Result<[Time; L], Disagree> {
        let records = &repeat.block;
        let follows = match repeat.follows {
            true => {
                let prev = &self.durations[records.start - records.len()..records.start];
                (prev.iter())
                    .zip(&self.durations[records.clone()])
                    .fold([true; L], |same, (p, r)| {
                        std::array::from_fn(|l| same[l] & (p[l] == r[l]))
                    })
            }
            false => [false; L],
        };
        let mut delta = self.settled(repeat, 0, follows)?;
        let (mut copies, mut last, mut latest) = (0, block, block);
        while delta.is_none() && copies < repeat.times {
            copies += 1;
            let shift = copies * repeat.period;
            self.remark_busy(mark);
            let depth = self.levels.len();
            repeat.push_levels(copies, &mut self.levels);
            last = self.region(records.clone(), start + shift, &repeat.inner)?;
            self.levels.truncate(depth);
            latest = later(latest, last);
            delta = self.settled(repeat, copies, [true; L])?;
        }
        Ok(match delta {
            Some(delta) => {
                let to_last = self.extrapolate(repeat, repeat.times - copies, delta, mark);
                later(latest, after(last, to_last))
            }
            None => latest,
        })
    }

    /// Every lane's shift δ, if the copy of `repeat` timed last, `copies`
    /// copies in, repeats the one before in every lane whose `follows` is
    /// set and copies remain (see [`Finishes::settled`]); `None` if it
    /// does in no lane.
    fn settled(
        &self,
        repeat: &Repeat,
        copies: usize,
        follows: [bool; L],
    ) -> Result<Option<[Duration; L]>, Disagree> {
        if !repeat.local || copies == repeat.times {
            return Ok(None);
        }
        let mut lanes = self.finish.settled(repeat.period);
        for (delta, follows) in lanes.iter_mut().zip(follows) {
            *delta = delta.filter(|_| follows);
        }
        match lanes.iter().filter(|delta| delta.is_some()).count() {
            0 => Ok(None),
            n if n == L => Ok(Some(lanes.map(Option::unwrap_or_default))),
            _ => Err(Disagree),
        }
    }

    /// In each lane, whether every copy of the mirrored `repeat`, with
    /// side `side`, has copy 0's inputs, before copy 0 is timed: each unit
    /// of the copy free when the matching unit of copy 0 is, and each
    /// linked dependency finished when copy 0's is.
    fn inputs_alike(&self, repeat: &Repeat, side: &Side) -> [bool; L] {
        debug_assert!(self.units.is_empty(), "mirrored blocks do not nest");
        let mut alike = [true; L];
        let mut same = |a: &[Time; L], b: &[Time; L]| {
            for ((alike, a), b) in alike.iter_mut().zip(a).zip(b) {
                *alike &= a == b;
            }
        };
        let maps = &self.program.maps[side.maps][..repeat.times];
        for &u in &side.own {
            for map in maps {
                same(&self.free_at[u], &self.free_at[map[u]]);
            }
        }
        for &(d, period) in &side.inputs {
            // Copies of a block written in closed form finish with its
            // copy 0, and need no reading.
            let first = resolve(&self.levels, d);
            let copies = 1..=repeat.times;
            let copy = |k: usize| resolve(&self.levels, d + k * period);
            if copies.clone().all(|k| copy(k) == first + k * period)
                && self.finish.mirrored(first + period, period, repeat.times)
            {
                continue;
            }
            let finish = self.finish.get(first);
            for k in copies {
                same(&finish, &self.finish.get(copy(k)));
            }
        }
        alike
    }

    /// Times the copies of the mirrored `repeat`, whose block (copy 0) has
    /// just been timed from id `start` with latest finish `block`, after
    /// busy times marked at `mark`; returns the latest finish of the
    /// copies. Where every copy has copy 0's inputs (`alike`), copy 0's
    /// schedule on the copy's own units is the copy's, and the copies are
    /// written in closed form; where none has, they are scheduled one by
    /// one. Lanes that differ end the walk.
    fn mirror(
        &mut self,
        repeat: &'a Repeat,
        start: CmdId,
        block: [Time; L],
        mark: usize,
        alike: [bool; L],
    ) -> Result<[Time; L], Disagree> {
        if alike.iter().all(|&a| a) {
            self.extrapolate(repeat, repeat.times, [Duration::ZERO; L], mark);
            return Ok(block);
        }
        if alike.iter().any(|&a| a) {
            return Err(Disagree);
        }
        let mut latest = block;
        for k in 1..=repeat.times {
            self.units = self.program.copy_units(repeat, k).expect("a mirrored copy");
            let depth = self.levels.len();
            repeat.push_levels(k, &mut self.levels);
            let copy = self.region(
                repeat.block.clone(),
                start + k * repeat.period,
                &repeat.inner,
            )?;
            latest = later(latest, copy);
            self.levels.truncate(depth);
        }
        self.units = &[];
        Ok(latest)
    }

    /// Writes the last `copies` copies of `repeat` in closed form, each
    /// the copy timed last shifted by one more of its lane's `delta`
    /// (zero for a mirrored block, whose copies are copy 0 on units of
    /// their own), and returns the shift of the last: finishes and spans;
    /// busy time, each copy adding to each of its units what the copy
    /// timed last did since the busy times marked at `mark`; and the free
    /// time of every unit of the copies, which its last user in the last
    /// copy sets.
    fn extrapolate(
        &mut self,
        repeat: &Repeat,
        copies: usize,
        delta: [Duration; L],
        mark: usize,
    ) -> [Duration; L] {
        let period = repeat.period;
        let program = self.program;
        let map = |k: usize, u: UnitId| program.copy_units(repeat, k).map_or(u, |m| m[u]);
        if let Some(spans) = self.spans.as_deref_mut() {
            let last = spans.len() - period..spans.len();
            for k in 1..=copies {
                let shift = delta[0] * k as u64;
                for i in last.clone() {
                    let s = spans[i];
                    spans.push(Span {
                        cmd: s.cmd + k * period,
                        unit: map(k, s.unit),
                        start: s.start + shift,
                        end: s.end + shift,
                        ..s
                    });
                }
            }
        }
        let times = copies as u64;
        let to_last = delta.map(|d| d * times);
        let marks = &self.busy_marks[mark..];
        match &repeat.side {
            None => {
                let (units, tags) = marks.split_at(self.busy.len());
                for &u in &repeat.units {
                    let u = self.units.get(u).copied().unwrap_or(u);
                    repeat_busy(&mut self.busy[u], &units[u], times);
                    self.free_at[u] = after(self.free_at[u], to_last);
                }
                for (busy, before) in self.tag_busy.iter_mut().zip(tags) {
                    repeat_busy(busy, before, times);
                }
            }
            Some(side) => {
                debug_assert!(delta == [Duration::ZERO; L], "mirrored copies shift");
                let maps = &program.maps[side.maps][..copies];
                let (units, tags) = marks.split_at(side.own.len());
                for (busy, before) in self.tag_busy[side.tags.clone()].iter_mut().zip(tags) {
                    repeat_busy(busy, before, times);
                }
                for (&u, before) in side.own.iter().zip(units) {
                    let mut added = self.busy[u];
                    for (added, &before) in added.iter_mut().zip(before) {
                        *added -= before;
                    }
                    for map in maps {
                        add(&mut self.busy[map[u]], &added);
                        self.free_at[map[u]] = self.free_at[u];
                    }
                }
            }
        }
        self.finish.repeat_last(period, copies, delta);
        to_last
    }

    /// Marks the unit and tag busy times; returns the mark.
    fn mark_busy(&mut self) -> usize {
        let mark = self.busy_marks.len();
        self.busy_marks.extend_from_slice(&self.busy);
        self.busy_marks.extend_from_slice(&self.tag_busy);
        mark
    }

    /// Marks the busy times of the units and tags of a mirrored block's
    /// own commands, `side`'s; returns the mark.
    fn mark_side(&mut self, side: &Side) -> usize {
        let mark = self.busy_marks.len();
        let units = side.own.iter().map(|&u| self.busy[u]);
        self.busy_marks.extend(units);
        self.busy_marks
            .extend_from_slice(&self.tag_busy[side.tags.clone()]);
        mark
    }

    /// Replaces mark `mark` with the unit and tag busy times.
    fn remark_busy(&mut self, mark: usize) {
        self.busy_marks.truncate(mark);
        self.mark_busy();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NS: fn(u64) -> Duration = Duration::from_ns;

    #[test]
    fn independent_units_overlap() {
        let mut eng = Engine::new(2, Duration::ZERO);
        let mut p = Program::new();
        p.push(Command::new(0, NS(100), 0));
        p.push(Command::new(1, NS(100), 0));
        let r = eng.run(&p);
        assert_eq!(r.makespan(), Time::from_ns(100));
    }

    #[test]
    fn same_unit_serializes() {
        let mut eng = Engine::new(1, Duration::ZERO);
        let mut p = Program::new();
        p.push(Command::new(0, NS(100), 0));
        p.push(Command::new(0, NS(100), 0));
        let r = eng.run(&p);
        assert_eq!(r.makespan(), Time::from_ns(200));
    }

    #[test]
    fn dependencies_chain() {
        let mut eng = Engine::new(2, Duration::ZERO);
        let mut p = Program::new();
        let a = p.push(Command::new(0, NS(100), 0));
        let b = p.push(Command::new(1, NS(50), 0).after(a));
        let r = eng.run(&p);
        assert_eq!(r.finish(b), Time::from_ns(150));
    }

    #[test]
    fn shared_resource_excludes() {
        // Unit 0 and unit 1 both hold resource 2: they cannot overlap —
        // the unified-memory PIM/DMA conflict in miniature.
        let mut eng = Engine::new(3, Duration::ZERO);
        let mut p = Program::new();
        p.push(Command::new(0, NS(100), 0).holding(2));
        p.push(Command::new(1, NS(100), 0).holding(2));
        let r = eng.run(&p);
        assert_eq!(r.makespan(), Time::from_ns(200));
        // Without the shared resource they overlap.
        let mut p2 = Program::new();
        p2.push(Command::new(0, NS(100), 0));
        p2.push(Command::new(1, NS(100), 0));
        assert_eq!(eng.run(&p2).makespan(), Time::from_ns(100));
    }

    #[test]
    fn dispatch_overhead_charged_per_command() {
        let mut eng = Engine::new(1, NS(5));
        let mut p = Program::new();
        let a = p.push(Command::new(0, NS(10), 0));
        let b = p.push(Command::new(0, NS(10), 0).after(a));
        let r = eng.run(&p);
        assert_eq!(r.finish(b), Time::from_ns(30));
    }

    #[test]
    fn pipelined_load_compute() {
        // Classic double buffering: loads on unit 1, GEMMs on unit 0.
        let mut eng = Engine::new(2, Duration::ZERO);
        let mut p = Program::new();
        let mut prev_gemm: Option<CmdId> = None;
        let mut last = 0;
        for _ in 0..4 {
            let load = p.push(Command::new(1, NS(100), 0));
            let mut gemm = Command::new(0, NS(60), 1).after(load);
            if let Some(g) = prev_gemm {
                gemm = gemm.after(g);
            }
            last = p.push(gemm);
            prev_gemm = Some(last);
        }
        let r = eng.run(&p);
        // Loads dominate: 4×100 + final gemm 60.
        assert_eq!(r.finish(last), Time::from_ns(460));
        assert_eq!(r.tag_busy(1), NS(240));
        assert_eq!(r.unit_busy(1), NS(400));
    }

    #[test]
    fn traced_run_matches_untraced() {
        let mut eng = Engine::new(2, NS(1));
        let mut p = Program::new();
        let a = p.push(Command::new(0, NS(10), 0));
        let b = p.push(Command::new(1, NS(20), 1).after(a));
        let plain = eng.run(&p);
        let (traced, spans) = eng.run_traced(&p);
        assert_eq!(plain.makespan(), traced.makespan());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].cmd, a);
        assert_eq!(spans[1].end, traced.finish(b));
        assert!(spans[1].start >= spans[0].end);
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let spans = [
            Span {
                cmd: 0,
                unit: 0,
                tag: 0,
                start: Time::ZERO,
                end: Time::from_ns(10),
            },
            Span {
                cmd: 1,
                unit: 5,
                tag: 9,
                start: Time::from_ns(10),
                end: Time::from_ns(30),
            },
        ];
        let json = chrome_trace(&spans, &["mu"], &["gemm"]);
        assert!(json.starts_with('[') && json.ends_with(']'));
        // Unknown indices fall back to numbered names.
        assert!(json.contains("unit5") && json.contains("tag9"));
        // Two events, one trailing comma.
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
    }

    #[test]
    fn chrome_trace_escapes_names() {
        let spans = [Span {
            cmd: 0,
            unit: 0,
            tag: 0,
            start: Time::ZERO,
            end: Time::from_ns(10),
        }];
        let json = chrome_trace(&spans, &["dma \"in\"\\0"], &["gemm\n\u{1}"]);
        assert!(json.contains(r#""tid": "dma \"in\"\\0""#), "{json}");
        assert!(json.contains(r#""name": "gemm\n\u0001""#), "{json}");
    }

    /// A small program exercising every record field: several units,
    /// tags, multi-dependency and multi-resource commands, and empty
    /// dependency / resource lists.
    fn sample_commands() -> Vec<Command> {
        vec![
            Command::new(1, NS(100), 0).holding(3).holding(4),
            Command::new(0, NS(40), 2),
            Command::new(0, NS(50), 1).after(0).after(1),
            Command::new(2, NS(30), 0).after(0).holding(3),
            Command::new(1, NS(20), 3)
                .after(2)
                .after(3)
                .holding(3)
                .holding(4),
        ]
    }

    #[test]
    fn pushed_commands_read_back_unchanged() {
        let cmds = sample_commands();
        let mut p = Program::new();
        for cmd in &cmds {
            p.push(cmd.clone());
        }
        assert_eq!(p.commands().count(), cmds.len());
        for (view, cmd) in p.commands().zip(&cmds) {
            assert_eq!(view.unit, cmd.unit);
            assert_eq!(view.duration, cmd.duration);
            assert_eq!(view.tag, cmd.tag);
            assert_eq!(view.deps, cmd.deps.as_slice());
            assert_eq!(view.shared, cmd.shared.as_slice());
        }
    }

    #[test]
    fn emit_and_push_programs_execute_identically() {
        let mut pushed = Program::new();
        let mut emitted = Program::new();
        for cmd in sample_commands() {
            let (deps, shared) = (cmd.deps.iter().copied(), cmd.shared.iter().copied());
            emitted.emit(cmd.unit, cmd.duration, cmd.tag, deps, shared);
            pushed.push(cmd);
        }
        let mut eng = Engine::new(5, NS(1));
        let a = eng.run_traced(&pushed);
        let b = eng.run_traced(&emitted);
        assert_eq!(a, b);
        assert_eq!(a.0.makespan(), Time::from_ns(173));
    }

    /// `blocks` blocks of three commands, each depending on the block
    /// before and on the block two before; block `slow`'s last command
    /// runs longer. Blocks `slow + 1` and later are copies of block
    /// `slow + 1`.
    fn far_dependency_program(blocks: usize, slow: usize) -> Program {
        let mut p = Program::new();
        let mut starts: Vec<CmdId> = Vec::new();
        for b in 0..=slow + 1 {
            let start = p.next_id();
            let prev = starts.last().copied();
            let far = b.checked_sub(2).map(|f| starts[f]);
            let last = NS(if b == slow { 210 } else { 203 });
            p.emit(
                0,
                NS(72),
                0,
                prev.into_iter().flat_map(|q| [q + 2, q]),
                None,
            );
            p.emit(
                1,
                NS(104),
                1,
                prev.map(|q| q + 1).into_iter().chain(far),
                None,
            );
            let deps = [start + 1]
                .into_iter()
                .chain(prev.map(|q| q + 1))
                .chain(far);
            p.emit(2, last, 0, deps, Some(3));
            starts.push(start);
        }
        let block = starts[slow + 1]..p.next_id();
        p.repeat_block(block, 0, blocks - slow - 2);
        p
    }

    #[test]
    fn dependency_two_blocks_back_is_not_extrapolated() {
        // After the slow block, consecutive copies settle into one shift
        // while their dependencies still reach the slow block's
        // aftermath: extrapolating from that shift would be wrong, so a
        // block with such dependencies is scheduled copy by copy.
        let mut eng = Engine::new(4, Duration::ZERO);
        for slow in 0..10 {
            let program = far_dependency_program(12, slow);
            let compact = eng.run_traced(&program);
            assert_eq!(
                compact,
                eng.run_traced(&program.expanded()),
                "slow block {slow}"
            );
            if slow > 0 {
                assert_eq!(compact.0.scheduled(), program.len(), "slow block {slow}");
            }
        }
    }

    #[test]
    fn moving_a_dependency_or_hold_to_the_next_command_breaks_repetition() {
        // Block b: command 0 (unit 0) waits for block b - 1's command 1
        // (unit 1) and holds unit 2. In block 5 the dependency, or the
        // hold, moves to command 1, leaving the block's dependency and
        // hold lists as they were; blocks 7-9 are copies of block 6.
        for moved in ["dependency", "hold"] {
            let mut p = Program::new();
            for b in 0..7usize {
                let dep = (b > 0).then(|| p.next_id() - 1);
                let (dep0, dep1) = match (b, moved) {
                    (5, "dependency") => (None, dep),
                    _ => (dep, None),
                };
                let (hold0, hold1) = if (b, moved) == (5, "hold") {
                    (None, Some(2))
                } else {
                    (Some(2), None)
                };
                p.emit(0, NS(10), 0, dep0, hold0);
                p.emit(1, NS(50), 1, dep1, hold1);
            }
            assert!(!p.repeats_previous(12..14, 0), "{moved} moved");
            p.repeat_block(12..14, 0, 3);
            let mut eng = Engine::new(3, Duration::ZERO);
            let compact = eng.run_traced(&p);
            assert_eq!(compact, eng.run_traced(&p.expanded()), "{moved} moved");
            assert!(compact.0.scheduled() < 20, "{moved} moved");
        }
    }

    #[test]
    fn copies_are_read_and_re_timed_through_their_block() {
        let mut p = Program::new();
        let a = p.emit(0, NS(5), 0, [], None);
        let b = p.emit(1, NS(7), 1, [a], Some(2));
        p.repeat_block(b..b + 1, 0, 2);
        let c = p.emit(0, NS(3), 0, [b + 2], None);
        assert_eq!((p.len(), c), (5, 4));
        let ids: Vec<CmdId> = p.commands().map(|cmd| cmd.id).collect();
        assert_eq!(ids, [0, 1, 4]);
        let full = p.expanded();
        assert_eq!(full.len(), 5);
        let deps: Vec<&[CmdId]> = full.commands().map(|cmd| cmd.deps).collect();
        assert_eq!(deps, [&[][..], &[0], &[1], &[2], &[3]]);
        // Re-timing a copy re-times its block and every copy.
        p.set_duration(3, NS(11));
        let durations: Vec<Duration> = p.expanded().commands().map(|cmd| cmd.duration).collect();
        assert_eq!(durations, [NS(5), NS(11), NS(11), NS(11), NS(3)]);
        let mut eng = Engine::new(3, Duration::ZERO);
        assert_eq!(eng.run(&p), eng.run(&p.expanded()));
        assert_eq!(eng.run(&p).finish(c), Time::from_ns(41));
    }

    #[test]
    fn re_timing_a_stored_head_re_times_every_copy() {
        // Five blocks of a layer norm, four heads that read it and a sync
        // that reads the last head. In each stored block heads 2-3 are
        // copies of head 1, and blocks 3-4 are copies of block 2.
        let mut p = Program::new();
        let mut sync = None;
        let mut block = 0..0;
        for _ in 0..3 {
            let ln = p.emit(0, NS(20), 0, sync, None);
            for _ in 0..2 {
                let load = p.emit(1, NS(30), 1, [], Some(3));
                p.emit(2, NS(15), 2, [ln, load], None);
            }
            let head = p.next_id() - 2..p.next_id();
            assert!(p.repeats_previous(head.clone(), ln + 1));
            p.repeat_block(head.clone(), ln + 1, 2);
            sync = Some(p.emit(0, NS(5), 3, [head.end + 3], None));
            block = ln..p.next_id();
        }
        assert!(p.repeats_previous(block.clone(), 0));
        p.repeat_block(block, 0, 2);
        assert_eq!((p.len(), p.commands().count()), (50, 3 * 6));
        // The load of head 3 in block 4 is a copy of the load of head 1 in
        // block 2, and so is every head's load but head 0's from block 2
        // on.
        p.set_duration(4 * 10 + 1 + 3 * 2, NS(40));
        let loads: Vec<Duration> = p
            .expanded()
            .commands()
            .filter(|cmd| cmd.unit == 1)
            .map(|cmd| cmd.duration)
            .collect();
        let head_loads = |load| [NS(30), load, load, load];
        let expected = [[NS(30); 4], [NS(30); 4], head_loads(NS(40))];
        assert_eq!(loads[..12], expected.concat());
        assert_eq!(loads[12..], [head_loads(NS(40)); 2].concat());
        let mut eng = Engine::new(4, Duration::ZERO);
        let (compact, full) = (eng.run_traced(&p), eng.run_traced(&p.expanded()));
        assert_eq!(compact, full);
        assert!(compact.0.scheduled() < p.len());
    }

    #[test]
    fn a_repeat_that_starts_a_block_does_not_follow_the_copy_before() {
        // A load, then blocks of three loads (one stored, two copies) and
        // a compute on another unit. Before the stored block the load
        // that precedes the first load is emitted like it; before a copy
        // of the block it is the compute, which finishes one unrelated
        // shift earlier and must not be taken for a copy.
        let mut p = Program::new();
        p.emit(0, NS(10), 0, [], None);
        let block = p.next_id();
        p.emit(0, NS(10), 0, [], None);
        p.repeat_block(block..block + 1, block, 2);
        p.emit(1, NS(10), 1, [], None);
        p.repeat_block(block..p.next_id(), 0, 3);
        let mut eng = Engine::new(2, Duration::ZERO);
        let compact = eng.run_traced(&p);
        assert_eq!(compact, eng.run_traced(&p.expanded()));
        assert_eq!(compact.0.makespan(), Time::from_ns(130));
    }

    #[test]
    fn duplicate_hold_extends_occupation() {
        // A command that holds a resource twice holds it for twice its
        // duration, so the next holder starts only then.
        let mut eng = Engine::new(3, Duration::ZERO);
        let mut p = Program::new();
        p.emit(0, NS(10), 0, [], [2, 2]);
        let next = p.emit(1, NS(5), 0, [], Some(2));
        let report = eng.run(&p);
        assert_eq!(report.finish(next), Time::from_ns(25));
        assert_eq!(report.unit_busy(2), NS(25));
        // Copies written in closed form keep it.
        for _ in 0..2 {
            p.emit(0, NS(10), 0, [], [2, 2]);
            p.emit(1, NS(5), 0, [], Some(2));
        }
        p.repeat_block(4..6, 0, 5);
        let compact = eng.run(&p);
        assert_eq!(compact, eng.run(&p.expanded()));
        assert!(compact.scheduled() < p.len());
        assert_eq!(compact.makespan(), Time::from_ns(8 * 25));
    }

    /// A random program shaped like a compiled stage: a prologue, three
    /// stored blocks that each end in heads (two stored, the rest copies
    /// of the second, every head reading its block's first command), the
    /// last block repeated, and an epilogue reading the last copy.
    fn random_block_program(rng: &mut impl FnMut(u64) -> u64) -> Program {
        const UNITS: u64 = 5;
        let mut p = Program::new();
        let emit = |p: &mut Program, deps: Vec<CmdId>, rng: &mut dyn FnMut(u64) -> u64| {
            let unit = rng(UNITS) as usize;
            let held = rng(UNITS) as usize;
            let shared = (held != unit && rng(2) == 0).then_some(held);
            p.emit(unit, NS(1 + rng(200)), rng(4) as usize, deps, shared)
        };
        for i in 0..rng(4) as usize {
            let deps = (0..i).filter(|_| rng(3) == 0).collect();
            emit(&mut p, deps, rng);
        }
        let (block, head) = (1 + rng(5) as usize, 1 + rng(3) as usize);
        let (heads, copies) = (2 + rng(5) as usize, rng(12) as usize);
        let mut prev: Option<(CmdId, usize)> = None;
        for _ in 0..3 {
            let start = p.next_id();
            for i in 0..block {
                let mut deps: Vec<CmdId> = (start..start + i).filter(|_| rng(2) == 0).collect();
                if let Some((ps, period)) = prev {
                    deps.push(ps + rng(period as u64) as usize);
                }
                emit(&mut p, deps, rng);
            }
            let anchor = p.next_id();
            for h in 0..2 {
                let head_start = p.next_id();
                for i in 0..head {
                    let mut deps: Vec<CmdId> = (head_start..head_start + i)
                        .filter(|_| rng(2) == 0)
                        .collect();
                    if rng(2) == 0 {
                        deps.push(start);
                    }
                    if h > 0 && rng(4) == 0 {
                        deps.push(head_start - head + i);
                    }
                    emit(&mut p, deps, rng);
                }
            }
            let last = anchor + head;
            p.repeat_block(last..last + head, anchor, heads - 2);
            prev = Some((start, p.next_id() - start));
        }
        let (start, period) = prev.expect("three blocks");
        p.repeat_block(start..start + period, 0, copies);
        let last = p.next_id() - 1;
        emit(&mut p, vec![last], rng);
        p
    }

    /// A random program of three stored blocks, the last repeated, each
    /// two phases run side by side by two copies on units {0, 1} and
    /// {2, 3} (σ swaps them), then a sync on unit 4 reading both copies;
    /// a copy reads its own copy of the phase before, and the prologue
    /// may busy a unit of either copy.
    fn random_mirror_program(rng: &mut impl FnMut(u64) -> u64) -> Program {
        let sigma = [2, 3, 0, 1, 4];
        let mut p = Program::new();
        for _ in 0..rng(3) {
            p.emit(rng(5) as usize, NS(1 + rng(200)), 0, [], None);
        }
        let (len, copies) = (1 + rng(4) as usize, rng(8) as usize);
        let shape: Vec<(u64, u64, bool)> = (0..2 * len)
            .map(|_| (rng(2), 1 + rng(200), rng(3) == 0))
            .collect();
        let (mut prev, mut block) = (None::<CmdId>, 0..0);
        for _ in 0..3 {
            let start = p.next_id();
            for phase in shape.chunks(len) {
                let first = p.next_id();
                for copy in 0..2 {
                    let base = 2 * copy;
                    for (i, &(unit, ns, hold)) in phase.iter().enumerate() {
                        let own = (i > 0).then(|| p.next_id() - 1);
                        let read = prev.filter(|_| i == 0);
                        let held = hold.then_some(base + 1 - unit as usize);
                        p.emit(
                            base + unit as usize,
                            NS(ns),
                            i,
                            own.into_iter().chain(read),
                            held,
                        );
                    }
                }
                assert!(p.mirror_block(first..first + len, &sigma, 2));
                let sync = p.emit(4, NS(3), 7, [first + len - 1, first + 2 * len - 1], None);
                prev = Some(sync);
            }
            block = start..p.next_id();
        }
        p.repeat_block(block, 0, copies);
        p
    }

    #[test]
    fn every_kernel_schedules_random_lanes_alike() {
        // Kernels compute the same integer maxes and sums, so every lane's
        // report and work count is the baseline's, whether the lanes share
        // a walk (with copies in closed form or not) or settle apart.
        let kernels = [Kernel::Baseline, Kernel::widest(8)];
        let mut state = 0x5EED_u64;
        let mut rng = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let (mut closed, mut shared, mut apart) = (0, 0, 0);
        for i in 0..384 {
            let program = match i % 3 {
                2 => random_mirror_program(&mut rng),
                _ => random_block_program(&mut rng),
            };
            assert_eq!(
                Engine::new(5, NS(1)).run(&program),
                Engine::new(5, NS(1)).run(&program.expanded())
            );
            let mut lanes = Lanes::<8>::new(&program);
            let stored: Vec<(CmdId, Duration)> =
                program.commands().map(|c| (c.id, c.duration)).collect();
            for (id, d) in stored {
                let random = NS(1 + rng(200));
                let alike = rng(4) != 0;
                let lane = |l: usize| match l {
                    0 => d,
                    1 => d * 2,
                    _ if alike => d * (l as u64 + 1),
                    _ => random,
                };
                lanes.set_durations(id, &[std::array::from_fn(lane)]);
            }
            let dispatch = NS(rng(3));
            let runs = kernels.map(|kernel| {
                let mut engine = Engine::new(5, dispatch);
                let schedule = engine.run_lanes_on(&lanes, kernel);
                (engine.walks(), schedule)
            });
            let (walks, baseline) = &runs[0];
            match *walks {
                1 if baseline.scheduled(0) < program.len() => closed += 1,
                1 => shared += 1,
                _ => apart += 1,
            }
            for (_, schedule) in &runs[1..] {
                for lane in 0..8 {
                    let (report, expected) = (schedule.report(lane), baseline.report(lane));
                    assert_eq!(report, expected, "lane {lane}");
                    assert_eq!(report.scheduled(), expected.scheduled(), "lane {lane}");
                    assert_eq!(schedule.scheduled(lane), baseline.scheduled(lane));
                }
            }
        }
        assert!(
            closed > 0 && shared > 0 && apart > 0,
            "{closed} closed-form, {shared} other shared, {apart} apart"
        );
    }

    #[test]
    #[should_panic(expected = "is not the last commands emitted")]
    fn repeating_a_block_that_is_not_last_rejected() {
        let mut p = Program::new();
        p.emit(0, NS(1), 0, [], None);
        p.emit(0, NS(1), 0, [], None);
        p.repeat_block(0..1, 0, 2);
    }

    #[test]
    #[should_panic(expected = "shared resource equals unit")]
    fn shared_resource_on_own_unit_rejected() {
        let mut eng = Engine::new(2, Duration::ZERO);
        let mut p = Program::new();
        p.emit(0, NS(1), 0, [], 0..1);
        let _ = eng.run(&p);
    }

    #[test]
    #[should_panic(expected = "not earlier")]
    fn forward_dependency_rejected() {
        let mut eng = Engine::new(1, Duration::ZERO);
        let mut p = Program::new();
        p.push(Command::new(0, NS(1), 0).after(5));
        let _ = eng.run(&p);
    }
}
