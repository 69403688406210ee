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
/// once ([`repeat_block`](Self::repeat_block)); its copies have ids but
/// no records. Two programs are equal when every stored command and
/// every repeat is.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    records: Vec<Record>,
    deps: Vec<CmdId>,
    shared: Vec<UnitId>,
    /// Repeated blocks outside any other, in id order; each holds the
    /// repeated blocks inside it.
    repeats: Vec<Repeat>,
    /// Number of commands, copies included.
    len: usize,
    /// One more than the largest tag.
    tags: usize,
}

/// A stored block followed by copies of itself; see
/// [`Program::repeat_block`].
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
    /// copy.
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
    /// The units and held resources of the block's commands, each once.
    units: Vec<UnitId>,
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
    }
}

/// Dependency `d` of a stored command, in the copies `levels` list from
/// the outermost repeat in: each level maps dependencies on commands at
/// or after its anchor a shift later.
fn resolve(levels: &[(CmdId, usize)], d: CmdId) -> CmdId {
    levels.iter().rev().fold(
        d,
        |d, &(anchor, shift)| if d >= anchor { d + shift } else { d },
    )
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
        (self.len, self.tags) = (0, 0);
    }

    /// Frees the capacity beyond the commands stored, for a program kept
    /// long after it is emitted.
    pub fn shrink_to_fit(&mut self) {
        self.records.shrink_to_fit();
        self.deps.shrink_to_fit();
        self.shared.shrink_to_fit();
        self.repeats.shrink_to_fit();
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
        let mut units: Vec<UnitId> = (self.commands_in(records.clone(), 0))
            .flat_map(|cmd| std::iter::once(cmd.unit).chain(cmd.shared.iter().copied()))
            .collect();
        units.sort_unstable();
        units.dedup();
        units.shrink_to_fit();
        let mut inner = self.repeats.split_off(nested);
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
        });
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
    /// command of a repeated block is re-timed in every copy.
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

    /// The program with every copy of a repeated block emitted: the same
    /// commands under the same ids, all stored.
    pub fn expanded(&self) -> Program {
        let mut full = Program::new();
        let mut levels = Vec::new();
        self.expand(&mut full, 0..self.records.len(), &self.repeats, &mut levels);
        full
    }

    /// Emits records `records` into `full` with every copy of the
    /// repeats `repeats` among them, each dependency mapped through
    /// `levels`.
    fn expand(
        &self,
        full: &mut Program,
        records: Range<usize>,
        repeats: &[Repeat],
        levels: &mut Vec<(CmdId, usize)>,
    ) {
        let mut record = records.start;
        for r in repeats {
            full.append(self.commands_in(record..r.block.start, 0), levels);
            for k in 0..=r.times {
                levels.push((r.anchor, k * r.period));
                self.expand(full, r.block.clone(), &r.inner, levels);
                levels.pop();
            }
            record = r.block.end;
        }
        full.append(self.commands_in(record..records.end, 0), levels);
    }

    /// Emits `cmds`, each dependency mapped through `levels`.
    fn append<'p>(
        &mut self,
        cmds: impl Iterator<Item = CommandView<'p>>,
        levels: &[(CmdId, usize)],
    ) {
        for cmd in cmds {
            let deps = cmd.deps.iter().map(|&d| resolve(levels, d));
            self.emit(
                cmd.unit,
                cmd.duration,
                cmd.tag,
                deps,
                cmd.shared.iter().copied(),
            );
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
    finish: Finishes<1>,
    makespan: Time,
    tag_busy: Vec<Duration>,
    unit_busy: Vec<Duration>,
}

impl PartialEq for ExecutionReport {
    fn eq(&self, other: &Self) -> bool {
        let len = self.finish.len;
        len == other.finish.len
            && (0..len).all(|id| self.finish.get(id) == other.finish.get(id))
            && self.makespan == other.makespan
            && self.tag_busy == other.tag_busy
            && self.unit_busy == other.unit_busy
    }
}

impl ExecutionReport {
    /// Completion time of command `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn finish(&self, id: CmdId) -> Time {
        let [finish] = self.finish.get(id);
        finish
    }

    /// Completion time of the whole program.
    pub fn makespan(&self) -> Time {
        self.makespan
    }

    /// Total busy time attributed to `tag` (zero for unseen tags).
    pub fn tag_busy(&self, tag: usize) -> Duration {
        self.tag_busy.get(tag).copied().unwrap_or(Duration::ZERO)
    }

    /// Total busy time of `unit`.
    pub fn unit_busy(&self, unit: UnitId) -> Duration {
        self.unit_busy.get(unit).copied().unwrap_or(Duration::ZERO)
    }

    /// Number of commands the engine scheduled one by one; the rest of
    /// the program's commands were copies of repeated blocks written in
    /// closed form (see the [module docs](self)). A deterministic work
    /// counter: it depends only on the program and the engine, never on
    /// the host.
    pub fn scheduled(&self) -> usize {
        self.finish.scheduled.len()
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
/// let [fast, slow] = engine.run_lanes(&lanes);
/// assert_eq!((fast.makespan().as_ns_f64(), slow.makespan().as_ns_f64()), (150.0, 350.0));
/// p.set_duration(load, Duration::from_ns(300));
/// assert_eq!(slow, engine.run(&p));
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
    /// of a repeated block is re-timed in every copy.
    ///
    /// # Panics
    ///
    /// Panics where [`Program::set_durations`] panics.
    pub fn set_durations(&mut self, first: CmdId, durations: &[[Duration; L]]) {
        let records = self.program.stored_together(first, durations.len());
        self.durations[records].copy_from_slice(durations);
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
    /// Index in `scheduled` of the first command after the run.
    resume: usize,
}

impl<const L: usize> Shifted<L> {
    /// Id of the first command after the run.
    fn end(&self) -> CmdId {
        self.start + self.copies * self.period
    }
}

impl<const L: usize> Finishes<L> {
    /// Times the next command one by one.
    fn push(&mut self, finish: [Time; L]) {
        self.scheduled.push(finish);
        self.len += 1;
    }

    /// Finish of command `id`.
    fn get(&self, id: CmdId) -> [Time; L] {
        if id >= self.tail {
            return self.scheduled[id - self.unscheduled];
        }
        // A copy in a run finishes a whole number of shifts after the
        // matching command of the copy before the run, which may itself
        // be in a run (a repeat inside a repeated block).
        let (mut id, mut shift) = (id, [Duration::ZERO; L]);
        loop {
            let runs = self.shifted.partition_point(|r| r.start <= id);
            let Some(run) = runs.checked_sub(1).map(|r| &self.shifted[r]) else {
                return after(self.scheduled[id], shift);
            };
            let offset = id - run.start;
            if id >= run.end() {
                return after(self.scheduled[run.resume + id - run.end()], shift);
            }
            add(
                &mut shift,
                &run.delta.map(|d| d * (offset / run.period + 1) as u64),
            );
            id = run.start - run.period + offset % run.period;
        }
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
#[inline]
fn later<const L: usize>(mut a: [Time; L], b: [Time; L]) -> [Time; L] {
    raise(&mut a, &b);
    a
}

/// Raises each lane's time `t` to `to` if that is later.
#[inline]
fn raise<const L: usize>(t: &mut [Time; L], to: &[Time; L]) {
    for (t, &to) in t.iter_mut().zip(to) {
        *t = (*t).max(to);
    }
}

/// Each lane's time plus its duration.
#[inline]
fn after<const L: usize>(mut t: [Time; L], d: [Duration; L]) -> [Time; L] {
    advance(&mut t, &d);
    t
}

/// Moves each lane's time on by its duration.
#[inline]
fn advance<const L: usize>(t: &mut [Time; L], d: &[Duration; L]) {
    for (t, &d) in t.iter_mut().zip(d) {
        *t += d;
    }
}

/// Adds each lane's duration to its sum.
#[inline]
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
}

impl Engine {
    /// Creates an engine with `units` resources and a fixed per-command
    /// dispatch overhead (the command scheduler's issue cost).
    pub fn new(units: usize, dispatch: Duration) -> Self {
        Engine {
            units,
            dispatch,
            walks: 0,
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

    /// Executes `program`, every unit free at time zero.
    ///
    /// # Panics
    ///
    /// Panics if a command references an out-of-range unit or a dependency
    /// on a later command (programs must be emitted in topological order).
    pub fn run(&mut self, program: &Program) -> ExecutionReport {
        let [report] = self.run_lanes(&Lanes::new(program));
        report
    }

    /// Executes `program` and records one [`Span`] per command, copies of
    /// repeated blocks included, for timeline inspection / Chrome-trace
    /// export.
    pub fn run_traced(&mut self, program: &Program) -> (ExecutionReport, Vec<Span>) {
        let mut spans = Vec::with_capacity(program.len());
        let schedule = self.walk(&Lanes::<1>::new(program), Some(&mut spans));
        let [report] = schedule.expect("one lane settles alike").reports();
        (report, spans)
    }

    /// Executes every lane of `lanes`: report `l` is the report
    /// [`run`](Self::run) gives on the program with lane `l`'s durations,
    /// [`scheduled`](ExecutionReport::scheduled) included.
    ///
    /// The lanes share one walk of the program, which times every lane of
    /// a command at once, and a repeat's copies are written in closed form
    /// only when every lane settles at the same copy, each lane shifting
    /// by its own δ. If lanes settle a repeat at different copies, each
    /// lane is walked again alone.
    ///
    /// # Panics
    ///
    /// Panics where [`run`](Self::run) does.
    pub fn run_lanes<const L: usize>(&mut self, lanes: &Lanes<'_, L>) -> [ExecutionReport; L] {
        match self.walk(lanes, None) {
            Some(schedule) => schedule.reports(),
            None => std::array::from_fn(|l| {
                let schedule = self.walk(&lanes.lane(l), None);
                let [report] = schedule.expect("one lane settles alike").reports();
                report
            }),
        }
    }

    /// Walks the program of `lanes` once, timing every lane, and records
    /// lane 0's spans if `spans` is given; `None` if the lanes settle a
    /// repeat at different copies.
    fn walk<const L: usize>(
        &mut self,
        lanes: &Lanes<'_, L>,
        spans: Option<&mut Vec<Span>>,
    ) -> Option<Schedule<L>> {
        debug_assert!(L == 1 || spans.is_none(), "only one lane is traced");
        self.walks += 1;
        let program = lanes.program;
        let mut run = Run {
            program,
            durations: &lanes.durations,
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
            busy_marks: Vec::with_capacity(2 * (self.units + program.tags)),
            spans,
        };
        let records = 0..program.records.len();
        let makespan = run.region(records, 0, &program.repeats).ok()?;
        Some(Schedule {
            finish: run.finish,
            makespan,
            tag_busy: run.tag_busy,
            unit_busy: run.busy,
        })
    }
}

/// Every lane's schedule from one walk.
struct Schedule<const L: usize> {
    finish: Finishes<L>,
    makespan: [Time; L],
    tag_busy: Vec<[Duration; L]>,
    unit_busy: Vec<[Duration; L]>,
}

impl<const L: usize> Schedule<L> {
    /// Each lane's report.
    fn reports(self) -> [ExecutionReport; L] {
        let column = |busy: &[[Duration; L]], l: usize| busy.iter().map(|b| b[l]).collect();
        std::array::from_fn(|l| ExecutionReport {
            finish: self.finish.lane(l),
            makespan: self.makespan[l],
            tag_busy: column(&self.tag_busy, l),
            unit_busy: column(&self.unit_busy, l),
        })
    }
}

/// Lanes of one walk settled a repeat at different copies.
struct Disagree;

/// The schedule of `L` lanes under construction by one walk of a
/// program.
struct Run<'a, const L: usize> {
    program: &'a Program,
    /// Every stored command's duration in each lane, by record.
    durations: &'a [[Duration; L]],
    dispatch: Duration,
    /// Earliest time each unit may start new work.
    free_at: Vec<[Time; L]>,
    /// Busy time accumulated by each unit.
    busy: Vec<[Duration; L]>,
    finish: Finishes<L>,
    tag_busy: Vec<[Duration; L]>,
    /// The copies being scheduled one by one, outermost first: each
    /// repeat's anchor and the shift of its copy.
    levels: Vec<(CmdId, usize)>,
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
            let mark = self.mark_busy();
            let block = self.region(r.block.clone(), id, &r.inner)?;
            let copies = self.repeat(r, id, block, mark)?;
            latest = later(later(latest, before), copies);
            self.busy_marks.truncate(mark);
            id += (1 + r.times) * r.period;
            record = r.block.end;
        }
        Ok(later(latest, self.schedule(record..records.end, id)))
    }

    /// Schedules records `records`, the first of which is command
    /// `first`, one by one, each dependency mapped through the levels;
    /// returns the latest finish.
    fn schedule(&mut self, records: Range<usize>, first: CmdId) -> [Time; L] {
        let mut latest = [Time::ZERO; L];
        let durations = &self.durations[records.clone()];
        for (cmd, duration) in self.program.commands_in(records, first).zip(durations) {
            let id = cmd.id;
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
                assert!(s != cmd.unit, "shared resource equals unit");
                raise(&mut start, &self.free_at[s]);
            }
            let done = after(start, *duration);
            self.free_at[cmd.unit] = done;
            add(&mut self.busy[cmd.unit], duration);
            // A resource held twice stays held for twice the duration.
            for &s in cmd.shared {
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
            self.levels.push((repeat.anchor, shift));
            last = self.region(records.clone(), start + shift, &repeat.inner)?;
            self.levels.pop();
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

    /// Writes the last `copies` copies of `repeat` in closed form, each
    /// the copy timed last shifted by one more of its lane's `delta`, and
    /// returns the shift of the last: finishes and spans; busy time, each
    /// copy adding what the copy timed last did since the busy times
    /// marked at `mark`; and the free time of every unit the block uses,
    /// which its last user in the copy timed last set and its last user
    /// in the last copy moves on.
    fn extrapolate(
        &mut self,
        repeat: &Repeat,
        copies: usize,
        delta: [Duration; L],
        mark: usize,
    ) -> [Duration; L] {
        let period = repeat.period;
        if let Some(spans) = self.spans.as_deref_mut() {
            let last = spans.len() - period..spans.len();
            for k in 1..=copies {
                let shift = delta[0] * k as u64;
                for i in last.clone() {
                    let s = spans[i];
                    spans.push(Span {
                        cmd: s.cmd + k * period,
                        start: s.start + shift,
                        end: s.end + shift,
                        ..s
                    });
                }
            }
        }
        let times = copies as u64;
        let to_last = delta.map(|d| d * times);
        let (units, tags) = self.busy_marks[mark..].split_at(self.busy.len());
        for &u in &repeat.units {
            repeat_busy(&mut self.busy[u], &units[u], times);
            self.free_at[u] = after(self.free_at[u], to_last);
        }
        for (busy, before) in self.tag_busy.iter_mut().zip(tags) {
            repeat_busy(busy, before, times);
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
