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
//! the sync that ends each block makes the schedule periodic. A compiler
//! stores such a block once and repeats it with [`Program::repeat_block`]:
//! copy `k` of an `L`-command block has ids `k·L` later than the block,
//! and so does every dependency of each of its commands, while units,
//! durations, tags and holds are the block's. Ids stay virtual: a program
//! has [`len`](Program::len) commands, copies included, and
//! [`Program::expanded`] materializes them. The engine schedules a
//! repeat's copies command by command only until the schedule reaches
//! steady state, and writes the remaining copies in closed form.
//!
//! Every start time is a max-plus expression: the latest of its
//! dependencies' finishes plus `dispatch`, the dispatch-only ready time
//! of a dependency-free command, and the free times of its unit and
//! shared resources (the finish of their last earlier user). Suppose a
//! timed block repeats the `L` commands before it — the same units,
//! durations, tags and holds, every dependency `L` ids later — and its
//! dependencies all point into itself or into those commands. Suppose
//! also that every finish of the block is the matching finish of the
//! `L` commands before plus one δ > 0. Each start of the block then
//! exceeds the one before by δ, so it is at least `dispatch` + δ and no
//! constant binds it: it is the latest of its finish and free-time
//! terms. The next copy repeats the block by construction, so every such
//! term of the copy is the matching term of the block plus δ, and the
//! copy is the block shifted by δ, exactly; by induction so is every
//! later copy: finishes and unit free times move by δ per copy, and each
//! copy adds the same busy time to every unit and tag. The engine first
//! tries the stored block against the stored commands before it, then
//! each copy it schedules against the one before. A repeat whose
//! dependencies reach further back, or whose schedule never reaches a
//! constant shift, is scheduled copy by copy, and the result is the same
//! either way. [`ExecutionReport::finish`] reads a closed-form copy as the
//! last copy scheduled plus `k`·δ, and [`ExecutionReport::scheduled`]
//! counts the commands scheduled one by one.
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
    /// Repeated blocks, in id order.
    repeats: Vec<Repeat>,
    /// Number of commands, copies included.
    len: usize,
}

/// A stored block followed by copies of itself; see
/// [`Program::repeat_block`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Repeat {
    /// The block's records.
    block: Range<usize>,
    /// Id of the block's first command.
    start: CmdId,
    /// Copies after the block.
    times: usize,
}

impl Repeat {
    /// Commands per copy.
    fn period(&self) -> usize {
        self.block.len()
    }

    /// Id of the first command after the last copy.
    fn end(&self) -> CmdId {
        self.start + (1 + self.times) * self.period()
    }
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
        self.len += 1;
        self.len - 1
    }

    /// Repeats commands `block`, the last ones emitted, `times` more
    /// times without storing the copies. Copy `k` has ids `k ×
    /// block.len()` later than the block, and so does every dependency of
    /// each of its commands; units, durations, tags and holds are the
    /// block's. Commands emitted afterwards follow the last copy and may
    /// depend on any command, copies included. [`Engine::run`] writes
    /// copies in closed form once the schedule settles (see the
    /// [module docs](self)), and [`expanded`](Self::expanded) emits them.
    ///
    /// # Panics
    ///
    /// Panics if `block` is empty, does not end at
    /// [`next_id`](Self::next_id) or starts inside an earlier repeat.
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
    /// assert!(p.repeats_previous(4..6));
    /// p.repeat_block(4..6, 7);
    /// assert_eq!((p.len(), p.commands().count()), (20, 6));
    /// let report = Engine::new(2, Duration::ZERO).run(&p);
    /// assert_eq!(report.makespan().as_ns_f64(), 1500.0);
    /// assert_eq!(report.finish(19), report.makespan());
    /// // Blocks 0-2 are scheduled; the shift they settle into fills 3-9.
    /// assert_eq!(report.scheduled(), 6);
    /// assert_eq!(report, Engine::new(2, Duration::ZERO).run(&p.expanded()));
    /// ```
    pub fn repeat_block(&mut self, block: Range<CmdId>, times: usize) {
        let stretch = self.repeats.last().map_or(0, Repeat::end);
        assert!(
            !block.is_empty() && block.end == self.len && block.start >= stretch,
            "repeated block {block:?} is not the last commands emitted"
        );
        if times == 0 {
            return;
        }
        let stored = self.records.len() - block.len()..self.records.len();
        self.len += times * block.len();
        self.repeats.push(Repeat {
            block: stored,
            start: block.start,
            times,
        });
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
        let index = self.record_of(id);
        self.records[index].duration = duration;
    }

    /// Index of the record command `id` is, or is a copy of.
    fn record_of(&self, id: CmdId) -> usize {
        let mut copied = 0;
        for r in &self.repeats {
            let copies = r.start + r.period()..r.end();
            if id < copies.start {
                break;
            }
            if copies.contains(&id) {
                return r.block.start + (id - copies.start) % r.period();
            }
            copied += copies.len();
        }
        id - copied
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
        self.stretches()
            .flat_map(|(records, first, _)| self.commands_in(records, first))
    }

    /// The program with every copy of a repeated block emitted: the same
    /// commands under the same ids, all stored.
    pub fn expanded(&self) -> Program {
        let mut full = Program::new();
        for (records, first, repeat) in self.stretches() {
            full.append(self.commands_in(records, first), 0);
            if let Some(r) = repeat {
                for shift in (1..=r.times).map(|k| k * r.period()) {
                    full.append(self.commands_in(r.block.clone(), r.start + shift), shift);
                }
            }
        }
        full
    }

    /// Emits `cmds`, each dependency `shift` ids later than listed.
    fn append<'p>(&mut self, cmds: impl Iterator<Item = CommandView<'p>>, shift: usize) {
        for cmd in cmds {
            let deps = cmd.deps.iter().map(|&d| d + shift);
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

    /// The program's stretches of stored commands, in order: each one's
    /// records, the id of its first command, and the repeat whose block
    /// ends it (none for the last stretch).
    fn stretches(&self) -> impl Iterator<Item = (Range<usize>, CmdId, Option<&Repeat>)> + '_ {
        let (mut record, mut id) = (0, 0);
        self.repeats
            .iter()
            .map(Some)
            .chain([None])
            .map(move |repeat| {
                let end = repeat.map_or(self.records.len(), |r| r.block.end);
                let stretch = (record..end, id, repeat);
                if let Some(r) = repeat {
                    (record, id) = (end, r.end());
                }
                stretch
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

    /// Whether commands `block` repeat the `block.len()` commands just
    /// before them: the same units, durations, tags and holds, with every
    /// dependency `block.len()` ids later. Only commands stored after
    /// every repeat's copies are compared; any others do not repeat.
    pub fn repeats_previous(&self, block: Range<CmdId>) -> bool {
        let (record, id) = self
            .repeats
            .last()
            .map_or((0, 0), |r| (r.block.end, r.end()));
        block.start >= id
            && block.end <= self.len
            && self.records_repeat(
                record,
                &(block.start - id + record..block.end - id + record),
            )
    }

    /// Whether records `block` repeat the `block.len()` records just
    /// before them, which must not precede record `floor`.
    fn records_repeat(&self, floor: usize, block: &Range<usize>) -> bool {
        let len = block.len();
        let Some(prev_start) = block.start.checked_sub(len).filter(|&p| p >= floor) else {
            return false;
        };
        let prev = prev_start..block.start;
        let (deps, prev_deps) = (self.deps_range(block), self.deps_range(&prev));
        let (shared, prev_shared) = (self.shared_range(block), self.shared_range(&prev));
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
                same & (r.duration == p.duration)
                    & (r.unit == p.unit)
                    & (r.tag == p.tag)
                    & (r.deps_end.wrapping_sub(p.deps_end) == dep_shift)
                    & (r.shared_end.wrapping_sub(p.shared_end) == shared_shift)
            });
        let deps = self.deps[deps]
            .iter()
            .zip(&self.deps[prev_deps])
            .fold(true, |same, (&d, &p)| same & (d.wrapping_sub(p) == len));
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
    finish: Finishes,
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
        self.finish.get(id)
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

/// Finish times of the commands timed so far, by id: those scheduled one
/// by one, and runs of copies written in closed form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Finishes {
    /// Finishes of the commands scheduled one by one, in id order.
    scheduled: Vec<Time>,
    /// Runs of copies written in closed form, in id order.
    shifted: Vec<Shifted>,
    /// Number of commands timed.
    len: usize,
}

/// Copies of a block written in closed form: copy `k` of the run finishes
/// `k` × δ after the copy scheduled last before it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Shifted {
    /// Id of the run's first command.
    start: CmdId,
    /// Index in `scheduled` of the copy the run repeats.
    base: usize,
    /// Commands per copy.
    period: usize,
    /// Copies in the run.
    copies: usize,
    /// Shift between consecutive copies.
    delta: Duration,
}

impl Finishes {
    /// Times the next command one by one.
    fn push(&mut self, finish: Time) {
        self.scheduled.push(finish);
        self.len += 1;
    }

    /// Finish of command `id`.
    fn get(&self, id: CmdId) -> Time {
        let runs = self.shifted.partition_point(|r| r.start <= id);
        let Some(run) = runs.checked_sub(1).map(|r| &self.shifted[r]) else {
            return self.scheduled[id];
        };
        let (offset, copied) = (id - run.start, run.copies * run.period);
        if offset < copied {
            let k = (offset / run.period + 1) as u64;
            self.scheduled[run.base + offset % run.period] + run.delta * k
        } else {
            self.scheduled[run.base + run.period + offset - copied]
        }
    }

    /// The shift δ > 0 by which each of the last `period` commands
    /// scheduled finishes after the one `period` commands before it, if
    /// they all finish by one such shift.
    fn settled(&self, period: usize) -> Option<Duration> {
        let tail = self.scheduled.len().checked_sub(2 * period)?;
        let (prev, last) = self.scheduled[tail..].split_at(period);
        let delta = last[0].as_ps().checked_sub(prev[0].as_ps())?;
        let shifted = delta > 0
            && prev
                .iter()
                .zip(last)
                .all(|(p, l)| l.as_ps() == p.as_ps() + delta);
        shifted.then_some(Duration::from_ps(delta))
    }

    /// Times `copies` copies of the last `period` commands scheduled, each
    /// the one before shifted by `delta`.
    fn repeat_last(&mut self, period: usize, copies: usize, delta: Duration) {
        self.shifted.push(Shifted {
            start: self.len,
            base: self.scheduled.len() - period,
            period,
            copies,
            delta,
        });
        self.len += copies * period;
    }
}

/// The unit pool a program executes against.
///
/// Units are plain indices; the system layer defines the convention (which
/// index is a core's matrix unit, which is the shared memory bus, …).
#[derive(Debug, Clone)]
pub struct Engine {
    /// Earliest time each unit may start new work.
    free_at: Vec<Time>,
    /// Busy time accumulated by each unit.
    busy: Vec<Duration>,
    dispatch: Duration,
}

impl Engine {
    /// Creates an engine with `units` resources and a fixed per-command
    /// dispatch overhead (the command scheduler's issue cost).
    pub fn new(units: usize, dispatch: Duration) -> Self {
        Engine {
            free_at: vec![Time::ZERO; units],
            busy: vec![Duration::ZERO; units],
            dispatch,
        }
    }

    /// Number of units.
    pub fn unit_count(&self) -> usize {
        self.free_at.len()
    }

    /// Executes `program`, resetting all units first.
    ///
    /// # Panics
    ///
    /// Panics if a command references an out-of-range unit or a dependency
    /// on a later command (programs must be emitted in topological order).
    pub fn run(&mut self, program: &Program) -> ExecutionReport {
        self.run_inner(program, None)
    }

    /// Executes `program` and records one [`Span`] per command, copies of
    /// repeated blocks included, for timeline inspection / Chrome-trace
    /// export.
    pub fn run_traced(&mut self, program: &Program) -> (ExecutionReport, Vec<Span>) {
        let mut spans = Vec::with_capacity(program.len());
        let report = self.run_inner(program, Some(&mut spans));
        (report, spans)
    }

    fn run_inner(&mut self, program: &Program, spans: Option<&mut Vec<Span>>) -> ExecutionReport {
        self.free_at.fill(Time::ZERO);
        self.busy.fill(Duration::ZERO);
        let mut run = Run {
            finish: Finishes::default(),
            makespan: Time::ZERO,
            tag_busy: Vec::new(),
            spans,
        };
        for (records, first, repeat) in program.stretches() {
            let floor = records.start;
            self.schedule(program.commands_in(records, first), 0, &mut run);
            if let Some(repeat) = repeat {
                self.repeat(program, floor, repeat, &mut run);
            }
        }
        ExecutionReport {
            finish: run.finish,
            makespan: run.makespan,
            tag_busy: run.tag_busy,
            unit_busy: self.busy.clone(),
        }
    }

    /// Schedules `cmds` one by one, each dependency `shift` ids later than
    /// listed.
    fn schedule<'p>(
        &mut self,
        cmds: impl Iterator<Item = CommandView<'p>>,
        shift: usize,
        run: &mut Run<'_>,
    ) {
        for cmd in cmds {
            let id = cmd.id;
            let mut ready = Time::ZERO;
            for &d in cmd.deps {
                let d = d + shift;
                assert!(d < id, "dependency {d} of command {id} is not earlier");
                ready = ready.max(run.finish.get(d));
            }
            ready += self.dispatch;
            // Start when the unit and every shared resource are free.
            let mut start = ready.max(self.free_at[cmd.unit]);
            for &s in cmd.shared {
                assert!(s != cmd.unit, "shared resource equals unit");
                start = start.max(self.free_at[s]);
            }
            self.occupy(&cmd, start, 1);
            let done = start + cmd.duration;
            run.finish.push(done);
            run.makespan = run.makespan.max(done);
            if cmd.tag >= run.tag_busy.len() {
                run.tag_busy.resize(cmd.tag + 1, Duration::ZERO);
            }
            run.tag_busy[cmd.tag] += cmd.duration;
            if let Some(spans) = run.spans.as_deref_mut() {
                spans.push(Span {
                    cmd: id,
                    unit: cmd.unit,
                    tag: cmd.tag,
                    start,
                    end: done,
                });
            }
        }
    }

    /// Times the copies of `repeat`, whose block ends a stretch of stored
    /// commands from record `floor` on and has just been scheduled. Copies
    /// are scheduled one by one until one finishes every command one shift
    /// δ > 0 after the block or copy before it (the stored block against
    /// the stored commands before it counts too); the rest are written in
    /// closed form.
    fn repeat(&mut self, program: &Program, floor: usize, repeat: &Repeat, run: &mut Run<'_>) {
        let period = repeat.period();
        // Dependencies must stay within a copy and the one before it.
        let local = program.deps[program.deps_range(&repeat.block)]
            .iter()
            .all(|&d| d + period >= repeat.start);
        let settled = |run: &Run<'_>| run.finish.settled(period).filter(|_| local);
        let mut delta = settled(run).filter(|_| program.records_repeat(floor, &repeat.block));
        let mut copies = 0;
        while delta.is_none() && copies < repeat.times {
            copies += 1;
            let shift = copies * period;
            let cmds = program.commands_in(repeat.block.clone(), repeat.start + shift);
            self.schedule(cmds, shift, run);
            delta = settled(run);
        }
        if let Some(delta) = delta.filter(|_| copies < repeat.times) {
            self.extrapolate(program, repeat, repeat.times - copies, delta, run);
        }
    }

    /// Writes the last `copies` copies of `repeat` in closed form, each
    /// the copy scheduled last shifted by one more `delta`: finishes and
    /// spans, busy time, and the units re-occupied from the last copy's
    /// times, as scheduling would have left them. The free times left
    /// over from the copy scheduled last are earlier than any of those
    /// starts, so they bind nothing.
    fn extrapolate(
        &mut self,
        program: &Program,
        repeat: &Repeat,
        copies: usize,
        delta: Duration,
        run: &mut Run<'_>,
    ) {
        let period = repeat.period();
        if let Some(spans) = run.spans.as_deref_mut() {
            let last = spans.len() - period..spans.len();
            for k in 1..=copies {
                let shift = delta * k as u64;
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
        let base = run.finish.scheduled.len() - period;
        let (times, to_last) = (copies as u64, delta * copies as u64);
        for (i, cmd) in program.commands_in(repeat.block.clone(), 0).enumerate() {
            let done = run.finish.scheduled[base + i] + to_last;
            let start = Time::from_ps(done.as_ps() - cmd.duration.as_ps());
            self.occupy(&cmd, start, times);
            run.tag_busy[cmd.tag] += cmd.duration * times;
            run.makespan = run.makespan.max(done);
        }
        run.finish.repeat_last(period, copies, delta);
    }

    /// Occupies the unit and held resources of `cmd` from `start`,
    /// charging each `times` × its duration of busy time.
    fn occupy(&mut self, cmd: &CommandView<'_>, start: Time, times: u64) {
        for &u in std::iter::once(&cmd.unit).chain(cmd.shared) {
            self.free_at[u] = start.max(self.free_at[u]) + cmd.duration;
            self.busy[u] += cmd.duration * times;
        }
    }
}

/// The schedule under construction by one [`Engine::run`].
struct Run<'a> {
    finish: Finishes,
    makespan: Time,
    tag_busy: Vec<Duration>,
    spans: Option<&'a mut Vec<Span>>,
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
        p.repeat_block(block, blocks - slow - 2);
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
            assert!(!p.repeats_previous(12..14), "{moved} moved");
            p.repeat_block(12..14, 3);
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
        p.repeat_block(b..b + 1, 2);
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
    #[should_panic(expected = "is not the last commands emitted")]
    fn repeating_a_block_that_is_not_last_rejected() {
        let mut p = Program::new();
        p.emit(0, NS(1), 0, [], None);
        p.emit(0, NS(1), 0, [], None);
        p.repeat_block(0..1, 2);
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
