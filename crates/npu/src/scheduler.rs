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

use ianus_sim::{Duration, Resource, Time};

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

/// A borrowed view of one command of a [`Program`], as yielded by
/// [`Program::commands`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandView<'a> {
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
/// amortized growth of those three vectors. Two programs are equal when
/// every command is.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    records: Vec<Record>,
    deps: Vec<CmdId>,
    shared: Vec<UnitId>,
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
        self.records.len() - 1
    }

    /// Reserves room for `times` more copies of the commands emitted so
    /// far: a compiler emitting a repeated structure (one block per
    /// layer) calls it after the first repeat, so the program grows by
    /// one allocation instead of repeated doubling.
    pub fn reserve_repeats(&mut self, times: usize) {
        self.records.reserve(self.records.len() * times);
        self.deps.reserve(self.deps.len() * times);
        self.shared.reserve(self.shared.len() * times);
    }

    /// Re-times command `id`, leaving its unit, tag, dependencies and
    /// shared resources as emitted: a compiler re-timing one program to
    /// new operand sizes patches durations instead of emitting again.
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
        self.records[id].duration = duration;
    }

    /// Number of commands.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The commands in emission order.
    pub fn commands(&self) -> impl ExactSizeIterator<Item = CommandView<'_>> + '_ {
        let mut deps_start = 0;
        let mut shared_start = 0;
        self.records.iter().map(move |r| {
            let (deps_end, shared_end) = (r.deps_end as usize, r.shared_end as usize);
            let view = CommandView {
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
        self.records.len()
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionReport {
    finish: Vec<Time>,
    makespan: Time,
    tag_busy: Vec<Duration>,
    unit_busy: Vec<Duration>,
}

impl ExecutionReport {
    /// Completion time of command `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn finish(&self, id: CmdId) -> Time {
        self.finish[id]
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
}

/// The unit pool a program executes against.
///
/// Units are plain indices; the system layer defines the convention (which
/// index is a core's matrix unit, which is the shared memory bus, …).
#[derive(Debug, Clone)]
pub struct Engine {
    units: Vec<Resource>,
    dispatch: Duration,
}

impl Engine {
    /// Creates an engine with `units` resources and a fixed per-command
    /// dispatch overhead (the command scheduler's issue cost).
    pub fn new(units: usize, dispatch: Duration) -> Self {
        Engine {
            units: (0..units)
                .map(|i| Resource::new(format!("unit{i}")))
                .collect(),
            dispatch,
        }
    }

    /// Number of units.
    pub fn unit_count(&self) -> usize {
        self.units.len()
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

    /// Executes `program` and records one [`Span`] per command for
    /// timeline inspection / Chrome-trace export.
    pub fn run_traced(&mut self, program: &Program) -> (ExecutionReport, Vec<Span>) {
        let mut spans = Vec::with_capacity(program.len());
        let report = self.run_inner(program, Some(&mut spans));
        (report, spans)
    }

    fn run_inner(
        &mut self,
        program: &Program,
        mut trace: Option<&mut Vec<Span>>,
    ) -> ExecutionReport {
        for u in &mut self.units {
            u.reset();
        }
        let n = program.len();
        let mut finish = vec![Time::ZERO; n];
        let mut makespan = Time::ZERO;
        let mut tag_busy: Vec<Duration> = Vec::new();
        for (id, cmd) in program.commands().enumerate() {
            let mut ready = Time::ZERO;
            for &d in cmd.deps {
                assert!(d < id, "dependency {d} of command {id} is not earlier");
                ready = ready.max(finish[d]);
            }
            ready += self.dispatch;
            // Start when the unit and every shared resource are free.
            let mut start = self.units[cmd.unit].next_start(ready);
            for &s in cmd.shared {
                assert!(s != cmd.unit, "shared resource equals unit");
                start = start.max(self.units[s].next_start(ready));
            }
            let done = self.units[cmd.unit].acquire(start, cmd.duration);
            for &s in cmd.shared {
                self.units[s].acquire(start, cmd.duration);
            }
            finish[id] = done;
            makespan = makespan.max(done);
            if cmd.tag >= tag_busy.len() {
                tag_busy.resize(cmd.tag + 1, Duration::ZERO);
            }
            tag_busy[cmd.tag] += cmd.duration;
            if let Some(spans) = trace.as_deref_mut() {
                spans.push(Span {
                    cmd: id,
                    unit: cmd.unit,
                    tag: cmd.tag,
                    start,
                    end: done,
                });
            }
        }
        ExecutionReport {
            finish,
            makespan,
            tag_busy,
            unit_busy: self.units.iter().map(|u| u.busy_time()).collect(),
        }
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
        assert_eq!(p.commands().len(), cmds.len());
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
