#include "probes.h"

namespace perfbench {
namespace {

// Adds the duration of the enclosing scope to `timer`.
class Timed {
 public:
  explicit Timed(CallTimer& timer) : timer_(timer), start_(NowNs()) { ++timer_.calls; }
  ~Timed() { timer_.ns += NowNs() - start_; }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  CallTimer& timer_;
  std::int64_t start_;
};

}  // namespace

const char* const kTimedHookNames[kTimedHooks] = {"begin_atomic", "end_atomic", "clear_ar",
                                                   "trap", "context_switch"};

std::int64_t HookCounts::timed_ns() const {
  std::int64_t ns = 0;
  for (const CallTimer& t : timed) {
    ns += t.ns;
  }
  return ns;
}

void HookCounts::Add(const HookCounts& other) {
  for (int i = 0; i < kTimedHooks; ++i) {
    timed[i].calls += other.timed[i].calls;
    timed[i].ns += other.timed[i].ns;
  }
  timeouts += other.timeouts;
  kernel_entries += other.kernel_entries;
  idle_queries += other.idle_queries;
  idle_noop += other.idle_noop;
}

void HookProbe::OnBeginAtomic(kivati::ThreadId thread, const kivati::Instruction& instr,
                              kivati::Addr ea) {
  Timed t(counts_.timed[kBeginAtomic]);
  inner_.OnBeginAtomic(thread, instr, ea);
}

void HookProbe::OnEndAtomic(kivati::ThreadId thread, const kivati::Instruction& instr) {
  Timed t(counts_.timed[kEndAtomic]);
  inner_.OnEndAtomic(thread, instr);
}

void HookProbe::OnClearAr(kivati::ThreadId thread, std::uint32_t call_depth) {
  Timed t(counts_.timed[kClearAr]);
  inner_.OnClearAr(thread, call_depth);
}

bool HookProbe::OnWatchpointTrap(kivati::ThreadId thread, kivati::CoreId core, unsigned slot,
                                 const kivati::MemAccess& access,
                                 kivati::ProgramCounter trap_pc) {
  Timed t(counts_.timed[kTrap]);
  return inner_.OnWatchpointTrap(thread, core, slot, access, trap_pc);
}

void HookProbe::OnKernelEntry(kivati::CoreId core) {
  ++counts_.kernel_entries;
  inner_.OnKernelEntry(core);
}

bool HookProbe::IdleSyncIsNoOp(kivati::CoreId core) const {
  ++counts_.idle_queries;
  const bool noop = inner_.IdleSyncIsNoOp(core);
  counts_.idle_noop += noop ? 1 : 0;
  return noop;
}

void HookProbe::OnContextSwitch(kivati::CoreId core, kivati::ThreadId prev,
                                kivati::ThreadId next) {
  Timed t(counts_.timed[kContextSwitch]);
  inner_.OnContextSwitch(core, prev, next);
}

void HookProbe::OnSuspensionTimeout(kivati::ThreadId thread) {
  ++counts_.timeouts;
  inner_.OnSuspensionTimeout(thread);
}

void HookProbe::OnThreadExit(kivati::ThreadId thread) { inner_.OnThreadExit(thread); }

void SinkProbe::OnEvent(const kivati::TraceEvent& event) {
  Timed t(events_);
  inner_.OnEvent(event);
}

RunProbes::~RunProbes() {
  if (machine_ != nullptr) {
    machine_->set_hooks(runtime_);
  }
}

void RunProbes::Install(kivati::exp::BuiltRun& run) {
  if (kivati::KivatiRuntime* runtime = run.engine->runtime()) {
    machine_ = &run.engine->machine();
    runtime_ = runtime;
    hooks_.emplace(*runtime);
    machine_->set_hooks(&*hooks_);
  }
  if (run.hb != nullptr) {
    kivati::TraceHub& hub = run.engine->trace().hub();
    sink_.emplace(*run.hb);
    hub.Detach(run.hb.get());
    hub.Attach(&*sink_);
  }
}

HookCounts RunProbes::hook_counts() const { return hooks_ ? hooks_->counts() : HookCounts{}; }

CallTimer RunProbes::sink_events() const { return sink_ ? sink_->events() : CallTimer{}; }

int SpanLog::Open(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  const std::int64_t now = NowNs();
  spans_.push_back({name, now, now, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::Close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

void SpanLog::AddCollapsed(const char* name, std::int64_t ns) {
  const int parent = open_.empty() ? -1 : open_.back();
  const std::int64_t start =
      parent < 0 ? NowNs() : spans_[static_cast<std::size_t>(parent)].start_ns;
  spans_.push_back({name, start, start + ns, parent});
}

}  // namespace perfbench
