#include "obs/tracer.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/strings.h"
#include "frontier/frontier_tracker.h"
#include "sim/fault_injector.h"

namespace dsms {
namespace {

/// Arc rows live in their own tid band so operator ids and arc ids cannot
/// collide in the exported trace.
constexpr int kArcTidBase = 100000;

}  // namespace

const char* TraceEventTypeToString(TraceEventType type) {
  switch (type) {
    case TraceEventType::kStep:
      return "step";
    case TraceEventType::kNosRule:
      return "nos";
    case TraceEventType::kEtsGenerated:
      return "ets";
    case TraceEventType::kIdleWaitBegin:
      return "idle_begin";
    case TraceEventType::kIdleWaitEnd:
      return "idle_end";
    case TraceEventType::kBufferHighWater:
      return "buffer_hwm";
    case TraceEventType::kFaultInjected:
      return "fault";
    case TraceEventType::kPunctuationEmitted:
      return "punct_emit";
    case TraceEventType::kPunctuationAbsorbed:
      return "punct_absorb";
    case TraceEventType::kNetIngest:
      return "net_ingest";
    case TraceEventType::kCheckpoint:
      return "checkpoint";
    case TraceEventType::kRecovery:
      return "recovery";
    case TraceEventType::kBatchDrain:
      return "batch_drain";
    case TraceEventType::kFrontier:
      return "frontier";
    case TraceEventType::kStateSpill:
      return "state_spill";
    case TraceEventType::kStateLoad:
      return "state_load";
  }
  return "unknown";
}

const char* StepKindToString(StepKind kind) {
  switch (kind) {
    case StepKind::kEmpty:
      return "empty";
    case StepKind::kData:
      return "data";
    case StepKind::kPunctuation:
      return "punctuation";
  }
  return "unknown";
}

const char* NosRuleToString(NosRule rule) {
  switch (rule) {
    case NosRule::kForward:
      return "Forward";
    case NosRule::kEncore:
      return "Encore";
    case NosRule::kBacktrack:
      return "Backtrack";
  }
  return "unknown";
}

const char* EtsOriginToString(EtsOrigin origin) {
  switch (origin) {
    case EtsOrigin::kOnDemand:
      return "on-demand";
    case EtsOrigin::kLease:
      return "lease";
  }
  return "unknown";
}

Tracer::Tracer(const VirtualClock* clock, size_t capacity) : clock_(clock) {
  DSMS_CHECK(clock != nullptr);
  DSMS_CHECK_GT(capacity, 0u);
  ring_.resize(capacity);
}

void Tracer::SetOperatorName(int op_id, std::string name) {
  operator_names_[op_id] = std::move(name);
}

void Tracer::SetArcName(int arc_id, std::string name) {
  arc_names_[arc_id] = std::move(name);
}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> events;
  events.reserve(count_);
  // With drops the ring holds the newest `count_` events starting at next_;
  // without drops it holds [0, count_).
  size_t start = dropped_ > 0 ? next_ : 0;
  for (size_t i = 0; i < count_; ++i) {
    events.push_back(ring_[(start + i) % ring_.size()]);
  }
  return events;
}

size_t Tracer::CountType(TraceEventType type) const {
  size_t start = dropped_ > 0 ? next_ : 0;
  size_t n = 0;
  for (size_t i = 0; i < count_; ++i) {
    if (ring_[(start + i) % ring_.size()].type == type) ++n;
  }
  return n;
}

void Tracer::WriteChromeTrace(std::ostream& os) const {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  auto emit = [&os, &first](const std::string& line) {
    if (!first) os << ",\n";
    first = false;
    os << "  " << line;
  };

  // Thread-name metadata: one row per operator, one per arc (separate band).
  for (const auto& [op_id, name] : operator_names_) {
    emit(StrFormat("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
                   "\"tid\": %d, \"args\": {\"name\": %s}}",
                   op_id, JsonQuote(name).c_str()));
    emit(StrFormat("{\"name\": \"thread_sort_index\", \"ph\": \"M\", "
                   "\"pid\": 0, \"tid\": %d, \"args\": {\"sort_index\": %d}}",
                   op_id, op_id));
  }
  for (const auto& [arc_id, name] : arc_names_) {
    emit(StrFormat("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
                   "\"tid\": %d, \"args\": {\"name\": %s}}",
                   kArcTidBase + arc_id,
                   JsonQuote("arc " + name).c_str()));
    emit(StrFormat("{\"name\": \"thread_sort_index\", \"ph\": \"M\", "
                   "\"pid\": 0, \"tid\": %d, \"args\": {\"sort_index\": %d}}",
                   kArcTidBase + arc_id, kArcTidBase + arc_id));
  }

  for (const TraceEvent& event : Events()) {
    const long long ts = static_cast<long long>(event.ts);
    const long long arg = static_cast<long long>(event.arg);
    const int tid = event.op_id;
    switch (event.type) {
      case TraceEventType::kStep:
        emit(StrFormat(
            "{\"name\": \"step:%s\", \"cat\": \"step\", \"ph\": \"X\", "
            "\"ts\": %lld, \"dur\": %lld, \"pid\": 0, \"tid\": %d}",
            StepKindToString(static_cast<StepKind>(event.detail)), ts,
            static_cast<long long>(event.dur), tid));
        break;
      case TraceEventType::kNosRule:
        emit(StrFormat(
            "{\"name\": \"nos:%s\", \"cat\": \"nos\", \"ph\": \"i\", "
            "\"s\": \"t\", \"ts\": %lld, \"pid\": 0, \"tid\": %d, "
            "\"args\": {\"hops\": %lld}}",
            NosRuleToString(static_cast<NosRule>(event.detail)), ts, tid,
            arg));
        break;
      case TraceEventType::kEtsGenerated:
        emit(StrFormat(
            "{\"name\": \"ets:%s\", \"cat\": \"ets\", \"ph\": \"i\", "
            "\"s\": \"t\", \"ts\": %lld, \"pid\": 0, \"tid\": %d, "
            "\"args\": {\"bound\": %lld}}",
            EtsOriginToString(static_cast<EtsOrigin>(event.detail)), ts, tid,
            arg));
        break;
      case TraceEventType::kIdleWaitBegin:
        emit(StrFormat("{\"name\": \"idle-wait\", \"cat\": \"idle\", "
                       "\"ph\": \"B\", \"ts\": %lld, \"pid\": 0, \"tid\": %d}",
                       ts, tid));
        break;
      case TraceEventType::kIdleWaitEnd:
        emit(StrFormat("{\"name\": \"idle-wait\", \"cat\": \"idle\", "
                       "\"ph\": \"E\", \"ts\": %lld, \"pid\": 0, \"tid\": %d}",
                       ts, tid));
        break;
      case TraceEventType::kBufferHighWater:
        emit(StrFormat(
            "{\"name\": \"occupancy\", \"cat\": \"buffer\", \"ph\": \"C\", "
            "\"ts\": %lld, \"pid\": 0, \"tid\": %d, "
            "\"args\": {\"tuples\": %lld}}",
            ts, kArcTidBase + tid, arg));
        break;
      case TraceEventType::kFaultInjected:
        emit(StrFormat(
            "{\"name\": \"fault:%s\", \"cat\": \"fault\", \"ph\": \"i\", "
            "\"s\": \"g\", \"ts\": %lld, \"pid\": 0, \"tid\": %d, "
            "\"args\": {\"arg\": %lld}}",
            FaultKindToString(static_cast<FaultKind>(event.detail)), ts, tid,
            arg));
        break;
      case TraceEventType::kPunctuationEmitted:
        emit(StrFormat(
            "{\"name\": \"punct-emit\", \"cat\": \"punct\", \"ph\": \"i\", "
            "\"s\": \"t\", \"ts\": %lld, \"pid\": 0, \"tid\": %d, "
            "\"args\": {\"bound\": %lld}}",
            ts, tid, arg));
        break;
      case TraceEventType::kPunctuationAbsorbed:
        emit(StrFormat(
            "{\"name\": \"punct-absorb\", \"cat\": \"punct\", \"ph\": \"i\", "
            "\"s\": \"t\", \"ts\": %lld, \"pid\": 0, \"tid\": %d, "
            "\"args\": {\"bound\": %lld}}",
            ts, tid, arg));
        break;
      case TraceEventType::kNetIngest:
        emit(StrFormat(
            "{\"name\": \"net-ingest:%s\", \"cat\": \"net\", \"ph\": \"i\", "
            "\"s\": \"t\", \"ts\": %lld, \"pid\": 0, \"tid\": %d, "
            "\"args\": {\"conn\": %lld}}",
            event.detail == 1 ? "punctuation" : "data", ts, tid, arg));
        break;
      case TraceEventType::kCheckpoint:
        // Engine-level (tid -1 would confuse viewers; pin to tid 0's band
        // as a global instant).
        emit(StrFormat(
            "{\"name\": \"checkpoint\", \"cat\": \"recovery\", \"ph\": "
            "\"i\", \"s\": \"g\", \"ts\": %lld, \"pid\": 0, \"tid\": 0, "
            "\"args\": {\"checkpoint_id\": %lld, \"frontier\": %lld}}",
            ts, arg, static_cast<long long>(event.dur)));
        break;
      case TraceEventType::kRecovery:
        emit(StrFormat(
            "{\"name\": \"recovery\", \"cat\": \"recovery\", \"ph\": \"i\", "
            "\"s\": \"g\", \"ts\": %lld, \"pid\": 0, \"tid\": 0, "
            "\"args\": {\"replayed_frames\": %lld, \"checkpoint_id\": "
            "%lld}}",
            ts, arg, static_cast<long long>(event.dur)));
        break;
      case TraceEventType::kBatchDrain:
        emit(StrFormat(
            "{\"name\": \"batch:%lld\", \"cat\": \"batch\", \"ph\": \"X\", "
            "\"ts\": %lld, \"dur\": %lld, \"pid\": 0, \"tid\": %d, "
            "\"args\": {\"rows\": %lld, \"punct_split\": %d}}",
            arg, ts, static_cast<long long>(event.dur), tid, arg,
            static_cast<int>(event.detail)));
        break;
      case TraceEventType::kFrontier:
        emit(StrFormat(
            "{\"name\": \"frontier:%s\", \"cat\": \"frontier\", \"ph\": "
            "\"i\", \"s\": \"t\", \"ts\": %lld, \"pid\": 0, \"tid\": %d, "
            "\"args\": {\"arg\": %lld}}",
            FrontierEventKindToString(
                static_cast<FrontierEventKind>(event.detail)),
            ts, tid, arg));
        break;
      case TraceEventType::kStateSpill:
      case TraceEventType::kStateLoad:
        emit(StrFormat(
            "{\"name\": \"%s\", \"cat\": \"storage\", \"ph\": \"i\", "
            "\"s\": \"t\", \"ts\": %lld, \"pid\": 0, \"tid\": %d, "
            "\"args\": {\"block\": %lld, \"rows\": %lld}}",
            TraceEventTypeToString(event.type), ts, tid, arg,
            static_cast<long long>(event.dur)));
        break;
    }
  }
  os << "\n], \"otherData\": {\"dropped_events\": "
     << static_cast<unsigned long long>(dropped_) << "}}\n";
}

}  // namespace dsms
