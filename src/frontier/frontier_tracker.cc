#include "frontier/frontier_tracker.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "operators/source.h"
#include "recovery/state_codec.h"

namespace dsms {

const char* SourceHealthToString(SourceHealth health) {
  switch (health) {
    case SourceHealth::kHealthy:
      return "healthy";
    case SourceHealth::kSuspect:
      return "suspect";
    case SourceHealth::kQuarantined:
      return "quarantined";
    case SourceHealth::kReadmitted:
      return "readmitted";
  }
  return "unknown";
}

const char* FrontierViolationToString(FrontierViolation violation) {
  switch (violation) {
    case FrontierViolation::kPunctuationRegression:
      return "punct-regression";
    case FrontierViolation::kSkewViolation:
      return "skew-violation";
    case FrontierViolation::kTimestampDisorder:
      return "disorder";
    case FrontierViolation::kFlappingRevival:
      return "flap-revival";
    case FrontierViolation::kPeerMisbehavior:
      return "peer-misbehavior";
  }
  return "unknown";
}

const char* FrontierEventKindToString(FrontierEventKind kind) {
  switch (kind) {
    case FrontierEventKind::kStateChange:
      return "state";
    case FrontierEventKind::kLeaseExpired:
      return "lease_expired";
    case FrontierEventKind::kRevival:
      return "revival";
    case FrontierEventKind::kViolation:
      return "violation";
    case FrontierEventKind::kRevoked:
      return "revoked";
  }
  return "unknown";
}

FrontierTracker::Participant& FrontierTracker::Entry(int32_t stream_id) {
  auto it = participants_.find(stream_id);
  if (it == participants_.end()) {
    it = participants_.emplace(stream_id, Participant{}).first;
    it->second.stream_id = stream_id;
  }
  return it->second;
}

void FrontierTracker::Register(Source* source) {
  Participant& p = Entry(source->stream_id());
  p.source = source;
}

std::optional<Timestamp> FrontierTracker::ProposeEts(const Source* source,
                                                     Timestamp now) {
  ++ets_queries_;
  // The participant's promise IS the source's state — one authority, so the
  // frontier-served bound is identical to Source::ComputeEts.
  return source->ComputeEts(now);
}

Timestamp FrontierTracker::CheckpointFrontier() const {
  Timestamp trusted = kMaxTimestamp;
  Timestamp all = kMaxTimestamp;
  bool any = false;
  bool any_trusted = false;
  for (const auto& [stream, p] : participants_) {
    if (p.source == nullptr) continue;
    const Timestamp bound = p.source->promised_bound();
    any = true;
    all = std::min(all, bound);
    if (p.health != SourceHealth::kQuarantined && !p.revoked) {
      any_trusted = true;
      trusted = std::min(trusted, bound);
    }
  }
  if (any_trusted) return trusted;
  if (any) return all;
  return kMinTimestamp;
}

Timestamp FrontierTracker::GlobalFrontier() const {
  Timestamp frontier = kMaxTimestamp;
  bool any = false;
  for (const auto& [stream, p] : participants_) {
    if (p.source == nullptr) continue;
    any = true;
    frontier = std::min(frontier, p.source->promised_bound());
  }
  return any ? frontier : kMinTimestamp;
}

bool FrontierTracker::LeaseExpired(const Source* source, Timestamp now) {
  if (policy_.duration <= 0) return false;
  Participant& p = Entry(source->stream_id());
  // A source that never produced anything counts as silent since t=0.
  const Timestamp last = source->last_activity() == kMinTimestamp
                             ? 0
                             : source->last_activity();
  if (now - last < policy_.duration) {
    // The fallback punctuation the tracker itself emits refreshes the
    // source's activity stamp (it flows through the same output path as a
    // real heartbeat). Only activity strictly newer than our last
    // intervention is the producer speaking — anything at or before the
    // fire time is our own echo, not a revival.
    if (p.lease_expired_open && source->last_activity() > p.last_lease_fire) {
      // The aged-out source produced again: one death/revive cycle. Count
      // the revival and report it as flap damping — repeated cycles walk
      // the participant into quarantine instead of thrashing the frontier.
      p.lease_expired_open = false;
      ++p.revivals;
      ++revivals_;
      if (tracer_ != nullptr && p.source != nullptr) {
        tracer_->RecordFrontier(
            p.source->id(), static_cast<uint8_t>(FrontierEventKind::kRevival),
            p.stream_id);
      }
      ReportViolation(p.stream_id, FrontierViolation::kFlappingRevival);
    }
    return false;
  }
  if (p.last_lease_fire != kMinTimestamp &&
      now - p.last_lease_fire < policy_.duration) {
    return false;  // Already intervened this horizon; don't spin.
  }
  return true;
}

void FrontierTracker::NoteLeaseFire(const Source* source, Timestamp now) {
  Participant& p = Entry(source->stream_id());
  p.last_lease_fire = now;
  p.lease_expired_open = true;
  ++p.lease_expiries;
  ++lease_expiries_;
}

void FrontierTracker::NoteLeaseExpiredEts(const Source* source,
                                          Timestamp now) {
  (void)now;
  ++lease_expired_ets_;
  if (tracer_ != nullptr) {
    tracer_->RecordFrontier(
        source->id(), static_cast<uint8_t>(FrontierEventKind::kLeaseExpired),
        source->stream_id());
  }
}

void FrontierTracker::ReportViolation(int32_t stream_id,
                                      FrontierViolation violation) {
  const Timestamp now = Now();
  Participant& p = Entry(stream_id);
  ++violations_;
  ++p.violations;
  p.last_violation = now;
  if (tracer_ != nullptr && p.source != nullptr) {
    tracer_->RecordFrontier(p.source->id(),
                            static_cast<uint8_t>(FrontierEventKind::kViolation),
                            static_cast<int64_t>(violation));
  }
  ++p.strikes;
  switch (p.health) {
    case SourceHealth::kHealthy:
      if (static_cast<int>(p.strikes) >= policy_.suspect_after) {
        Transition(p, SourceHealth::kSuspect, now);
      }
      break;
    case SourceHealth::kSuspect:
      if (static_cast<int>(p.strikes) >= policy_.quarantine_after) {
        Transition(p, SourceHealth::kQuarantined, now);
      }
      break;
    case SourceHealth::kQuarantined:
      break;  // Already distrusted; the re-admission clock restarts.
    case SourceHealth::kReadmitted:
      if (static_cast<int>(p.strikes) >= policy_.probation_strike_limit) {
        Transition(p, SourceHealth::kQuarantined, now);
      }
      break;
  }
}

void FrontierTracker::ReportBenign(int32_t stream_id) {
  (void)Entry(stream_id);
  ++benign_reports_;
}

void FrontierTracker::NoteConnectionActivity(int32_t stream_id) {
  Participant& p = Entry(stream_id);
  p.revoked = false;
}

void FrontierTracker::Revoke(int32_t stream_id) {
  Participant& p = Entry(stream_id);
  if (p.revoked) return;
  p.revoked = true;
  ++revocations_;
  if (tracer_ != nullptr && p.source != nullptr) {
    tracer_->RecordFrontier(p.source->id(),
                            static_cast<uint8_t>(FrontierEventKind::kRevoked),
                            stream_id);
  }
}

void FrontierTracker::Poll(Timestamp now) {
  for (auto& [stream, p] : participants_) {
    const Timestamp since = std::max(p.state_since, p.last_violation);
    if (p.health == SourceHealth::kQuarantined) {
      if (now - since >= policy_.readmit_after) {
        Transition(p, SourceHealth::kReadmitted, now);
      }
    } else if (p.health == SourceHealth::kReadmitted) {
      if (now - since >= policy_.probation) {
        Transition(p, SourceHealth::kHealthy, now);
      }
    }
  }
}

void FrontierTracker::Transition(Participant& p, SourceHealth to,
                                 Timestamp now) {
  p.health = to;
  p.strikes = 0;
  p.state_since = now;
  ++transitions_;
  if (to == SourceHealth::kQuarantined) ++quarantines_;
  if (tracer_ != nullptr && p.source != nullptr) {
    tracer_->RecordFrontier(
        p.source->id(), static_cast<uint8_t>(FrontierEventKind::kStateChange),
        static_cast<int64_t>(to));
  }
}

const FrontierTracker::Participant* FrontierTracker::participant(
    int32_t stream_id) const {
  auto it = participants_.find(stream_id);
  return it == participants_.end() ? nullptr : &it->second;
}

SourceHealth FrontierTracker::health(int32_t stream_id) const {
  const Participant* p = participant(stream_id);
  return p == nullptr ? SourceHealth::kHealthy : p->health;
}

size_t FrontierTracker::CountInState(SourceHealth health) const {
  size_t n = 0;
  for (const auto& [stream, p] : participants_) {
    if (p.health == health) ++n;
  }
  return n;
}

void FrontierTracker::SaveState(StateWriter& w) const {
  w.U64(violations_);
  w.U64(benign_reports_);
  w.U64(ets_queries_);
  w.U64(lease_expired_ets_);
  w.U64(lease_expiries_);
  w.U64(revivals_);
  w.U64(revocations_);
  w.U64(quarantines_);
  w.U64(transitions_);
  w.U32(static_cast<uint32_t>(participants_.size()));
  for (const auto& [stream, p] : participants_) {
    w.I64(stream);
    w.U8(static_cast<uint8_t>(p.health));
    w.U32(p.strikes);
    w.U64(p.violations);
    w.Ts(p.last_violation);
    w.Ts(p.state_since);
    w.Ts(p.last_lease_fire);
    w.Bool(p.lease_expired_open);
    w.Bool(p.revoked);
    w.U64(p.lease_expiries);
    w.U64(p.revivals);
  }
}

void FrontierTracker::LoadState(StateReader& r) {
  violations_ = r.U64();
  benign_reports_ = r.U64();
  ets_queries_ = r.U64();
  lease_expired_ets_ = r.U64();
  lease_expiries_ = r.U64();
  revivals_ = r.U64();
  revocations_ = r.U64();
  quarantines_ = r.U64();
  transitions_ = r.U64();
  const uint32_t n = r.U32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    const int32_t stream = static_cast<int32_t>(r.I64());
    Participant& p = Entry(stream);
    const uint8_t health = r.U8();
    if (health > static_cast<uint8_t>(SourceHealth::kReadmitted)) {
      r.Poison();
      return;
    }
    p.health = static_cast<SourceHealth>(health);
    p.strikes = r.U32();
    p.violations = r.U64();
    p.last_violation = r.Ts();
    p.state_since = r.Ts();
    p.last_lease_fire = r.Ts();
    p.lease_expired_open = r.Bool();
    p.revoked = r.Bool();
    p.lease_expiries = r.U64();
    p.revivals = r.U64();
  }
}

void FrontierTracker::PublishTo(MetricsRegistry* registry,
                                const std::string& prefix) const {
  registry->SetGauge(prefix + ".bound",
                     static_cast<double>(GlobalFrontier()));
  registry->SetGauge(prefix + ".checkpoint_bound",
                     static_cast<double>(CheckpointFrontier()));
  registry->SetGauge(prefix + ".participants",
                     static_cast<double>(participants_.size()));
  registry->SetGauge(prefix + ".healthy",
                     static_cast<double>(CountInState(SourceHealth::kHealthy)));
  registry->SetGauge(prefix + ".suspect",
                     static_cast<double>(CountInState(SourceHealth::kSuspect)));
  registry->SetGauge(
      prefix + ".quarantined",
      static_cast<double>(CountInState(SourceHealth::kQuarantined)));
  registry->SetGauge(
      prefix + ".readmitted",
      static_cast<double>(CountInState(SourceHealth::kReadmitted)));
  registry->SetCounter(prefix + ".violations", violations_);
  registry->SetCounter(prefix + ".benign_reports", benign_reports_);
  registry->SetCounter(prefix + ".ets_queries", ets_queries_);
  registry->SetCounter(prefix + ".lease_expired_ets", lease_expired_ets_);
  registry->SetCounter(prefix + ".lease_expiries", lease_expiries_);
  registry->SetCounter(prefix + ".revivals", revivals_);
  registry->SetCounter(prefix + ".revocations", revocations_);
  registry->SetCounter(prefix + ".quarantines", quarantines_);
  registry->SetCounter(prefix + ".transitions", transitions_);
  for (const auto& [stream, p] : participants_) {
    const std::string sp = StrFormat("%s.stream.%d", prefix.c_str(), stream);
    registry->SetGauge(sp + ".state", static_cast<double>(p.health));
    registry->SetCounter(sp + ".violations", p.violations);
    registry->SetCounter(sp + ".lease_expiries", p.lease_expiries);
    registry->SetCounter(sp + ".revivals", p.revivals);
    registry->SetGauge(sp + ".revoked", p.revoked ? 1.0 : 0.0);
  }
}

}  // namespace dsms
