#ifndef DSMS_FRONTIER_FRONTIER_TRACKER_H_
#define DSMS_FRONTIER_FRONTIER_TRACKER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common/clock.h"
#include "common/time.h"

namespace dsms {

class MetricsRegistry;
class Source;
class StateReader;
class StateWriter;
class Tracer;

/// Health lifecycle of a frontier participant. Transitions are driven by the
/// centralized validation point (ReportViolation) and by elapsed clean time
/// (Poll); the hysteresis thresholds live in LeasePolicy. A participant's
/// health never changes what the executor does with its tuples — it changes
/// what the engine *trusts*: quarantined promises are excluded from the
/// checkpoint frontier and surfaced in frontier.* metrics.
enum class SourceHealth : uint8_t {
  kHealthy = 0,
  /// Accumulated violations, not yet enough to distrust the stream.
  kSuspect = 1,
  /// The stream lied (regressed punctuation, broke its skew contract) or
  /// flapped repeatedly; its promise no longer holds the frontier back.
  kQuarantined = 2,
  /// Probation after a clean quarantine window: trusted again, but a single
  /// further violation re-quarantines immediately (hysteresis).
  kReadmitted = 3,
};

const char* SourceHealthToString(SourceHealth health);

/// What the validation point was told about a participant.
enum class FrontierViolation : uint8_t {
  /// A punctuation carried a bound below the stream's standing promise.
  kPunctuationRegression = 0,
  /// An external tuple's app timestamp lagged the wall clock beyond the
  /// declared δ, invalidating every bound derived from the skew contract.
  kSkewViolation = 1,
  /// A tuple's timestamp moved backwards past the promise (disorder).
  kTimestampDisorder = 2,
  /// The source went silent past its lease, was aged out, then came back —
  /// one death/revive cycle of a flapping producer.
  kFlappingRevival = 3,
  /// Wire-level misbehavior by the peer feeding the stream: a stale resume
  /// token replayed after the server advanced its durable watermark, or a
  /// slow-drip connection that fell below the ingest byte-rate floor.
  kPeerMisbehavior = 4,
};

const char* FrontierViolationToString(FrontierViolation violation);

/// Payload tags of kFrontier trace events (TraceEvent::detail).
enum class FrontierEventKind : uint8_t {
  /// Participant changed health state; arg = new SourceHealth.
  kStateChange = 0,
  /// Lease expired and a fallback ETS aged the promise out; arg = stream id.
  kLeaseExpired = 1,
  /// A previously aged-out source produced again; arg = stream id.
  kRevival = 2,
  /// Validation point recorded a violation; arg = FrontierViolation.
  kViolation = 3,
  /// A connection dropped and its stream's promise was revoked; arg =
  /// stream id.
  kRevoked = 4,
};

const char* FrontierEventKindToString(FrontierEventKind kind);

/// Lease and lifecycle configuration of the frontier tracker. The defaults
/// keep every mechanism off or forgiving.
struct LeasePolicy {
  /// Virtual time a participant's promise stays trusted without renewal
  /// (data, heartbeat, or punctuation activity renews it). When the lease
  /// expires the tracker ages the promise out via a fallback ETS so the
  /// global frontier advances without the silent source. 0 = leases never
  /// expire.
  Duration duration = 0;
  /// Violations that move a healthy participant to kSuspect.
  int suspect_after = 1;
  /// Further violations that move a suspect to kQuarantined.
  int quarantine_after = 3;
  /// Clean virtual time in quarantine before probation (kReadmitted).
  Duration readmit_after = 20 * kSecond;
  /// Clean probation time before full re-admission (kHealthy).
  Duration probation = 20 * kSecond;
  /// Violations on probation that re-quarantine immediately.
  int probation_strike_limit = 1;
};

/// Central frontier authority: every source (and, through it, every ingest
/// connection) is a participant publishing a promised timestamp lower bound
/// (Source::promised_bound) under a renewable lease. The tracker is the one
/// place that:
///
///  - answers frontier queries: ProposeEts (the on-demand ETS bound the
///    EtsGate asks for) and CheckpointFrontier (the punctuation-aligned
///    checkpoint bound, excluding quarantined/revoked promises);
///  - ages out silent participants: LeaseExpired/NoteLeaseFire decide when
///    a source silent past its lease gets a fallback ETS, at most once per
///    lease duration per source;
///  - validates behavior: ReportViolation is the single funnel for
///    punctuation regressions, skew violations, disorder, and flapping,
///    driving the healthy → suspect → quarantined → re-admitted lifecycle
///    with hysteresis (Poll advances the time-based transitions).
///
/// Determinism: promises and activity are *pulled* from the Source (zero
/// healthy-path overhead); only violations are *pushed*, and healthy sources
/// never take those paths. Lifecycle state influences metrics, traces, and
/// the checkpoint frontier — never which tuples move — so runs with and
/// without misbehaving-source bookkeeping stay trace-equivalent.
class FrontierTracker {
 public:
  struct Participant {
    Source* source = nullptr;  // Null only for state restored pre-register.
    int32_t stream_id = 0;
    SourceHealth health = SourceHealth::kHealthy;
    /// Violations accumulated in the current state (reset on transition).
    uint32_t strikes = 0;
    uint64_t violations = 0;
    Timestamp last_violation = kMinTimestamp;
    /// When the current health state was entered.
    Timestamp state_since = 0;
    /// Last lease-expiry intervention (refire throttle), kMinTimestamp if
    /// never.
    Timestamp last_lease_fire = kMinTimestamp;
    /// True between a lease expiry and the source's next sign of life; the
    /// transition back to false is one revival (flap detection).
    bool lease_expired_open = false;
    /// A connection feeding this stream dropped; the promise no longer
    /// holds the checkpoint frontier back. Cleared by new activity.
    bool revoked = false;
    uint64_t lease_expiries = 0;
    uint64_t revivals = 0;
  };

  FrontierTracker() = default;

  FrontierTracker(const FrontierTracker&) = delete;
  FrontierTracker& operator=(const FrontierTracker&) = delete;

  void set_policy(const LeasePolicy& policy) { policy_ = policy; }
  const LeasePolicy& policy() const { return policy_; }
  /// kFrontier trace events; null = off (the default).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  /// Clock stamping lifecycle times for push-style reports (violations
  /// arrive without an explicit `now`); must outlive the tracker.
  void set_clock(const VirtualClock* clock) { clock_ = clock; }

  /// Registers `source` as a participant (idempotent; keyed by stream id).
  /// Does not take ownership; the source must outlive the tracker or be
  /// detached via Source::set_frontier(nullptr) first.
  void Register(Source* source);

  // --- frontier queries ---

  /// The on-demand ETS bound the participant can promise right now —
  /// exactly Source::ComputeEts, served centrally so ETS generation is a
  /// frontier query rather than a DFS side effect.
  std::optional<Timestamp> ProposeEts(const Source* source, Timestamp now);

  /// Minimum promised bound over participants whose promise is still
  /// trusted (not quarantined, not revoked) — what a punctuation-aligned
  /// checkpoint may rely on. Falls back to the minimum over all
  /// participants when none are trusted; kMinTimestamp with no
  /// participants. Never regresses relative to earlier calls' inputs since
  /// promises are monotone.
  Timestamp CheckpointFrontier() const;

  /// Minimum promised bound over all participants (metrics view).
  Timestamp GlobalFrontier() const;

  // --- leases ---

  /// True when `source`'s lease has expired at `now`: it has been silent
  /// for at least the lease duration and no intervention fired within the
  /// current horizon. As a side effect, detects revivals: a source seen
  /// active again after an expiry is counted (and, as flap damping,
  /// reported to the validation point).
  bool LeaseExpired(const Source* source, Timestamp now);

  /// Records a lease-expiry intervention at `now` (refire throttle),
  /// whether or not the fallback ETS ends up emitted.
  void NoteLeaseFire(const Source* source, Timestamp now);

  /// A fallback ETS actually aged the participant's promise out.
  void NoteLeaseExpiredEts(const Source* source, Timestamp now);

  // --- centralized validation ---

  /// The one funnel for misbehavior. Advances the participant's lifecycle
  /// per the hysteresis thresholds and records a kFrontier trace event.
  void ReportViolation(int32_t stream_id, FrontierViolation violation);

  /// A benign oddity (duplicate punctuation restating the promise):
  /// counted, never a strike.
  void ReportBenign(int32_t stream_id);

  // --- connection participation (net/ingest_server) ---

  /// A live connection delivered a frame for `stream_id`; reinstates a
  /// revoked promise (reconnect).
  void NoteConnectionActivity(int32_t stream_id);

  /// The connection feeding `stream_id` dropped: its promise is revoked
  /// and no longer holds the checkpoint frontier back.
  void Revoke(int32_t stream_id);

  /// Advances the time-based lifecycle transitions (quarantine →
  /// re-admission after a clean window, probation → healthy). Safe to call
  /// from any idle point; bookkeeping only.
  void Poll(Timestamp now);

  // --- inspection ---

  const Participant* participant(int32_t stream_id) const;
  SourceHealth health(int32_t stream_id) const;
  size_t num_participants() const { return participants_.size(); }
  size_t CountInState(SourceHealth health) const;

  uint64_t violations() const { return violations_; }
  uint64_t benign_reports() const { return benign_reports_; }
  uint64_t ets_queries() const { return ets_queries_; }
  /// Fallback ETS emitted on lease expiry (equals
  /// ExecStats::lease_expired_ets).
  uint64_t lease_expired_ets() const { return lease_expired_ets_; }
  uint64_t lease_expiries() const { return lease_expiries_; }
  uint64_t revivals() const { return revivals_; }
  uint64_t revocations() const { return revocations_; }
  /// Lifetime count of transitions into kQuarantined.
  uint64_t quarantines() const { return quarantines_; }
  uint64_t transitions() const { return transitions_; }

  /// Checkpoint support: lifecycle state and counters, so a restart
  /// restores quarantine decisions instead of re-trusting a known liar.
  /// LoadState merges by stream id into the registered participants.
  void SaveState(StateWriter& w) const;
  void LoadState(StateReader& r);

  /// Publishes frontier.* metrics under `prefix`: the global and
  /// checkpoint frontiers, per-state participant counts, violation and
  /// lease counters, and per-stream state gauges.
  void PublishTo(MetricsRegistry* registry, const std::string& prefix) const;

 private:
  Participant& Entry(int32_t stream_id);
  void Transition(Participant& p, SourceHealth to, Timestamp now);
  Timestamp Now() const { return clock_ != nullptr ? clock_->now() : 0; }

  LeasePolicy policy_;
  Tracer* tracer_ = nullptr;
  const VirtualClock* clock_ = nullptr;
  std::map<int32_t, Participant> participants_;

  uint64_t violations_ = 0;
  uint64_t benign_reports_ = 0;
  uint64_t ets_queries_ = 0;
  uint64_t lease_expired_ets_ = 0;
  uint64_t lease_expiries_ = 0;
  uint64_t revivals_ = 0;
  uint64_t revocations_ = 0;
  uint64_t quarantines_ = 0;
  uint64_t transitions_ = 0;
};

}  // namespace dsms

#endif  // DSMS_FRONTIER_FRONTIER_TRACKER_H_
