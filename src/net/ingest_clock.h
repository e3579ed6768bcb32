#ifndef DSMS_NET_INGEST_CLOCK_H_
#define DSMS_NET_INGEST_CLOCK_H_

#include <chrono>
#include <optional>

#include "common/clock.h"
#include "common/time.h"

namespace dsms {

/// Bridges arrival instants onto the executor's virtual timeline. The whole
/// engine — cost model, ETS bounds, the frontier lease — runs on
/// VirtualClock; a network server must decide what makes that clock advance
/// between frames:
///
///  - kWallClock: virtual time tracks real elapsed time since Start(). A
///    genuinely silent connection lets wall time carry the virtual clock
///    past a source's lease, so fallback ETS fire for real dead producers —
///    the production mode.
///
///  - kFrameDriven: virtual time advances only through frame arrival hints
///    (WireFrame::arrival_hint) and executor step costs, exactly like the
///    discrete-event Simulation. Fully deterministic: the same frame
///    sequence always produces the same run, which is what the loopback
///    equivalence tests assert.
///
/// In both modes virtual time is monotone: executor steps may push it ahead
/// of the wall mapping (a busy engine services its sockets late, same as the
/// simulation's delayed deliveries), and the bridge never rewinds.
class IngestClock {
 public:
  enum class Mode { kWallClock = 0, kFrameDriven = 1 };

  /// `clock` is the executor's clock, shared, not owned.
  IngestClock(VirtualClock* clock, Mode mode) : clock_(clock), mode_(mode) {}

  Mode mode() const { return mode_; }

  /// Pins the wall epoch: wall "now" maps to the current virtual time.
  /// Call once, immediately before serving starts.
  void Start() {
    epoch_ = std::chrono::steady_clock::now();
    epoch_virtual_ = clock_->now();
    started_ = true;
  }
  bool started() const { return started_; }

  /// Virtual delivery time for a frame arriving now. Wall mode ignores the
  /// hint (arrival is when the bytes landed); frame-driven mode advances to
  /// the hint (hints from a connection are nondecreasing by construction —
  /// a regressing hint simply delivers "late", at the current clock).
  Timestamp OnFrameArrival(std::optional<Timestamp> hint) {
    if (mode_ == Mode::kWallClock) return Tick();
    if (hint.has_value() && *hint > clock_->now()) clock_->AdvanceTo(*hint);
    return clock_->now();
  }

  /// Wall mode: folds real elapsed time into the virtual clock (called on
  /// every poll wakeup, so silence makes virtual time pass). Frame-driven
  /// mode: no-op. Returns the current virtual time.
  Timestamp Tick() {
    if (mode_ == Mode::kWallClock && started_) {
      auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_);
      Timestamp wall = epoch_virtual_ + static_cast<Timestamp>(
                                            elapsed.count());
      if (wall > clock_->now()) clock_->AdvanceTo(wall);
    }
    return clock_->now();
  }

  Timestamp now() const { return clock_->now(); }

 private:
  VirtualClock* clock_;
  Mode mode_;
  bool started_ = false;
  std::chrono::steady_clock::time_point epoch_{};
  Timestamp epoch_virtual_ = 0;
};

}  // namespace dsms

#endif  // DSMS_NET_INGEST_CLOCK_H_
