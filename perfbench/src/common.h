// Shared helpers of the live-path benchmark: clocks, core pinning,
// digests, the record format `perfbench drive` and its server child
// exchange, and the plans of the five workloads.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.h"
#include "core/tuple.h"

namespace perfbench {

/// CLOCK_MONOTONIC nanoseconds. `perfbench drive` and the server child are
/// separate processes; both read this system-wide clock, so a due time or
/// send time written by one is comparable with an emission time read by
/// the other.
int64_t MonoNs();

/// CPU time (user + sys) of the calling process, in microseconds.
double ProcessCpuUs();
/// Peak resident set of the calling process since its exec, in MiB.
double PeakRssMb();

/// Wall time, in nanoseconds, of one fixed slice of integer work: four
/// independent multiply chains, 400 rounds. The server times one between
/// emissions; their median over an iteration tracks how fast the host ran
/// that core meanwhile, independent of the engine's code. A slice that
/// keeps several execution units busy slows down as the workloads do when
/// another tenant shares the physical core: per iteration, server CPU per
/// frame followed it with correlation 0.90-0.93 and log-log slope
/// 0.7-1.3, where a single dependent chain only reached slope 2-3.5.
double SpeedSliceNs();

/// SpeedSliceNs() on the reference host (4-vCPU KVM guest, Intel Xeon):
/// the end-to-end times are stated at this speed, scaled by
/// kRefSliceNs / (the iteration's median slice).
inline constexpr double kRefSliceNs = 950.0;

/// Maps the 8-byte counter file at `path`, creating it as zero when absent;
/// nullptr on failure. `perfbench drive` and its server child both map it:
/// the server stores the frames its Run has ingested, and the replay
/// generator keeps at most kWindowFrames frames sent beyond that count.
/// The mapping lives until the process exits.
std::atomic<uint64_t>* MapProgress(const std::string& path);

/// Without this window the server's socket reader drains the socket for as
/// long as the generator keeps it full, so how much of a blast it buffered
/// (30 to 145 MB) depended on a race, and so did its peak RSS. 64k frames
/// cover ~0.15 s of the union's ingest.
inline constexpr uint64_t kWindowFrames = 1 << 16;

/// Pins the calling thread to `core`; a negative core leaves it unpinned.
void PinToCore(int core);

/// FNV-1a 64 over `data`, continuing from `h`.
uint64_t Fnv1a(uint64_t h, const void* data, size_t size);
inline constexpr uint64_t kFnvOffset = 1469598103934665603ULL;

/// Folds one delivered tuple into an output digest: FNV-1a over its
/// timestamp and each value's type and raw bytes. It sees what
/// Tuple::ToString() prints, at a fraction of the cost, so the digest adds
/// little to the sink's measured work.
uint64_t TupleDigest(uint64_t h, const dsms::Tuple& tuple);

/// Order-independent hash of one sequence number (summed over a set, it
/// identifies the set).
uint64_t SeqMix(uint64_t seq);

/// Nearest-rank `q` quantile of `v` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* v, double q);

/// A flat key -> number record: the server child's RESULT line and the
/// per-iteration sample of `perfbench drive` both use it.
using Record = std::map<std::string, double>;
std::string RecordToJson(const Record& record);
/// Parses `{"k": number, ...}` as RecordToJson writes it.
bool RecordFromJson(const std::string& text, Record* out);

enum class WorkloadKind {
  kUnionReplay,
  kWalRestart,
  kSpillJoin,
  kPacedUnion,
  kWalResume,
};

bool ParseWorkload(const std::string& name, WorkloadKind* out);

/// Size knobs of one run. `scale` shrinks every schedule (the self-test
/// uses a small one); 1.0 is the benchmark.
struct Scale {
  double scale = 1.0;
  dsms::Duration union_horizon() const;   // union_replay / wal_restart
  dsms::Duration crash_at() const;        // wal_restart / wal_resume
  dsms::Duration join_horizon() const;    // spill_join
  dsms::Duration paced_length() const;    // paced_union, one iteration
};

/// Experiment text of a workload, with every feed and filter seed derived
/// from `seed`. `dir` is the run's work directory (WAL, spill files).
std::string WorkloadPlan(WorkloadKind kind, uint64_t seed, const Scale& scale,
                         const std::string& dir);

/// `perfbench serve ...`: the server child (serve.cc).
int ServeMain(int argc, char** argv);
/// `perfbench drive ...`: the generator and orchestrator (drive.cc).
int DriveMain(int argc, char** argv);

/// Offered rates of paced_union (frames per second).
inline constexpr double kPacedDenseRate = 30000.0;
inline constexpr double kPacedSparseRate = 5.0;
/// A dense frame passes the filter when its key (value 2) is below this,
/// out of keys 0..9.
inline constexpr int64_t kPacedPassBelow = 7;

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
