#include "common.h"

#include <fcntl.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace perfbench {

int64_t MonoNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

double ProcessCpuUs() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so a spawned server would report its parent's peak when that is larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

double SpeedSliceNs() {
  static uint64_t state = 88172645463325252ULL;
  const int64_t t0 = MonoNs();
  uint64_t a = state, b = state + 1, c = state + 2, d = state + 3;
  for (int i = 0; i < 400; ++i) {
    a = a * 6364136223846793005ULL + 1;
    b = b * 6364136223846793005ULL + 3;
    c = (c ^ (c >> 7)) * 0x9E3779B97F4A7C15ULL;
    d = (d ^ (d << 9)) + a;
    // One round at a time, in registers: no folding or vectorizing.
    asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d));
  }
  const int64_t t1 = MonoNs();
  state = a ^ b ^ c ^ d;
  return static_cast<double>(t1 - t0);
}

std::atomic<uint64_t>* MapProgress(const std::string& path) {
  static_assert(sizeof(std::atomic<uint64_t>) == sizeof(uint64_t));
  const int fd = open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return nullptr;
  void* p = MAP_FAILED;
  if (ftruncate(fd, sizeof(uint64_t)) == 0) {
    p = mmap(nullptr, sizeof(uint64_t), PROT_READ | PROT_WRITE, MAP_SHARED,
             fd, 0);
  }
  close(fd);
  return p == MAP_FAILED ? nullptr : static_cast<std::atomic<uint64_t>*>(p);
}

void PinToCore(int core) {
  if (core < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t TupleDigest(uint64_t h, const dsms::Tuple& tuple) {
  const int64_t ts = tuple.has_timestamp() ? tuple.timestamp() : INT64_MIN;
  h = Fnv1a(h, &ts, sizeof(ts));
  for (const dsms::Value& v : tuple.values()) {
    const auto type = static_cast<uint8_t>(v.type());
    h = Fnv1a(h, &type, 1);
    switch (v.type()) {
      case dsms::ValueType::kInt64: {
        const int64_t x = v.int64_value();
        h = Fnv1a(h, &x, sizeof(x));
        break;
      }
      case dsms::ValueType::kDouble: {
        const double x = v.double_value();
        h = Fnv1a(h, &x, sizeof(x));
        break;
      }
      case dsms::ValueType::kString:
        h = Fnv1a(h, v.string_value().data(), v.string_value().size() + 1);
        break;
      case dsms::ValueType::kBool: {
        const uint8_t x = v.bool_value();
        h = Fnv1a(h, &x, 1);
        break;
      }
    }
  }
  return h;
}

uint64_t SeqMix(uint64_t seq) {
  // splitmix64 finalizer.
  uint64_t z = seq + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(q * v->size()));
  if (rank == 0) rank = 1;
  return (*v)[std::min(rank, v->size()) - 1];
}

std::string RecordToJson(const Record& record) {
  std::string out = "{";
  bool first = true;
  char buf[64];
  for (const auto& [key, value] : record) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += "\"" + key + "\": " + buf;
  }
  return out + "}";
}

bool RecordFromJson(const std::string& text, Record* out) {
  size_t pos = text.find('{');
  if (pos == std::string::npos) return false;
  ++pos;
  while (true) {
    size_t q1 = text.find('"', pos);
    if (q1 == std::string::npos) {
      return text.find('}', pos) != std::string::npos;
    }
    size_t q2 = text.find('"', q1 + 1);
    size_t colon = text.find(':', q2);
    if (q2 == std::string::npos || colon == std::string::npos) return false;
    char* end = nullptr;
    double value = std::strtod(text.c_str() + colon + 1, &end);
    if (end == text.c_str() + colon + 1) return false;
    (*out)[text.substr(q1 + 1, q2 - q1 - 1)] = value;
    pos = static_cast<size_t>(end - text.c_str());
  }
}

namespace {

const char* const kNames[] = {"union_replay", "wal_restart", "spill_join",
                              "paced_union", "wal_resume"};

/// Seed of one plan statement, derived from the run seed.
uint64_t Derive(uint64_t seed, uint64_t salt) {
  return SeqMix(seed * 1000003ULL + salt) % 1000000000ULL + 1;
}

std::string Ms(dsms::Duration d) {
  return std::to_string(d / dsms::kMillisecond) + "ms";
}

dsms::Duration Scaled(double seconds, double scale) {
  return static_cast<dsms::Duration>(seconds * scale * 1000.0) *
         dsms::kMillisecond;
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* out) {
  for (int i = 0; i < 5; ++i) {
    if (name == kNames[i]) {
      *out = static_cast<WorkloadKind>(i);
      return true;
    }
  }
  return false;
}

// ~1.05M frames per union iteration: SENSORS 2000/s + TRADES 1500/s + four
// heartbeats a second, over a 300 s virtual horizon.
dsms::Duration Scale::union_horizon() const { return Scaled(300, scale); }
// Checkpoints land every 60 s of frontier, so a crash at 170 s leaves
// ~50 s (~175k frames) of WAL tail to replay on restart.
dsms::Duration Scale::crash_at() const { return Scaled(170, scale); }
// The horizon of examples/spill_join.plan: ~8k frames, ~215k joined
// tuples, ~70k block loads.
dsms::Duration Scale::join_horizon() const { return Scaled(20, scale); }
dsms::Duration Scale::paced_length() const { return Scaled(2.5, scale); }

std::string WorkloadPlan(WorkloadKind kind, uint64_t seed, const Scale& scale,
                         const std::string& dir) {
  std::string s;
  switch (kind) {
    case WorkloadKind::kUnionReplay:
    case WorkloadKind::kWalRestart:
    case WorkloadKind::kWalResume:
      s += "stream SENSORS ts=internal\n";
      s += "stream TRADES ts=external skew=40ms\n";
      s += "filter BIG in=TRADES selectivity=0.9 seed=" +
           std::to_string(Derive(seed, 3)) + "\n";
      s += "union U in=SENSORS,BIG\n";
      s += "sink OUT in=U\n";
      s += "feed SENSORS process=poisson rate=2000 seed=" +
           std::to_string(Derive(seed, 1)) + "\n";
      s += "feed TRADES process=poisson rate=1500 seed=" +
           std::to_string(Derive(seed, 2)) + "\n";
      s += "heartbeat TRADES period=250ms\n";
      s += "run horizon=" + Ms(scale.union_horizon()) + " ets=on-demand\n";
      if (kind != WorkloadKind::kUnionReplay) {
        s += "wal dir=" + dir + "/wal sync=interval\n";
        s += "checkpoint horizon=60s\n";
        s += "crash at=" + Ms(scale.crash_at()) + "\n";
      }
      break;
    case WorkloadKind::kSpillJoin:
      // examples/spill_join.plan with 64 keys instead of 16: at 16 keys the
      // join emits ~50k tuples per virtual second, more than the 25 us-per-
      // step cost model sustains, so its queue and latency grow for as long
      // as the run lasts. 64 keys keep it near a third of capacity.
      s += "stream ORDERS ts=internal\n";
      s += "stream QUOTES ts=internal\n";
      s += "join J in=ORDERS,QUOTES window=10s left_field=0 right_field=0\n";
      s += "sink OUT in=J\n";
      s += "feed ORDERS process=poisson rate=200 seed=" +
           std::to_string(Derive(seed, 21)) + " payload=randint lo=0 hi=64\n";
      s += "feed QUOTES process=poisson rate=200 seed=" +
           std::to_string(Derive(seed, 22)) + " payload=randint lo=0 hi=64\n";
      s += "run horizon=" + Ms(scale.join_horizon()) + " ets=on-demand\n";
      s += "state mem_budget=4k spill_dir=" + dir +
           "/spill granularity=1s\n";
      break;
    case WorkloadKind::kPacedUnion:
      // No feed statements: the paced generator in drive.cc makes the frames.
      s += "stream DENSE ts=internal\n";
      s += "stream SPARSE ts=internal\n";
      s += "filter F in=DENSE field=2 op=lt value=" +
           std::to_string(kPacedPassBelow) + "\n";
      s += "union U in=F,SPARSE\n";
      s += "sink OUT in=U\n";
      s += "run horizon=36000s ets=on-demand\n";
      break;
  }
  return s;
}

}  // namespace perfbench
