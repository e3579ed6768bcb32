// The generator and orchestrator side of the benchmark: makes one
// workload's inputs from the seed, launches a server child per iteration
// (pinned to its own core), feeds it over one loopback connection from a
// generator pinned to another, checks every output, and prints one
// `ITER {json}` line per iteration and a final `RUN {json}` line. run.py
// turns those into the benchmark's result.
//
// Replay workloads (union_replay, wal_restart, wal_resume, spill_join)
// blast a precomputed BuildFeedSchedule in frame-driven clock mode, batched
// into 64 KiB writes as FeedClient::Send does. paced_union sends one frame
// per write at Poisson due times in wall-clock mode (an open loop): each
// frame carries its due time, and latency runs from it to the sink.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "net/feed_client.h"
#include "net/feed_schedule.h"
#include "net/wire_format.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "recovery/wal.h"
#include "sim/experiment_spec.h"
#include "storage/block_file.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dsms::Result;
using dsms::Status;

struct DriveArgs {
  WorkloadKind workload = WorkloadKind::kUnionReplay;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Scale scale;
  std::string dir;
  int serve_core = -1;
  int gen_core = -1;
};

/// Measured iterations a run takes at least, however short --seconds is.
constexpr int kMinIterations = 3;

/// Server children not yet reaped; Die stops them, since std::exit runs no
/// ServerChild destructors.
std::vector<pid_t> g_live_children;

/// Frames the current frame-driven server has ingested (common.h).
std::atomic<uint64_t>* g_progress = nullptr;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench drive: %s\n", what.c_str());
  for (pid_t pid : g_live_children) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  std::exit(1);
}

void Reaped(pid_t pid) {
  g_live_children.erase(
      std::remove(g_live_children.begin(), g_live_children.end(), pid),
      g_live_children.end());
}

std::string SelfExe() {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) Die("cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return buf;
}

/// One server child: spawned from this binary (`perfbench serve`), so it
/// starts from a fresh address space and its peak RSS is its own.
class ServerChild {
 public:
  ServerChild() = default;
  ~ServerChild() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      Reaped(pid_);
    }
    if (fd_ >= 0) close(fd_);
  }
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;

  void Launch(const std::vector<std::string>& args) {
    int pipefd[2];
    if (pipe2(pipefd, O_CLOEXEC) != 0) Die("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, pipefd[1], STDOUT_FILENO);
    std::vector<char*> argv;
    for (const std::string& s : args) {
      argv.push_back(const_cast<char*>(s.c_str()));
    }
    argv.push_back(nullptr);
    // The previous server's count must not open the next one's window.
    g_progress->store(0);
    launch_ns_ = MonoNs();
    if (posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ) !=
        0) {
      Die("posix_spawn failed");
    }
    g_live_children.push_back(pid_);
    posix_spawn_file_actions_destroy(&actions);
    close(pipefd[1]);
    fd_ = pipefd[0];
  }

  /// Next line from the child's stdout; false on EOF or after `timeout_s`.
  bool ReadLine(std::string* line, double timeout_s) {
    const int64_t deadline = MonoNs() + static_cast<int64_t>(timeout_s * 1e9);
    while (true) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      const int64_t left_ms = (deadline - MonoNs()) / 1000000;
      if (left_ms <= 0) return false;
      pollfd p{fd_, POLLIN, 0};
      if (poll(&p, 1, static_cast<int>(left_ms)) <= 0) continue;
      char buf[65536];
      ssize_t n = read(fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      buffer_.append(buf, static_cast<size_t>(n));
    }
  }

  /// Waits for `READY <port>`; returns the setup time in seconds.
  double WaitReady(uint16_t* port) {
    std::string line;
    while (ReadLine(&line, 60)) {
      if (line.rfind("READY ", 0) == 0) {
        *port = static_cast<uint16_t>(std::atoi(line.c_str() + 6));
        return static_cast<double>(MonoNs() - launch_ns_) / 1e9;
      }
    }
    Die("server child never became ready");
  }

  /// Waits for the RESULT line and the exit; false if the child died
  /// without one (the scheduled crash of wal_restart's first server).
  bool WaitResult(Record* r, int* exit_code) {
    std::string line;
    bool got = false;
    while (ReadLine(&line, 150)) {
      if (line.rfind("RESULT ", 0) == 0) {
        got = RecordFromJson(line.substr(7), r);
        break;
      }
    }
    int status = 0;
    waitpid(pid_, &status, 0);
    Reaped(pid_);
    pid_ = -1;
    *exit_code =
        WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    return got;
  }

  void Terminate() {
    if (pid_ > 0) kill(pid_, SIGTERM);
  }

 private:
  pid_t pid_ = -1;
  int fd_ = -1;
  int64_t launch_ns_ = 0;
  std::string buffer_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  out << data;
  if (!out) Die("cannot write " + path);
}

uint64_t HashBytes(const std::string& s) {
  return Fnv1a(kFnvOffset, s.data(), s.size());
}

uint64_t Digest(const Record& r) {
  return (static_cast<uint64_t>(r.at("digest_hi")) << 32) |
         static_cast<uint64_t>(r.at("digest_lo"));
}

dsms::Experiment ParseOrDie(const std::string& plan, bool require_feeds) {
  Result<dsms::Experiment> e = dsms::ParseExperiment(plan, require_feeds);
  if (!e.ok()) Die("plan: " + e.status().ToString());
  return std::move(*e);
}

/// A replay schedule pre-encoded into wire bytes, so the generator only
/// copies and writes.
struct EncodedSchedule {
  std::string wire;
  std::vector<size_t> offset;  // frame i spans [offset[i], offset[i+1])
  std::vector<dsms::Timestamp> time;
  std::vector<int32_t> stream;
  size_t size() const { return time.size(); }
};

EncodedSchedule Encode(const std::vector<dsms::ScheduledFrame>& schedule) {
  EncodedSchedule out;
  for (const dsms::ScheduledFrame& f : schedule) {
    out.offset.push_back(out.wire.size());
    Status s = dsms::EncodeFrame(f.frame, &out.wire);
    if (!s.ok()) Die("encode: " + s.ToString());
    out.time.push_back(f.time);
    out.stream.push_back(f.frame.stream_id);
  }
  out.offset.push_back(out.wire.size());
  return out;
}

dsms::FeedClient MakeClient(uint16_t port, bool resume) {
  dsms::FeedClientOptions o;
  o.port = port;
  o.resume = resume;
  o.max_retries = 20;
  o.backoff_base = 20 * dsms::kMillisecond;
  o.backoff_max = 200 * dsms::kMillisecond;
  return dsms::FeedClient(o);
}

/// Waits until sending through frame `through` keeps at most
/// kWindowFrames frames beyond what the server has ingested. False after
/// 30 s without progress: the server died or stalled.
bool WaitForWindow(uint64_t through) {
  uint64_t seen = g_progress->load(std::memory_order_relaxed);
  int64_t since = MonoNs();
  while (through > seen + kWindowFrames) {
    usleep(50);
    const uint64_t now = g_progress->load(std::memory_order_relaxed);
    if (now != seen) {
      seen = now;
      since = MonoNs();
    } else if (MonoNs() - since > 30 * 1000000000LL) {
      return false;
    }
  }
  return true;
}

/// Blasts the frames of `sched` whose `include` flag is set, in 64 KiB
/// writes, within the window when `windowed`. Returns the frames sent;
/// stops early, without failing, when the server goes away.
uint64_t Blast(dsms::FeedClient* client, const EncodedSchedule& sched,
               const std::vector<uint8_t>& include, bool windowed,
               int64_t* first_send_ns) {
  std::string batch;
  uint64_t sent = 0, in_batch = 0;
  *first_send_ns = 0;
  for (size_t i = 0; i < sched.size(); ++i) {
    if (!include[i]) continue;
    batch.append(sched.wire, sched.offset[i],
                 sched.offset[i + 1] - sched.offset[i]);
    ++in_batch;
    if (batch.size() < 64 * 1024 && i + 1 < sched.size()) continue;
    if (windowed && !WaitForWindow(sent + in_batch)) return sent;
    if (*first_send_ns == 0) *first_send_ns = MonoNs();
    if (!client->SendBytes(batch).ok()) return sent;
    sent += in_batch;
    in_batch = 0;
    batch.clear();
  }
  if (!batch.empty() && (!windowed || WaitForWindow(sent + in_batch)) &&
      client->SendBytes(batch).ok()) {
    sent += in_batch;
  }
  return sent;
}

/// The latency samples (ms) a server child wrote.
std::vector<double> ReadSamples(const std::string& path) {
  std::string raw = ReadFile(path);
  std::vector<double> v(raw.size() / sizeof(double));
  std::memcpy(v.data(), raw.data(), v.size() * sizeof(double));
  return v;
}

/// Server-side failure counters that must stay zero in every iteration.
double ServerFailures(const Record& r) {
  double f = 0;
  for (const char* key :
       {"decode_errors", "resume_rejects", "admission_rejects", "order_breaks",
        "degraded_shed_frames", "protocol_errors", "shed_tuples",
        "order_dropped", "quarantined"}) {
    auto it = r.find(key);
    if (it != r.end()) f += it->second;
  }
  return f;
}

std::vector<std::string> ServeArgv(const DriveArgs& a, const std::string& plan,
                                   bool frame_clock, bool traced,
                                   const std::string& samples, bool no_crash,
                                   bool unlimited = false,
                                   bool stop_at_idle = false) {
  std::vector<std::string> v = {SelfExe(), "serve",
                                "--plan", plan,
                                "--clock", frame_clock ? "frame" : "wall",
                                "--core", std::to_string(a.serve_core),
                                "--trace", traced ? "1" : "0"};
  // Frame-driven servers are blasted, within the window.
  if (frame_clock) {
    v.push_back("--progress");
    v.push_back(a.dir + "/progress");
  }
  if (!samples.empty()) {
    v.push_back("--samples");
    v.push_back(samples);
  }
  if (no_crash) v.push_back("--no-crash");
  if (unlimited) v.push_back("--unlimited");
  if (stop_at_idle) v.push_back("--stop-at-idle");
  return v;
}

/// Reference output of a replay plan: one frame-driven server fed the
/// schedule by FeedClient::Send, the path `streamets_feed` takes (the timed
/// iterations use the benchmark's own batched writer). `unlimited` runs
/// the state store without a memory budget. For a plan with a WAL the
/// server runs uninterrupted (no crash), the reference is the hash of the
/// sink file it writes, and `sink` receives that file. `frames` receives
/// the frames the server took: the run ends when the engine's virtual
/// clock reaches the horizon, so a frame due just before it may arrive
/// after the clock has passed it.
uint64_t ReferenceDigest(const DriveArgs& a, const std::string& plan_path,
                         bool unlimited, uint64_t* frames, std::string* sink) {
  dsms::Experiment e = ParseOrDie(ReadFile(plan_path), true);
  Result<std::vector<dsms::ScheduledFrame>> schedule =
      dsms::BuildFeedSchedule(e, e.run.horizon);
  if (!schedule.ok()) Die("schedule: " + schedule.status().ToString());
  fs::remove_all(a.dir + "/spill");
  fs::remove_all(a.dir + "/wal");
  ServerChild child;
  child.Launch(ServeArgv(a, plan_path, true, false, "", /*no_crash=*/true,
                         unlimited));
  uint16_t port = 0;
  child.WaitReady(&port);
  dsms::FeedClient client = MakeClient(port, false);
  if (!client.Connect().ok() || !client.Send(*schedule).ok()) {
    Die("reference feed failed");
  }
  client.Close();
  Record r;
  int code = 0;
  if (!child.WaitResult(&r, &code) || code != 0) Die("reference server failed");
  if (ServerFailures(r) != 0) Die("reference run reported failures");
  *frames = static_cast<uint64_t>(r["frames"]);
  if (!e.recovery.wal) return Digest(r);
  *sink = ReadFile(a.dir + "/wal/sink-OUT.out");
  return HashBytes(*sink);
}

/// The fields every iteration reports, from the server's RESULT record
/// `r`: rates over the frames Run took, wall time from the first frame
/// sent to the last tuple emitted. The times are stated at the reference
/// host speed (common.h); the measured ones stay under `raw.`. A paced
/// iteration's rate is the offered rate and is not scaled.
void FillIteration(const Record& r, int iter, bool traced, bool paced,
                   uint64_t sent, int64_t first_send_ns,
                   const std::string& samples, Record* it) {
  const double frames = r.at("frames");
  (*it)["iteration"] = iter;
  (*it)["traced"] = traced;
  (*it)["attempted"] = static_cast<double>(sent);
  const double wall_s =
      (r.at("last_emit_ns") - static_cast<double>(first_send_ns)) / 1e9;
  const double slowdown = r.at("host_slice_ns") / kRefSliceNs;
  (*it)["host_slice_ns"] = r.at("host_slice_ns");
  (*it)["raw.frames_per_s"] = frames / wall_s;
  (*it)["raw.cpu_us_per_frame"] = r.at("cpu_us") / frames;
  (*it)["raw.setup_s"] = it->at("setup_s");
  (*it)["frames_per_s"] = frames / wall_s * (paced ? 1.0 : slowdown);
  (*it)["cpu_us_per_frame"] = r.at("cpu_us") / frames / slowdown;
  (*it)["setup_s"] = it->at("setup_s") / slowdown;
  (*it)["peak_rss_mb"] = r.at("rss_mb");
  (*it)["peak_queue_tuples"] = r.at("peak_queue");
  std::vector<double> lat = ReadSamples(samples);
  (*it)["lat_samples"] = static_cast<double>(lat.size());
  (*it)["lat_p50_ms"] = Percentile(&lat, 0.50);
  (*it)["lat_p99_ms"] = Percentile(&lat, 0.99);
  for (const auto& [k, v] : r) (*it)["srv." + k] = v;
}

std::string SamplesPath(const DriveArgs& a, int iter) {
  return a.dir + "/samples-" + std::to_string(iter) + ".bin";
}

// ---------------------------------------------------------------- replay

struct ReplayRun {
  std::string plan_path;
  EncodedSchedule sched;
  uint64_t reference = 0;
  /// Frames of the schedule the reference server did not take: they came
  /// due after its clock reached the horizon.
  uint64_t horizon_cut = 0;
  /// WAL workloads: the reference's sink file; the frames a crashing
  /// server is sent (those due up to a second past the crash, so its clock
  /// reaches the crash instant with frames still queued) and how many of
  /// them it takes before it crashes.
  std::string reference_sink;
  std::vector<uint8_t> to_crash;
  uint64_t crash_frames = 0;
};

/// One union_replay / spill_join iteration.
Record ReplayIteration(const DriveArgs& a, const ReplayRun& run, bool traced,
                       int iter) {
  Record it;
  const std::string samples = SamplesPath(a, iter);
  fs::remove_all(a.dir + "/spill");
  ServerChild child;
  child.Launch(ServeArgv(a, run.plan_path, true, traced, samples, false));
  uint16_t port = 0;
  it["setup_s"] = child.WaitReady(&port);
  dsms::FeedClient client = MakeClient(port, false);
  if (!client.Connect().ok()) Die("connect failed");
  int64_t first_send = 0;
  const uint64_t sent = Blast(&client, run.sched,
                              std::vector<uint8_t>(run.sched.size(), 1),
                              /*windowed=*/true, &first_send);
  client.Close();
  Record r;
  int code = 0;
  if (!child.WaitResult(&r, &code) || code != 0) {
    Die("server iteration failed, exit " + std::to_string(code));
  }
  FillIteration(r, iter, traced, false, sent, first_send, samples, &it);
  const bool digest_ok = Digest(r) == run.reference;
  it["digest_ok"] = digest_ok;
  // Taking more or fewer frames than the reference took is a failure.
  it["failed"] =
      ServerFailures(r) +
      std::abs(static_cast<double>(run.sched.size() - run.horizon_cut) -
               r["frames"]) +
      (digest_ok ? 0 : 1);
  return it;
}

// ------------------------------------------------ wal_restart, wal_resume

std::string CrashedWalDir(const DriveArgs& a) { return a.dir + "/wal-crashed"; }

struct Crash {
  Record r;  // the server's RESULT, reported just before it crashed
  uint64_t sent = 0;
  int64_t first_send = 0;
};

/// The writing half of the WAL workloads: a fresh server takes the
/// schedule, within the window, until its scheduled crash (exit 137). Its
/// recovery directory is left in a.dir/wal.
Crash CrashServer(const DriveArgs& a, const ReplayRun& run, bool traced,
                  const std::string& samples) {
  fs::remove_all(a.dir + "/wal");
  ServerChild child;
  child.Launch(ServeArgv(a, run.plan_path, true, traced, samples, false));
  uint16_t port = 0;
  child.WaitReady(&port);
  dsms::FeedClient client = MakeClient(port, true);
  if (!client.Connect().ok() || !client.Handshake().ok()) {
    Die("crashing server: connect failed");
  }
  Crash c;
  c.sent = Blast(&client, run.sched, run.to_crash, /*windowed=*/true,
                 &c.first_send);
  client.Close();
  int code = 0;
  if (!child.WaitResult(&c.r, &code) || code != 137) {
    Die("server did not crash as scheduled, exit " + std::to_string(code));
  }
  return c;
}

/// Byte length of the first `lines` lines of a sink file; npos when it
/// has fewer.
size_t LinesPrefix(const std::string& sink, uint64_t lines) {
  size_t pos = 0;
  for (uint64_t i = 0; i < lines; ++i) {
    const size_t nl = sink.find('\n', pos);
    if (nl == std::string::npos) return std::string::npos;
    pos = nl + 1;
  }
  return pos;
}

/// One wal_restart iteration. The timed writer takes the blast with the
/// WAL on (append, interval syncs, checkpoints) until its crash; its rates
/// are the iteration's. Then a server restarts from its directory: restore
/// and WAL-tail replay run before READY, inside setup_s. It is sent no
/// frame: it finishes the replayed work, stops at its first idle return
/// and writes its final checkpoint. Exactly-once: its sink file must be a
/// byte-for-byte prefix of the uninterrupted run's, holding at least every
/// tuple the writer emitted before it crashed.
Record WalRestartIteration(const DriveArgs& a, const ReplayRun& run,
                           bool traced, int iter) {
  Record it;
  const std::string samples = SamplesPath(a, iter);
  const Crash c = CrashServer(a, run, traced, samples);
  ServerChild child;
  child.Launch(ServeArgv(a, run.plan_path, true, traced, "", true, false,
                         /*stop_at_idle=*/true));
  uint16_t port = 0;
  it["setup_s"] = child.WaitReady(&port);
  Record rec;
  int code = 0;
  if (!child.WaitResult(&rec, &code) || code != 0) {
    Die("recovering server failed, exit " + std::to_string(code));
  }
  FillIteration(c.r, iter, traced, false, c.sent, c.first_send, samples, &it);
  // setup_s is the reader's, so it is scaled by the host speed the reader
  // measured (it times its slices while it replays).
  it["setup_s"] =
      it.at("raw.setup_s") * kRefSliceNs / rec.at("host_slice_ns");
  it["peak_rss_mb"] = std::max(c.r.at("rss_mb"), rec.at("rss_mb"));
  for (const auto& [k, v] : rec) it["rec_srv." + k] = v;
  // The recovery spans come from the recovering server.
  for (const char* k : {"t.open_ns", "t.restore_ns", "t.replay_ns",
                        "t.checkpoint_ns", "rec.replayed_frames"}) {
    it[std::string("srv.") + k] = rec.count(k) ? rec.at(k) : 0.0;
  }
  const std::string sink = ReadFile(a.dir + "/wal/sink-OUT.out");
  const size_t floor = LinesPrefix(run.reference_sink,
                                   static_cast<uint64_t>(c.r.at("emitted")));
  const bool sink_ok = floor != std::string::npos && sink.size() >= floor &&
                       run.reference_sink.compare(0, sink.size(), sink) == 0;
  it["recovered_sink_bytes"] = static_cast<double>(sink.size());
  it["recovered_floor_bytes"] = static_cast<double>(floor);
  it["digest_ok"] = sink_ok;
  it["failed"] = ServerFailures(c.r) + ServerFailures(rec) +
                 std::abs(static_cast<double>(run.crash_frames) -
                          c.r.at("frames")) +
                 (sink_ok ? 0 : 1);
  return it;
}

/// One wal_resume iteration: the timed restart recovers from the crashed
/// first server's directory (checkpoint + WAL-tail replay, all inside
/// setup_s) and the feeder resumes through the HELLO/RESUME handshake.
/// Exactly-once as the recovery docs state it: the recovered sink file
/// must equal the uninterrupted run's byte for byte. It does not on some
/// seeds (NOTES.md, defect 2).
Record WalResumeIteration(const DriveArgs& a, const ReplayRun& run,
                          bool traced, int iter) {
  Record it;
  fs::remove_all(a.dir + "/wal");
  fs::copy(CrashedWalDir(a), a.dir + "/wal", fs::copy_options::recursive);
  const std::string samples = SamplesPath(a, iter);
  ServerChild child;
  child.Launch(ServeArgv(a, run.plan_path, true, traced, samples, true));
  uint16_t port = 0;
  it["setup_s"] = child.WaitReady(&port);
  dsms::FeedClient client = MakeClient(port, true);
  if (!client.Connect().ok() || !client.Handshake().ok()) {
    Die("resume connect failed");
  }
  // Skip each stream's durable prefix, as FeedClient::Send does.
  std::map<int32_t, uint64_t> skip = client.acked();
  std::vector<uint8_t> include(run.sched.size(), 1);
  uint64_t to_send = 0;
  for (size_t i = 0; i < run.sched.size(); ++i) {
    auto s = skip.find(run.sched.stream[i]);
    if (s != skip.end() && s->second > 0) {
      --s->second;
      include[i] = 0;
    } else {
      ++to_send;
    }
  }
  int64_t first_send = 0;
  const uint64_t sent =
      Blast(&client, run.sched, include, /*windowed=*/true, &first_send);
  client.Close();
  Record r;
  int code = 0;
  if (!child.WaitResult(&r, &code) || code != 0) {
    Die("restarted server failed, exit " + std::to_string(code));
  }
  FillIteration(r, iter, traced, false, sent, first_send, samples, &it);
  const uint64_t digest = HashBytes(ReadFile(a.dir + "/wal/sink-OUT.out"));
  const bool digest_ok = digest == run.reference;
  it["digest_ok"] = digest_ok;
  it["failed"] =
      ServerFailures(r) +
      std::abs(static_cast<double>(to_send - run.horizon_cut) - r["frames"]) +
      (digest_ok ? 0 : 1);
  return it;
}

// ------------------------------------------------------------ paced_union

struct PacedFrame {
  int64_t offset_ns;
  int32_t stream;
  int64_t key;
};

struct PacedRun {
  std::string plan_path;
  std::vector<PacedFrame> frames;
  uint64_t expected_count = 0;
  uint64_t expected_hash = 0;
};

/// Poisson due times for the dense (30k/s, keys 0..9) and sparse (5/s)
/// streams over one iteration, and the set of sequences the sink must
/// emit exactly once: every sparse frame and every dense frame whose key
/// passes the filter.
PacedRun MakePaced(const DriveArgs& a, const std::string& plan_path) {
  PacedRun run;
  run.plan_path = plan_path;
  dsms::Experiment e = ParseOrDie(ReadFile(plan_path), false);
  int32_t dense = 0, sparse = 1;
  for (dsms::Source* s : e.plan.graph->sources()) {
    if (s->name() == "DENSE") dense = s->stream_id();
    if (s->name() == "SPARSE") sparse = s->stream_id();
  }
  std::mt19937_64 rng(SeqMix(a.seed));
  std::exponential_distribution<double> dense_gap(kPacedDenseRate);
  std::exponential_distribution<double> sparse_gap(kPacedSparseRate);
  const double length_s = static_cast<double>(a.scale.paced_length()) / 1e6;
  double td = dense_gap(rng), ts = sparse_gap(rng);
  while (td < length_s || ts < length_s) {
    if (td <= ts) {
      run.frames.push_back({static_cast<int64_t>(td * 1e9), dense,
                            static_cast<int64_t>(rng() % 10)});
      td += dense_gap(rng);
    } else {
      run.frames.push_back({static_cast<int64_t>(ts * 1e9), sparse, 0});
      ts += sparse_gap(rng);
    }
  }
  for (size_t seq = 0; seq < run.frames.size(); ++seq) {
    const PacedFrame& f = run.frames[seq];
    if (f.stream == sparse || f.key < kPacedPassBelow) {
      ++run.expected_count;
      run.expected_hash += SeqMix(seq);
    }
  }
  return run;
}

dsms::WireFrame PacedWire(const PacedFrame& f, int64_t due, size_t seq) {
  dsms::WireFrame w;
  w.stream_id = f.stream;
  w.values = {dsms::Value(due), dsms::Value(static_cast<int64_t>(seq)),
              dsms::Value(f.key)};
  return w;
}

Record PacedIteration(const DriveArgs& a, const PacedRun& run, bool traced,
                      int iter) {
  Record it;
  const std::string samples = SamplesPath(a, iter);
  ServerChild child;
  child.Launch(ServeArgv(a, run.plan_path, false, traced, samples, false));
  uint16_t port = 0;
  it["setup_s"] = child.WaitReady(&port);
  dsms::FeedClient client = MakeClient(port, false);
  if (!client.Connect().ok()) Die("connect failed");
  // Open loop: frame i goes out at its due time whether or not the server
  // kept up; lateness is how far the generator itself fell behind.
  std::vector<double> late_ms;
  late_ms.reserve(run.frames.size());
  const int64_t t0 = MonoNs() + 20 * 1000000LL;
  uint64_t sent = 0;
  int64_t first_send = 0;
  for (size_t seq = 0; seq < run.frames.size(); ++seq) {
    const int64_t due = t0 + run.frames[seq].offset_ns;
    int64_t now = MonoNs();
    while (now < due) now = MonoNs();
    if (first_send == 0) first_send = now;
    late_ms.push_back(static_cast<double>(now - due) / 1e6);
    if (!client.SendFrame(PacedWire(run.frames[seq], due, seq)).ok()) break;
    ++sent;
  }
  client.Close();
  // Everything due is out within milliseconds; the grace only covers the
  // tail before the stop signal.
  const int64_t stop_at = t0 + run.frames.back().offset_ns + 300 * 1000000LL;
  while (MonoNs() < stop_at) usleep(1000);
  child.Terminate();
  Record r;
  int code = 0;
  if (!child.WaitResult(&r, &code) || code != 0) {
    Die("paced server failed, exit " + std::to_string(code));
  }
  FillIteration(r, iter, traced, true, sent, first_send, samples, &it);
  const uint64_t hash = (static_cast<uint64_t>(r["seq_hash_hi"]) << 32) |
                        static_cast<uint64_t>(r["seq_hash_lo"]);
  const double expected = static_cast<double>(run.expected_count);
  const bool exact = r["emitted"] == expected && r["duplicates"] == 0 &&
                     hash == run.expected_hash;
  it["gen_late_p99_ms"] = Percentile(&late_ms, 0.99);
  it["digest_ok"] = exact;
  it["failed"] = ServerFailures(r) +
                 static_cast<double>(run.frames.size()) - r["frames"] +
                 std::max(0.0, expected - r["emitted"]) + r["duplicates"] +
                 (exact ? 0 : 1);
  return it;
}

// ----------------------------------------------------------------- probes

/// Median of three timed passes of `fn`, in nanoseconds.
template <typename Fn>
double MedianNs(Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < 3; ++i) {
    const int64_t t0 = MonoNs();
    fn();
    t.push_back(static_cast<double>(MonoNs() - t0));
  }
  return Percentile(&t, 0.5);
}

/// FrameDecoder::Feed/Next over `wire` in 64 KiB reads, as the server's
/// socket reader feeds it.
double DecodeUsPerFrame(const std::string& wire, uint64_t frames) {
  double ns = MedianNs([&] {
    dsms::FrameDecoder decoder;
    dsms::WireFrame f;
    for (size_t off = 0; off < wire.size(); off += 65536) {
      decoder.Feed(wire.data() + off,
                   std::min<size_t>(65536, wire.size() - off));
      while (true) {
        Result<bool> got = decoder.Next(&f);
        if (!got.ok()) Die("probe decode: " + got.status().ToString());
        if (!*got) break;
      }
    }
  });
  return ns / 1000.0 / static_cast<double>(frames);
}

std::vector<dsms::WireFrame> DecodeAll(const std::string& wire) {
  dsms::FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  std::vector<dsms::WireFrame> frames;
  dsms::WireFrame f;
  while (true) {
    Result<bool> got = decoder.Next(&f);
    if (!got.ok()) Die("probe decode: " + got.status().ToString());
    if (!*got) return frames;
    frames.push_back(f);
  }
}

/// Source ingest (Ingest / IngestExternal / InjectPunctuation, as the
/// server's IngestFrame picks by timestamp kind) over the workload's
/// frames, on a fresh graph of the plan; output buffers are emptied every
/// 4096 frames.
double SourceUsPerFrame(const std::string& plan, bool require_feeds,
                        const std::vector<dsms::WireFrame>& frames) {
  std::vector<double> t;
  for (int pass = 0; pass < 3; ++pass) {
    dsms::Experiment e = ParseOrDie(plan, require_feeds);
    std::map<int32_t, dsms::Source*> sources;
    for (dsms::Source* src : e.plan.graph->sources()) {
      sources[src->stream_id()] = src;
    }
    std::vector<dsms::WireFrame> copy = frames;
    const int64_t t0 = MonoNs();
    dsms::Timestamp now = 0;
    for (size_t i = 0; i < copy.size(); ++i) {
      dsms::WireFrame& f = copy[i];
      dsms::Source* src = sources.at(f.stream_id);
      now = std::max(now, f.arrival_hint.value_or(now + 1));
      if (f.type == dsms::WireFrame::Type::kPunctuation) {
        src->InjectPunctuation(*f.timestamp);
      } else if (src->timestamp_kind() == dsms::TimestampKind::kExternal) {
        src->IngestExternal(*f.timestamp, std::move(f.values), now);
      } else {
        src->Ingest(std::move(f.values), now);
      }
      if (i % 4096 == 4095 || i + 1 == copy.size()) {
        for (auto& [id, s] : sources) {
          while (!s->output()->empty()) s->output()->Pop();
        }
      }
    }
    t.push_back(static_cast<double>(MonoNs() - t0));
  }
  return Percentile(&t, 0.5) / 1000.0 / static_cast<double>(frames.size());
}

/// WalWriter::Append (with its interval syncs) over the frames a crashing
/// server is sent. Returns us per frame; `syncs` counts fsyncs taken.
double WalAppendUsPerFrame(const DriveArgs& a, const EncodedSchedule& sched,
                           const std::vector<uint8_t>& include,
                           uint64_t sync_interval, double* syncs) {
  uint64_t n = 0, sync_count = 0;
  double ns = MedianNs([&] {
    const std::string dir = a.dir + "/probe-wal";
    fs::remove_all(dir);
    fs::create_directories(dir);
    dsms::WalOptions o;
    o.dir = dir;
    o.sync = dsms::WalSyncPolicy::kInterval;
    o.sync_interval_bytes = sync_interval;
    dsms::WalWriter w(o);
    if (!w.Open(0).ok()) Die("probe wal open");
    n = sync_count = 0;
    uint64_t synced = 0;
    for (size_t i = 0; i < sched.size(); ++i) {
      if (!include[i]) continue;
      const size_t len = sched.offset[i + 1] - sched.offset[i];
      Status s = w.Append(sched.time[i], 1,
                          sched.wire.substr(sched.offset[i], len));
      if (!s.ok()) Die("probe wal append: " + s.ToString());
      if (w.synced_bytes() != synced) {
        synced = w.synced_bytes();
        ++sync_count;
      }
      ++n;
    }
    if (!w.Sync().ok()) Die("probe wal sync");
  });
  *syncs = static_cast<double>(sync_count + 1);
  return n == 0 ? 0.0 : ns / 1000.0 / static_cast<double>(n);
}

/// ReadBlockFile over one-second blocks of the workload's join input, as
/// the state store spills them (granularity=1s).
double BlockReadUs(const DriveArgs& a,
                   const std::vector<dsms::ScheduledFrame>& s) {
  const std::string dir = a.dir + "/probe-blocks";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::map<int64_t, dsms::BlockFileContents> blocks;
  for (const dsms::ScheduledFrame& f : s) {
    if (f.frame.type != dsms::WireFrame::Type::kData) continue;
    const int64_t bucket = f.time / dsms::kSecond;
    dsms::BlockFileContents& b = blocks[bucket];
    b.block_id = static_cast<uint64_t>(bucket + 1);
    b.bucket_start = bucket * dsms::kSecond;
    b.bucket_end = b.bucket_start + dsms::kSecond;
    b.min_ts = std::min(b.min_ts, f.time);
    b.max_ts = std::max(b.max_ts, f.time);
    dsms::InlinedValues values;
    for (const dsms::Value& v : f.frame.values) values.push_back(v);
    b.rows.push_back(dsms::Tuple::MakeData(f.time, std::move(values)));
  }
  std::vector<std::string> paths;
  for (const auto& [bucket, b] : blocks) {
    if (!dsms::WriteBlockFile(dir, b).ok()) Die("probe block write");
    paths.push_back(dsms::BlockFilePath(dir, b.block_id));
  }
  double ns = MedianNs([&] {
    for (const std::string& p : paths) {
      if (!dsms::ReadBlockFile(p).ok()) Die("probe block read");
    }
  });
  return paths.empty() ? 0.0 : ns / 1000.0 / static_cast<double>(paths.size());
}

uint64_t NewestCheckpointBytes(const std::string& dir) {
  uint64_t best_id = 0, bytes = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint-", 0) != 0 ||
        entry.path().extension() != ".ckpt") {
      continue;
    }
    const uint64_t id = std::strtoull(name.c_str() + 11, nullptr, 10);
    if (id >= best_id) {
      best_id = id;
      bytes = entry.file_size();
    }
  }
  return bytes;
}

/// Per-layer numbers of one traced iteration (server spans) plus the
/// isolated probes, all per frame the server ingested.
void LayerFields(const Record& it, double decode_us, double source_us,
                 double wal_us,
                 double wal_syncs, double block_us, double ckpt_bytes,
                 Record* out) {
  auto g = [&](const std::string& k) {
    auto f = it.find("srv." + k);
    return f == it.end() ? 0.0 : f->second;
  };
  const double frames = g("frames");
  const double step_us = g("t.step_ns") / 1e3;
  const double cpu_us = g("cpu_us");
  Record& o = *out;
  o["net.decode_us_per_frame"] = decode_us;
  o["net.bytes_per_frame"] = g("bytes") / frames;
  o["net.loop_cpu_us_per_frame"] = std::max(0.0, cpu_us - step_us) / frames;
  o["exec.step_us_per_frame"] = step_us / frames;
  o["exec.steps_per_frame"] = g("steps") / frames;
  o["exec.ets_per_kframe"] = g("ets") * 1000.0 / frames;
  o["exec.idle_returns"] = g("idle_returns");
  // Sources never take executor steps: ingest runs in the server's
  // delivery path, so the source figure is the isolated probe's.
  o["op.source.busy_us_per_frame"] = source_us;
  for (const char* kind : {"filter", "union", "window_join", "sink"}) {
    o[std::string("op.") + kind + ".busy_us_per_frame"] =
        g(std::string("t.op.") + kind + "_ns") / 1e3 / frames;
  }
  o["recovery.wal_append_us_per_frame"] = wal_us;
  o["recovery.wal_syncs"] = wal_syncs;
  o["recovery.checkpoint_ms"] = g("t.checkpoint_ns") / 1e6;
  o["recovery.checkpoint_bytes"] = ckpt_bytes;
  o["recovery.restore_ms"] = (g("t.open_ns") + g("t.restore_ns")) / 1e6;
  o["recovery.replay_ms"] = g("t.replay_ns") / 1e6;
  o["recovery.replayed_frames"] = g("rec.replayed_frames");
  o["storage.loads_per_frame"] = g("st.loads") / frames;
  o["storage.evictions_per_frame"] = g("st.evictions") / frames;
  const double probes = g("st.index_probes");
  o["storage.hits_per_probe"] = probes > 0 ? g("st.index_hits") / probes : 0.0;
  o["storage.block_read_us"] = block_us;
  o["storage.spilled_bytes"] = g("st.spilled_bytes");
  const auto late = it.find("gen_late_p99_ms");
  o["gen.late_p99_ms"] = late == it.end() ? 0.0 : late->second;
  // Time the spans and probes account for, against the server's CPU time
  // over Run: RunStep spans, plus decode, source ingest and WAL append at
  // probe cost.
  const double attributed = step_us + (decode_us + source_us + wal_us) * frames;
  o["trace.unattributed_frac"] =
      cpu_us > 0 ? std::max(0.0, 1.0 - attributed / cpu_us) : 0.0;
}

}  // namespace

int DriveMain(int argc, char** argv) {
  DriveArgs a;
  std::string workload;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Die("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (arg == "--trace") {
      a.trace = v == "1";
    } else if (arg == "--scale") {
      a.scale.scale = std::atof(v.c_str());
    } else if (arg == "--dir") {
      a.dir = v;
    } else if (arg == "--serve-core") {
      a.serve_core = std::atoi(v.c_str());
    } else if (arg == "--gen-core") {
      a.gen_core = std::atoi(v.c_str());
    } else {
      Die("unknown argument " + arg);
    }
  }
  if (!ParseWorkload(workload, &a.workload)) {
    Die("unknown workload " + workload);
  }
  if (a.dir.empty()) Die("--dir is required");
  fs::create_directories(a.dir);
  a.dir = fs::absolute(a.dir).string();
  PinToCore(a.gen_core);
  signal(SIGPIPE, SIG_IGN);
  g_progress = MapProgress(a.dir + "/progress");
  if (g_progress == nullptr) Die("cannot map " + a.dir + "/progress");

  const std::string plan =
      WorkloadPlan(a.workload, a.seed, a.scale, a.dir);
  const std::string plan_path = a.dir + "/plan.txt";
  WriteFile(plan_path, plan);

  // Inputs, made once from the seed; every iteration replays the same.
  ReplayRun replay;
  PacedRun paced;
  std::vector<dsms::ScheduledFrame> schedule;
  const bool is_paced = a.workload == WorkloadKind::kPacedUnion;
  if (is_paced) {
    paced = MakePaced(a, plan_path);
  } else {
    dsms::Experiment e = ParseOrDie(plan, true);
    Result<std::vector<dsms::ScheduledFrame>> s =
        dsms::BuildFeedSchedule(e, e.run.horizon);
    if (!s.ok()) Die("schedule: " + s.status().ToString());
    schedule = std::move(*s);
    replay.plan_path = plan_path;
    replay.sched = Encode(schedule);
    // Only spill_join's block probe reads the decoded frames again.
    if (a.workload != WorkloadKind::kSpillJoin) schedule = {};
  }

  // The reference digest comes first: an iteration checks against it.
  // The WAL workloads check against their uninterrupted run's sink file
  // (exactly-once); spill_join must match its unlimited-budget output.
  const int64_t ref_t0 = MonoNs();
  if (!is_paced) {
    uint64_t taken = 0;
    replay.reference = ReferenceDigest(
        a, plan_path, /*unlimited=*/a.workload == WorkloadKind::kSpillJoin,
        &taken, &replay.reference_sink);
    replay.horizon_cut = replay.sched.size() - taken;
  }
  const bool is_wal = a.workload == WorkloadKind::kWalRestart ||
                      a.workload == WorkloadKind::kWalResume;
  if (is_wal) {
    const dsms::Timestamp crash = a.scale.crash_at();
    for (size_t i = 0; i < replay.sched.size(); ++i) {
      replay.to_crash.push_back(replay.sched.time[i] < crash + dsms::kSecond);
    }
    // An untimed crash fixes how many frames a crashing server takes;
    // wal_resume restarts every iteration from a copy of its directory.
    const Crash first = CrashServer(a, replay, false, "");
    replay.crash_frames = static_cast<uint64_t>(first.r.at("frames"));
    if (a.workload == WorkloadKind::kWalResume) {
      fs::remove_all(CrashedWalDir(a));
      fs::rename(a.dir + "/wal", CrashedWalDir(a));
    }
  }
  const double reference_s = static_cast<double>(MonoNs() - ref_t0) / 1e9;

  // The first server of a run warms up page cache, CPU caches and clock
  // frequency and is not measured: for the replay workloads that is the
  // reference run above, for paced_union iteration 0. Then iterate for
  // --seconds, at least kMinIterations times. A traced run alternates
  // untraced and traced iterations, so the tracing overhead is measured on
  // the same inputs.
  std::vector<Record> iters;
  std::vector<double> pooled_latency;
  const int warmups = is_paced ? 1 : 0;
  const int needed =
      warmups + (a.trace ? kMinIterations + 1 : kMinIterations);
  int64_t start = MonoNs();
  for (int i = 0;; ++i) {
    if (i == warmups) start = MonoNs();
    const double elapsed = static_cast<double>(MonoNs() - start) / 1e9;
    if (i >= needed && elapsed >= a.seconds) break;
    const bool traced = a.trace && (i - warmups) % 2 == 1;
    Record it;
    switch (a.workload) {
      case WorkloadKind::kUnionReplay:
      case WorkloadKind::kSpillJoin:
        it = ReplayIteration(a, replay, traced, i);
        break;
      case WorkloadKind::kWalRestart:
        it = WalRestartIteration(a, replay, traced, i);
        break;
      case WorkloadKind::kWalResume:
        it = WalResumeIteration(a, replay, traced, i);
        break;
      case WorkloadKind::kPacedUnion:
        it = PacedIteration(a, paced, traced, i);
        break;
    }
    it["warmup"] = i < warmups;
    if (i >= warmups && !traced) {
      std::vector<double> lat = ReadSamples(SamplesPath(a, i));
      pooled_latency.insert(pooled_latency.end(), lat.begin(), lat.end());
    }
    fs::remove(SamplesPath(a, i));
    if (traced) {
      it["ckpt_bytes"] =
          static_cast<double>(NewestCheckpointBytes(a.dir + "/wal"));
    }
    std::printf("ITER %s\n", RecordToJson(it).c_str());
    std::fflush(stdout);
    iters.push_back(it);
  }

  Record run;
  run["reference_s"] = reference_s;
  run["horizon_cut_frames"] = static_cast<double>(replay.horizon_cut);
  run["crash_frames"] = static_cast<double>(replay.crash_frames);
  run["ref_slice_ns"] = kRefSliceNs;
  run["measured_s"] = static_cast<double>(MonoNs() - start) / 1e9;
  // Latency percentiles over every sample of the measured untraced
  // iterations together.
  run["lat_samples"] = static_cast<double>(pooled_latency.size());
  run["lat_p50_ms"] = Percentile(&pooled_latency, 0.50);
  run["lat_p99_ms"] = Percentile(&pooled_latency, 0.99);
  run["schedule_frames"] = is_paced ? static_cast<double>(paced.frames.size())
                                    : static_cast<double>(replay.sched.size());
  if (a.trace) {
    // Isolated probes over this workload's recorded inputs.
    std::string wire;
    uint64_t frames = 0;
    if (is_paced) {
      for (size_t seq = 0; seq < paced.frames.size(); ++seq) {
        dsms::EncodeFrame(PacedWire(paced.frames[seq], 0, seq), &wire);
      }
      frames = paced.frames.size();
    } else {
      wire = replay.sched.wire;
      frames = replay.sched.size();
    }
    run["probe.decode_us"] = DecodeUsPerFrame(wire, frames);
    // The source probe copies decoded frames; a 256k-frame prefix keeps
    // that small.
    std::vector<dsms::WireFrame> decoded = DecodeAll(wire);
    if (decoded.size() > (1u << 18)) decoded.resize(1u << 18);
    run["probe.source_us"] = SourceUsPerFrame(plan, !is_paced, decoded);
    if (is_wal) {
      dsms::Experiment e = ParseOrDie(plan, true);
      double syncs = 0;
      run["probe.wal_append_us"] = WalAppendUsPerFrame(
          a, replay.sched, replay.to_crash, e.recovery.sync_interval_bytes,
          &syncs);
      run["probe.wal_syncs"] = syncs;
    }
    if (a.workload == WorkloadKind::kSpillJoin) {
      run["probe.block_read_us"] = BlockReadUs(a, schedule);
    }
    for (const Record& it : iters) {
      if (it.at("traced") == 0) continue;
      Record layers;
      auto p = [&](const char* k) {
        auto f = run.find(k);
        return f == run.end() ? 0.0 : f->second;
      };
      LayerFields(it, p("probe.decode_us"), p("probe.source_us"),
                  p("probe.wal_append_us"),
                  p("probe.wal_syncs"), p("probe.block_read_us"),
                  it.count("ckpt_bytes") ? it.at("ckpt_bytes") : 0.0, &layers);
      std::printf("LAYERS %s\n", RecordToJson(layers).c_str());
    }
  }
  std::printf("RUN %s\n", RecordToJson(run).c_str());
  fs::remove_all(a.dir + "/probe-wal");
  fs::remove_all(a.dir + "/probe-blocks");
  return 0;
}

}  // namespace perfbench
